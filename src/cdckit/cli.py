"""Command-line surface: bound evaluation, the full bound table, desk-scale
builds, file verification, rank distributions, and diagram-code audits.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All integers print in plain decimal; files are plain text and diffable.
``.cdc`` files are written and read a whole code's packed rows at a time,
each distinct row formatted or packed once; a file the whole-code reader
refuses is walked line by line for its first error.
"""

from __future__ import annotations

import argparse
import itertools
import operator
import os
import sys
from functools import cache

from .cdc import Cdc, CwcSet, IdVec, ferrers_of, multilevel
from .errors import (BadArguments, CdcError, DegreeTooLarge, NotInRegistry,
                     ParseError, TooLarge, UsageError)
from .ferrers import FdrmCode, FerrersDiagram, optimal_fdrmc, singleton_bound
from .gf import SUPPORTED_ORDERS, is_prime_power
from .linalg import MatGF, _eliminate, _non_rref, lanes, span_rank
from .rankmetric import LinearMatrixCode, rank_distribution
from .theorems import (EXAMPLES, BoundResult, consistency_report,
                       example_bound, load_registry, table11_bound, th41_bound,
                       th44_bound)
from .verify import audit_fdrmc, check_cdc

BUILD_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_cdc(code: Cdc, path: str):
    """One header line, then one k x n digit block per codeword, sorted,
    each after a blank line; all rows become digits in one pass."""
    k, blocks = code.k, sorted(code.blocks())
    rows = lanes(code.q).lines([v for b in blocks for v in b], code.n)
    lines = [""] * (len(blocks) * (k + 1) + 1)
    lines[0] = (f"cdc v1 q={code.q} n={code.n} k={k} d={code.d} "
                f"count={len(blocks)}")
    for i in range(k):
        lines[i + 2::k + 1] = rows[i::k]
    _write_lines(path, lines)


def _write_lines(path, lines):
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}")


def _header_fields(line, expected, lineno):
    parts = line.split()
    if len(parts) < 2 or parts[0] != expected or parts[1] != "v1":
        raise ParseError(f"expected '{expected} v1' header", line=lineno)
    fields = {}
    for p in parts[2:]:
        if "=" not in p:
            raise ParseError(f"bad header field {p!r}", line=lineno)
        key, val = p.split("=", 1)
        if key in fields:
            raise ParseError(f"repeated header field {key!r}", line=lineno)
        fields[key] = val
    return fields


def _read_lines(path):
    try:
        with open(path) as fh:
            raw = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read file: {e}", line=1)
    if not raw:
        raise ParseError("empty file", line=1)
    return raw


def _check_order(q):
    if q not in SUPPORTED_ORDERS:
        raise ParseError(f"field order q={q} not in {SUPPORTED_ORDERS}", line=1)


def _read_blocks(raw, q, n, rows):
    """Yield the blank-line separated blocks after the header line, each
    ``rows`` lines of n digits below q, as (first line number, packed rows)
    pairs."""
    L = lanes(q)
    pack, digits = L.pack, L.digit_chars
    block, start = [], None
    for lineno, line in enumerate(raw[1:], 2):
        s = line.strip()
        if not s:
            if block:
                raise ParseError(f"block has {len(block)} of {rows} rows",
                                 line=lineno)
            continue
        if len(s) != n or s.strip(digits):  # not n digits below q
            if len(s) != n or not (s.isascii() and s.isdigit()):
                raise ParseError(f"expected {n} digits", line=lineno)
            raise ParseError(f"entry out of range for q={q}", line=lineno)
        if not block:
            start = lineno
        block.append(pack(s))
        if len(block) == rows:
            yield start, block
            block = []
    if block:
        raise ParseError(f"truncated block of {len(block)} rows", line=start)


def read_cdc(path: str) -> Cdc:
    raw = _read_lines(path)
    fields = _header_fields(raw[0], "cdc", 1)
    try:
        q, n, k, d, count = (int(fields[x]) for x in ("q", "n", "k", "d", "count"))
    except KeyError as e:
        raise ParseError(f"missing header field {e}", line=1)
    except ValueError as e:
        raise ParseError(f"bad header: {e}", line=1)
    _check_order(q)
    if not 1 <= k <= n:
        raise ParseError(f"need 1 <= k <= n, got k={k}, n={n}", line=1)
    if d < 1:
        raise ParseError(f"d={d} is not positive", line=1)
    rows = _read_rows(raw, q, n, k)
    if rows is None:  # the walk finds the first error in file order
        rows = [v for start, block in _read_blocks(raw, q, n, k)
                for v in _parse_block(q, n, block, start)]
    if len(rows) != count * k:
        raise ParseError(f"header promises {count} codewords, found {len(rows) // k}",
                         line=1)
    return Cdc(q=q, n=n, k=k, d=d, rows=rows, provenance="file")


def _read_rows(raw, q, n, k):
    """The packed rows of the body's codewords in whole-file passes, if no
    blank line is inside a block (after a multiple of k rows), every row is
    n digits below q and every block is in RREF of rank k; else None.  Each
    distinct row is checked and packed once, then looked up by its text."""
    lines = list(map(str.strip, raw[1:]))
    # the j-th blank line, at index i, comes after i - j rows
    blank = itertools.compress(itertools.count(), map(operator.not_, lines))
    if any(map(k.__rmod__, map(operator.sub, blank, itertools.count()))):
        return None
    lines = list(filter(None, lines))
    distinct = dict.fromkeys(lines)  # first-occurrence order
    L = lanes(q)
    if len(lines) % k or set(map(len, distinct)) - {n} or \
            "".join(distinct).translate(str.maketrans("", "", L.digit_chars)):
        return None
    packed = list(map(int, " ".join(distinct).translate(L.text).split(),
                      itertools.repeat(L.base)))
    if len(packed) < len(lines):  # some row repeats
        packed = list(map(dict(zip(distinct, packed)).__getitem__, lines))
    del lines, distinct
    return None if _non_rref(q, n, k, packed) else packed


def _parse_block(q, n, rows, block_start):
    reduced, pivots = _eliminate(q, n, rows)
    if len(pivots) < len(rows):
        raise ParseError("generator rows are linearly dependent", line=block_start)
    if reduced != rows:
        raise ParseError("generator block is not in reduced echelon form",
                         line=block_start)
    return rows


def write_fdrmc(code: FdrmCode, path: str):
    dia = code.diagram
    orient = "inverse" if dia.inverted else "forward"
    lines = [f"fdrmc v1 q={code.q} m={dia.m} n={dia.n} delta={code.delta} "
             f"dim={code.dim} diagram={','.join(str(c) for c in dia.cols)} "
             f"orient={orient}"]
    for B in code.code.basis:
        lines.append("")
        lines += B.lines()
    _write_lines(path, lines)


def read_fdrmc(path: str) -> FdrmCode:
    raw = _read_lines(path)
    fields = _header_fields(raw[0], "fdrmc", 1)
    try:
        q = int(fields["q"])
        m, n = int(fields["m"]), int(fields["n"])
        delta, dim = int(fields["delta"]), int(fields["dim"])
        cols = tuple(int(c) for c in fields["diagram"].split(",") if c)
        orient = fields.get("orient", "forward")
        dia = FerrersDiagram(cols, inverted=orient == "inverse")
    except (KeyError, ValueError, BadArguments) as e:
        raise ParseError(f"bad header: {e}", line=1)
    _check_order(q)
    if delta < 1:
        raise ParseError(f"delta={delta} is not positive", line=1)
    if orient not in ("forward", "inverse"):
        raise ParseError(f"orient={orient} is neither forward nor inverse",
                         line=1)
    if (m, n) != (dia.m, dia.n):
        raise ParseError(f"diagram is {dia.m} x {dia.n}, header says {m} x {n}",
                         line=1)
    basis = []
    for start, rows in _read_blocks(raw, q, n, m):
        basis.append(MatGF.from_packed(q, n, rows))
        if span_rank(q, basis) < len(basis):
            raise ParseError("basis matrix is zero or in the span of the "
                             "earlier ones", line=start)
    if len(basis) != dim:
        raise ParseError(f"header promises dim={dim}, found {len(basis)} matrices",
                         line=1)
    inner = LinearMatrixCode(q, dia.m, dia.n, tuple(basis), delta)
    return FdrmCode(diagram=dia, code=inner, delta=delta,
                    optimal=dim == singleton_bound(dia, delta))


def parse_diagram(text: str) -> FerrersDiagram:
    """Diagram literal, e.g. 'F=[1,2,4]' (ascending column counts)."""
    s = text.strip().removeprefix("F=")
    try:
        if s[:1] + s[-1:] != "[]":
            raise ValueError("not in brackets")
        return FerrersDiagram(tuple(int(c) for c in s[1:-1].split(",") if c.strip()))
    except (ValueError, BadArguments) as e:
        raise UsageError(f"bad diagram {text!r} ({e}); expected F=[c1,c2,...]")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _require_prime_power(q):
    """The formulas hold for every prime power q; no field has another order."""
    if not is_prime_power(q):
        raise UsageError(f"q={q} is not a prime power")


def _digits(n: int) -> str:
    """n in decimal.  ``str`` takes time quadratic in n's length, so above
    4,096 bits n is split at half its bits, recursively, and joined as
    hi * 2^h + lo exactly in ``decimal`` at ``MAX_PREC``, where long
    products are fast; each power 2^h is made once."""
    if abs(n).bit_length() <= 4096:
        return str(n)
    import decimal  # loaded only for a long value

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact])
    twos = {}

    def two(h):
        if h not in twos:
            twos[h] = decimal.Decimal(1 << h) if h <= 4096 else \
                ctx.multiply(two(h // 2), two(h - h // 2))
        return twos[h]

    def dec(m, w):  # 0 <= m < 2^w
        h = w // 2
        return decimal.Decimal(m) if w <= 4096 else \
            ctx.fma(dec(m >> h, w - h), two(h), dec(m & (1 << h) - 1, h))
    return "-" * (n < 0) + str(dec(abs(n), abs(n).bit_length()))


def _print_bound(res: BoundResult):
    print(f"A_{res.q}({res.n},{res.d},{res.k}) >= {_digits(res.value)}   "
          f"[{res.source}]")
    if res.polynomial:
        print(f"  polynomial: {res.polynomial_str()}")
    if res.old_bound is not None:
        print(f"  previous bound: {_digits(res.old_bound)}  "
              f"(difference {_digits(res.difference)})")
    for note in res.notes:
        print(f"  note: {note}")


def cmd_bound(args) -> int:
    q, n, d, k = args.q, args.n, args.d, args.k
    _require_prime_power(q)
    registry = load_registry(args.registry)
    source = args.source

    def compute(src):
        if src == "table11":
            try:
                return table11_bound(q, n, d, k, registry=registry)
            except NotInRegistry as e:
                raise UsageError(str(e))
        if src in ("th41", "th44"):
            if d % 2:
                raise UsageError("construction sources need an even distance")
            fn = th41_bound if src == "th41" else th44_bound
            try:
                return fn(q, n, d // 2, k)
            except BadArguments as e:
                raise UsageError(f"--source {src}: {e}")
        name = src.split(":", 1)[1] if src.startswith("example:") else None
        if name not in EXAMPLES:
            raise UsageError(f"unknown source {src!r}: not auto, table11, th41, "
                             f"th44 or example:{'|'.join(sorted(EXAMPLES))}")
        en, ed, ek = EXAMPLES[name][1]
        if (en, ed, ek) != (n, d, k):
            raise UsageError(f"example:{name} bounds A_{q}({en},{ed},{ek}), "
                             f"not A_{q}({n},{d},{k})")
        return example_bound(name, q)

    if source == "auto":
        for src in ("table11", "th44", "th41"):
            try:
                res = compute(src)
                break
            except CdcError:
                continue
        else:
            raise UsageError("no applicable source")
    else:
        res = compute(source)
    _print_bound(res)
    rows, _ = registry
    key = (q, n, d, k)
    if res.source != "table11" and key in rows and rows[key][0] != res.value:
        print(f"  MISMATCH: registry lists {_digits(rows[key][0])} "
              f"(difference {_digits(rows[key][0] - res.value)})")
    return 0


def cmd_table11(args) -> int:
    registry = load_registry(args.registry)
    rows, order = registry
    values = {}
    for key in order:
        q, n, d, k = key
        if rows[key][1] is None:
            raise UsageError(f"registry row A_{q}({n},{d},{k}) has no old bound "
                             "to compare with")
        try:
            values[key] = table11_bound(q, n, d, k, registry=registry).value
        except NotInRegistry as e:
            raise UsageError(f"registry row A_{q}({n},{d},{k}): {e}")
    consistency = {(c["q"], c["n"], c["d"], c["k"]): c for c in
                   (consistency_report(registry) if args.consistency else ())}
    csv = args.format == "csv"
    if csv:
        print("q,n,d,k,new,old,diff,status"
              + (",recomputed,consistent" if args.consistency else ""))
    bad = 0
    for key in order:
        q, n, d, k = key
        value, (new, old) = values[key], rows[key]
        ok = value == new and value > old
        bad += not ok
        status = "ok" if ok else "MISMATCH"
        c = consistency.get(key)
        if csv:
            line = f"{q},{n},{d},{k},{value},{old},{value - old},{status}"
            if c:
                line += f",{c['recomputed']},{'yes' if c['match'] else 'no'}"
        else:
            line = (f"A_{q}({n},{d},{k})  new {value}  old {old}  "
                    f"diff {value - old}  {status}")
            if c and not c["match"]:
                line += (f"  [reconstruction gives {c['recomputed']}, "
                         f"off by {new - c['recomputed']}]")
        print(line)
    if args.consistency:
        n_off = sum(1 for c in consistency.values() if not c["match"])
        print(f"# consistency: {len(order) - n_off}/{len(order)} rows match "
              f"their reconstruction")
    if bad:
        print(f"# {bad} rows FAILED transcription validation", file=sys.stderr)
        return 1
    return 0


def cmd_build(args) -> int:
    q = args.q
    if q not in SUPPORTED_ORDERS:
        raise UsageError(f"q={q} not in supported orders {SUPPORTED_ORDERS}")
    if args.delta < 1:
        raise UsageError(f"--delta {args.delta} is not positive")
    if bool(args.multilevel) == bool(args.fdrmc):
        raise UsageError("pass exactly one of --multilevel and --fdrmc")
    if args.multilevel:
        try:  # a diagram too large for GF(q^m) is a bad argument, too
            vectors = [IdVec.from_string(s)
                       for s in args.multilevel.split(",") if s.strip()]
            CwcSet(vectors=tuple(vectors), min_hd=2 * args.delta)
            diagrams = [ferrers_of(v).diagram for v in vectors]
            # each lift has q^(dimension bound) codewords: counted, not built
            total = sum(q ** singleton_bound(dia, args.delta) for dia in diagrams)
            if total > BUILD_CAP:
                if args.force_count_only:
                    print(f"count-only: {_digits(total)} codewords")
                    return 0
                raise TooLarge(f"{_digits(total)} codewords exceed build cap "
                               f"{BUILD_CAP}; pass --force-count-only for the size")
            entries = [(v, optimal_fdrmc(dia, args.delta, q))
                       for v, dia in zip(vectors, diagrams)]
        except (BadArguments, DegreeTooLarge) as e:
            raise UsageError(f"--multilevel {args.multilevel!r}: {e}")
        code = multilevel(entries, args.delta)
        write_cdc(code, args.out)
        print(f"wrote {code.size} codewords to {args.out} "
              f"(n={code.n}, k={code.k}, d={code.d})")
        return 0
    dia = parse_diagram(args.fdrmc)
    try:
        code = optimal_fdrmc(dia, args.delta, q)
    except DegreeTooLarge as e:
        raise UsageError(f"--fdrmc {args.fdrmc!r}: {e}")
    write_fdrmc(code, args.out)
    print(f"wrote [{dia}, {code.dim}, {code.delta}]_{q} code to {args.out}")
    return 0


def cmd_check(args) -> int:
    code = read_cdc(args.infile)
    report = check_cdc(code, mode=args.mode, seed=args.seed)
    print(report.summary())
    if args.kv:
        for line in report.kv_lines():
            print(line)
    return 0 if report.passed else 1


def cmd_rankdist(args) -> int:
    q, m, n, delta = args.q, args.m, args.n, args.delta
    _require_prime_power(q)
    if not 1 <= delta <= min(m, n):
        raise UsageError(f"need 1 <= delta <= min(m, n), got delta={delta}, "
                         f"m={m}, n={n}")
    total = 0
    for r in range(0, min(m, n) + 1):
        a = rank_distribution(q, m, n, delta, r)
        total += a
        print(f"rank {r}: {a}")
    expected = q ** (max(m, n) * (min(m, n) - delta + 1))
    ok = total == expected
    print(f"total {total} (code size {expected}: "
          f"{'identity OK' if ok else 'IDENTITY FAILS'})")
    return 0 if ok else 1


def cmd_audit(args) -> int:
    code = read_fdrmc(args.infile)
    report = audit_fdrmc(code)
    print(report.summary())
    for key, val in report.details.items():
        print(f"  {key}: {val}")
    return 0 if report.passed else 1


@cache  # one parser per process: each build costs about 1 ms
def build_parser():
    p = argparse.ArgumentParser(
        prog="cdckit",
        description="constant-dimension subspace codes: bounds, builds, checks")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate one lower bound")
    b.add_argument("-q", type=int, required=True)
    b.add_argument("-n", type=int, required=True)
    b.add_argument("-d", type=int, required=True)
    b.add_argument("-k", type=int, required=True)
    b.add_argument("--source", default="auto",
                   help="auto|table11|th41|th44|example:<name>")
    b.add_argument("--registry", default=None, help="alternate registry file")
    b.set_defaults(fn=cmd_bound)

    t = sub.add_parser("table11", help="emit and validate the bound table")
    t.add_argument("--format", choices=("text", "csv"), default="text")
    t.add_argument("--consistency", action="store_true",
                   help="also re-derive each row from the constructions")
    t.add_argument("--registry", default=None)
    t.set_defaults(fn=cmd_table11)

    bu = sub.add_parser("build", help="materialize a desk-scale code to a file")
    bu.add_argument("--multilevel", default=None,
                    help="comma-separated identifying vectors, e.g. 1100,0011")
    bu.add_argument("--fdrmc", default=None,
                    help="diagram literal, e.g. F=[1,2,4]")
    bu.add_argument("-q", type=int, required=True)
    bu.add_argument("--delta", type=int, required=True)
    bu.add_argument("--out", required=True)
    bu.add_argument("--force-count-only", action="store_true")
    bu.set_defaults(fn=cmd_build)

    c = sub.add_parser("check", help="re-verify a code file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    c.add_argument("--seed", type=int, default=2024)
    c.add_argument("--kv", action="store_true",
                   help="also print machine-readable key=value lines")
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("rankdist", help="rank distribution and size identity")
    r.add_argument("-q", type=int, required=True)
    r.add_argument("-m", type=int, required=True)
    r.add_argument("-n", type=int, required=True)
    r.add_argument("--delta", type=int, required=True)
    r.set_defaults(fn=cmd_rankdist)

    a = sub.add_parser("audit", help="audit a diagram-code file")
    a.add_argument("--in", dest="infile", required=True)
    a.set_defaults(fn=cmd_audit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rc, limit = 0, getattr(sys, "get_int_max_str_digits", int)()  # 0: none
    if limit:  # exact integers print in full, however long
        sys.set_int_max_str_digits(0)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a reader gone from the pipe shows up here
    except BrokenPipeError:  # as under `| head`: not an error of the command
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except UsageError as e:  # ParseError included
        print(f"{e.kind} error: {e}", file=sys.stderr)
        return 2
    except CdcError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return rc


if __name__ == "__main__":
    sys.exit(main())
