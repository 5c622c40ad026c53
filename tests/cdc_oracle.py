"""The ``.cdc`` writer and reader as they were before they worked a whole
code at a time, kept as oracles for ``cli.write_cdc`` and ``cli.read_cdc``.

The writer turns one row at a time into digits.  The reader walks the file
line by line and eliminates each block on its own; whether a block is in
RREF is decided by ``_eliminate`` (the unique RREF of its rows), not by the
whole-code lane test ``_non_rref`` that ``cli.read_cdc`` runs.  Only
``_read_lines``, ``_header_fields`` and ``_check_order``, which read the
header, come from ``cli``.
"""

from cdckit.cdc import Cdc
from cdckit.cli import _check_order, _header_fields, _read_lines, _write_lines
from cdckit.errors import ParseError
from cdckit.linalg import MatGF, Subspace, _eliminate, lanes


def digits(q, v, n):
    """The n entries of packed row v as a string of decimal digits."""
    L = lanes(q)
    s = format(v, L.fmt) if L.byte_digits is None else "".join(
        map(L.byte_digits.__getitem__, v.to_bytes((n * L.W + 7) // 8, "big")))
    s = s.zfill(n)
    return s[len(s) - n:]


def write_cdc(code, path):
    members = sorted(code.members, key=lambda U: U.gen.packed)
    lines = [f"cdc v1 q={code.q} n={code.n} k={code.k} d={code.d} "
             f"count={len(members)}"]
    for U in members:
        lines.append("")
        lines += [digits(code.q, v, code.n) for v in U.gen.packed]
    _write_lines(path, lines)


def read_blocks(raw, q, n, rows):
    L = lanes(q)
    pack, chars = L.pack, L.digit_chars
    block, start = [], None
    for lineno, line in enumerate(raw[1:], 2):
        s = line.strip()
        if not s:
            if block:
                raise ParseError(f"block has {len(block)} of {rows} rows",
                                 line=lineno)
            continue
        if len(s) != n or s.strip(chars):
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


def parse_block(q, n, rows, block_start):
    reduced, pivots = _eliminate(q, n, rows)
    if len(pivots) < len(rows):
        raise ParseError("generator rows are linearly dependent",
                         line=block_start)
    if reduced != rows:
        raise ParseError("generator block is not in reduced echelon form",
                         line=block_start)
    return Subspace.from_matrix(MatGF.from_packed(q, n, rows))


def read_cdc(path):
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
    members = [parse_block(q, n, rows, start)
               for start, rows in read_blocks(raw, q, n, k)]
    if len(members) != count:
        raise ParseError(f"header promises {count} codewords, found {len(members)}",
                         line=1)
    return Cdc(q=q, n=n, k=k, d=d, members=tuple(members), provenance="file")


def outcome(read, path):
    """What a reader makes of a file, in comparable form: the code's fields
    with each member's generator rows and pivots, in file order, or the
    parse error's message and line."""
    try:
        C = read(path)
    except ParseError as e:
        return "error", str(e), e.line
    return ("code", C.q, C.n, C.k, C.d, C.provenance,
            [(U.q, U.n, U.k, U.gen.packed, U.pivots) for U in C.members])
