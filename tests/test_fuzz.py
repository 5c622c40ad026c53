"""Mutated-file fuzz of the two readers through ``cli.main``.

The files written by ``build --multilevel 1100,0011`` and ``build --fdrmc
F=[1,2,4]`` (both pinned by SHA-256 here) get random byte edits,
truncations, dropped lines and swapped header tokens or values.  Whatever
the bytes, ``check`` and ``audit`` must return 0 or 1, or 2 with a
``line N:`` parse error, and never raise.  ``read_cdc`` must also read each
mutated ``.cdc`` file as the line-by-line oracle reader does.

The arguments of every subcommand are fuzzed the same way, in process:
desk-scale values of each documented option, zero, negative and
non-prime-power orders, and command lines argparse refuses.  Every call
must return 0, 1 or 2, print no traceback and finish within a budget.
"""

import hashlib
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import cdc_oracle
from cdckit.cli import main, read_cdc
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.theorems import EXAMPLES

SEEDS = {
    "check": (["--multilevel", "1100,0011"], "ml.cdc",
              "633d448e60ece46daab0b1c31d7730889ea5dee1ac58a5712a7d7bafaab8f166"),
    "audit": (["--fdrmc", "F=[1,2,4]"], "c.fdrmc",
              "e7dc5f718665bbeb86c2a9d3432fe0f03c53b63a10c5c505a6b7d4f57ec1d32a"),
}
PARSE_ERROR = re.compile(r"parse error: line [0-9]+: ")

# anywhere in the file: a byte, biased towards the ones the formats use;
# a cut; a dropped line; two header tokens, or only their values, swapped
MUTATION = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 2 ** 16),
              st.one_of(st.sampled_from(b"0123456789= \n"), st.integers(0, 255))),
    st.tuples(st.just("cut"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("drop"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("swap"), st.integers(0, 15), st.integers(0, 15),
              st.booleans()))


def mutate(data, ops):
    for op, *args in ops:
        if op == "byte" and data:
            i = args[0] % len(data)
            data = data[:i] + bytes([args[1]]) + data[i + 1:]
        elif op == "cut":
            data = data[:args[0] % (len(data) + 1)]
        elif op == "drop":
            lines = data.split(b"\n")
            del lines[args[0] % len(lines)]
            data = b"\n".join(lines)
        elif op == "swap":
            head, nl, body = data.partition(b"\n")
            tokens = head.split(b" ")
            i, j = args[0] % len(tokens), args[1] % len(tokens)
            a, b = tokens[i].partition(b"="), tokens[j].partition(b"=")
            if args[2] and a[1] and b[1]:  # swap the values only
                tokens[i], tokens[j] = a[0] + b"=" + b[2], b[0] + b"=" + a[2]
            else:
                tokens[i], tokens[j] = tokens[j], tokens[i]
            data = b" ".join(tokens) + nl + body
    return data


@pytest.mark.parametrize("command", sorted(SEEDS))
def test_mutated_files_keep_the_exit_code_contract(tmp_path, capsys, command):
    build, name, sha = SEEDS[command]
    seed = tmp_path / name
    assert main(["build", *build, "-q", "2", "--delta", "2",
                 "--out", str(seed)]) == 0
    original = seed.read_bytes()
    assert hashlib.sha256(original).hexdigest() == sha
    path = tmp_path / f"mutated-{name}"

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=4))
    def check(ops):
        path.write_bytes(mutate(original, ops))
        capsys.readouterr()
        code = main([command, "--in", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1) or code == 2 and PARSE_ERROR.match(err), (code, err)
    check()


@pytest.mark.parametrize("q", [2, 3, 9])
def test_mutated_cdc_files_read_as_the_oracle_reads(tmp_path, q):
    """The same code, in the same order, or the same parse error message at
    the same line."""
    build, name, _ = SEEDS["check"]
    seed = tmp_path / name
    assert main(["build", *build, "-q", str(q), "--delta", "2",
                 "--out", str(seed)]) == 0
    original = seed.read_bytes()
    path = tmp_path / f"mutated-{name}"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=4))
    def check(ops):
        path.write_bytes(mutate(original, ops))
        assert (cdc_oracle.outcome(read_cdc, str(path))
                == cdc_oracle.outcome(cdc_oracle.read_cdc, str(path)))
    check()


# ---------------------------------------------------------------------------
# the documented arguments of every subcommand, in process
# ---------------------------------------------------------------------------

# mostly a supported order; else a prime power outside them, zero, a
# negative or a non-prime-power
ORDERS = st.tuples(st.integers(0, 3), st.sampled_from(SUPPORTED_ORDERS),
                   st.sampled_from([-2, 0, 1, 6, 10, 11, 12, 16])).map(
    lambda t: t[2] if t[0] == 3 else t[1])
SMALL = st.integers(-1, 10)
SOURCES = st.sampled_from(["auto", "auto", "th41", "th41", "th44", "th44",
                           "table11", "example:3",
                           "example:4", "example:5", "example:8", "example:9",
                           "th43", ""])
# (n, d, k): the examples' and some registry rows, the shapes th41 and th44
# take (d even, n >= 2k), or anything near them
AMBIENTS = st.one_of(
    st.sampled_from([(18, 8, 9), (19, 8, 9), (17, 6, 8), (19, 6, 8), (15, 6, 6),
                     (16, 6, 7), (20, 8, 9)]),
    st.builds(lambda k, h, extra: (2 * k + extra, 2 * h, k),
              st.integers(1, 10), st.integers(1, 4), st.integers(0, 4)),
    st.tuples(st.integers(-2, 21), SMALL, SMALL))
DELTAS = st.sampled_from([1, 1, 1, 2, 2, 3, -1, 0, 4])
BUDGET_S = 10  # per call; every call here takes well under a second


def run_main(argv, capsys):
    """``cli.main``'s exit code, or argparse's; the call must not raise,
    print a traceback or take longer than ``BUDGET_S``."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses the command line
        code = e.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert elapsed < BUDGET_S, (argv, elapsed)
    return code


@st.composite
def bound_args(draw):
    source = draw(SOURCES)
    name = source.removeprefix("example:")
    n, d, k = (EXAMPLES[name][1] if name in EXAMPLES and draw(st.booleans())
               else draw(AMBIENTS))
    return ["bound", "-q", str(draw(ORDERS)), "-n", str(n), "-d", str(d),
            "-k", str(k), "--source", source]


@st.composite
def rankdist_args(draw):
    return ["rankdist", "-q", str(draw(ORDERS)), "-m", str(draw(SMALL)),
            "-n", str(draw(SMALL)), "--delta", str(draw(DELTAS))]


@st.composite
def table11_args(draw):
    return (["table11", "--format", draw(st.sampled_from(["text", "csv"]))]
            + draw(st.sampled_from([[], ["--consistency"]])))


@st.composite
def multilevel_args(draw):
    """Up to three vectors of one length and weight, at most 6 long at
    q <= 3 and 4 above, so that a build stays desk scale (at most 3^9
    codewords per vector at q = 3, 9^4 at q = 9); now and then a vector of
    another length or weight, or a stray character."""
    q = draw(ORDERS)
    n = draw(st.integers(2, 6 if q <= 3 else 4))
    weight = draw(st.integers(1, n))
    vectors = draw(st.lists(st.permutations("1" * weight + "0" * (n - weight)),
                            min_size=1, max_size=3, unique_by=tuple))
    odd = draw(st.sampled_from([[], [], [], ["10"], ["0120"], [""], ["1 1"]]))
    return ["build", "--multilevel", ",".join(map("".join, vectors + odd)),
            "-q", str(q), "--delta", str(draw(DELTAS))]


@st.composite
def fdrmc_args(draw):
    """Diagram literals of up to four columns of height up to 4, mostly
    ascending, or malformed ones."""
    cols = ",".join(map(str, draw(st.lists(st.integers(0, 4), max_size=4))))
    asc = ",".join(map(str, sorted(draw(st.lists(st.integers(1, 4), min_size=1,
                                                  max_size=4)))))
    literal = draw(st.sampled_from([f"F=[{asc}]", f"F=[{asc}]", f"[{asc}]",
                                    f"F=[{cols}]", "F=[1,,2]", "F=1,2", "F=[a]",
                                    "F=[-1,2]", ""]))
    return ["build", "--fdrmc", literal, "-q", str(draw(ORDERS)),
            "--delta", str(draw(DELTAS))]


# command lines argparse refuses: unknown commands, a missing or
# non-integer value, a missing required option, an unknown choice
MALFORMED = st.sampled_from([
    [], ["nosuch"], ["bound", "-q", "x", "-n", "4", "-d", "2", "-k", "2"],
    ["bound", "-q", "2", "-n", "2.5", "-d", "2", "-k", "2"], ["rankdist", "-m"],
    ["build", "--multilevel", "1100,0011", "-q", "2"], ["check"],
    ["check", "--in", "x", "--mode", "fast"], ["table11", "--format", "tsv"],
    ["audit", "--in"]])


CHECK_OPTIONS = st.tuples(st.sampled_from(["exhaustive", "sampled"]),
                          st.integers(-1, 3), st.booleans())


@pytest.mark.parametrize("args", [bound_args(), rankdist_args(), table11_args(),
                                  MALFORMED],
                         ids=["bound", "rankdist", "table11", "malformed"])
def test_arguments_keep_the_exit_code_contract(capsys, args):
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(args)
    def check(argv):
        run_main(argv, capsys)
    check()


@pytest.mark.parametrize("args, reader", [(multilevel_args, "check"),
                                          (fdrmc_args, "audit")],
                         ids=["multilevel-check", "fdrmc-audit"])
def test_builds_and_their_files_keep_the_exit_code_contract(tmp_path, capsys,
                                                            args, reader):
    """Each build's file, or its absence, then goes to ``check`` (with a
    drawn mode, seed and ``--kv``) or ``audit``."""
    out = tmp_path / "built"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(args(), CHECK_OPTIONS)
    def check(argv, options):
        out.unlink(missing_ok=True)
        built = run_main(argv + ["--out", str(out)], capsys) == 0
        assert built == out.exists(), argv
        mode, seed, kv = options
        extra = ["--mode", mode, "--seed", str(seed)] + ["--kv"] * kv
        run_main([reader, "--in", str(out)] + (extra if reader == "check" else []),
                 capsys)
    check()
