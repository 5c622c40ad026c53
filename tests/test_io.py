"""Whole-code file passes and placement against their per-codeword oracles.

``cli.write_cdc`` must write the bytes of the row-by-row writer and
``cli.read_cdc`` must read what the line-by-line reader reads, or fail
with its message at its line, for every supported q and for every layout
the reader accepts.  ``cdc._place`` must place what eliminating each
generator on its own places, in the same order.  Build, file and
certificate work on a code's packed rows and never make its ``members``.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import cdc_oracle
from cdckit import cli
from cdckit.cdc import (Cdc, CwcSet, IdVec, build_coset_cdc_lists,
                        coset_construction, ferrers_of, lift_on_vector,
                        multilevel)
from cdckit.ferrers import optimal_fdrmc
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import (MatGF, Subspace, _eliminate, _non_rref, _rref_rows,
                           lanes, rref)
from cdckit.rankmetric import gabidulin, lift
from cdckit.theorems import thm31_build, thm32_build
from cdckit.verify import brute_force_optimum, check_cdc
from test_pins import COMBINED_SHA, sha256

EXAMPLES = settings(max_examples=12, derandomize=True, deadline=None)


@st.composite
def codes(draw, q):
    """Up to 12 distinct k-dimensional subspaces of GF(q)^n, n <= 6, each
    spanned by random rows (drawn again until independent)."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    members = {}
    for _ in range(draw(st.integers(0, 12))):
        rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                      max_size=n), min_size=k, max_size=k))
        R, pivots = rref(MatGF(q, rows))
        if len(pivots) == k:
            U = Subspace.from_matrix(R)
            members[U] = U
    return Cdc(q=q, n=n, k=k, d=draw(st.integers(1, 2 * k)),
               members=tuple(members))


def layouts(text):
    """The file text, and layouts of it that the reader accepts too: CRLF
    line ends, whitespace around every line, runs of blank lines, blocks
    with no blank line between them, and no final newline."""
    head, _, body = text.partition("\n")
    lines = body.split("\n")
    yield "as written", text
    yield "crlf", text.replace("\n", "\r\n")
    yield "whitespace", head + "\n" + "\n".join(f" \t{s}  " for s in lines)
    yield "blank runs", head + "\n\n\n" + body.replace("\n\n", "\n \n\t\n\n")
    yield "no blanks", head + "\n" + "\n".join(s for s in lines if s)
    yield "no final newline", text.rstrip("\n")


def check_round_trip(tmp_path, code):
    new, old = tmp_path / "new.cdc", tmp_path / "old.cdc"
    cli.write_cdc(code, str(new))
    cdc_oracle.write_cdc(code, str(old))
    assert new.read_bytes() == old.read_bytes()
    expected = cdc_oracle.outcome(cdc_oracle.read_cdc, str(old))
    assert expected[0] == "code"
    for name, text in layouts(new.read_text()):
        old.write_text(text, newline="")
        assert (cdc_oracle.outcome(cli.read_cdc, str(old))
                == cdc_oracle.outcome(cdc_oracle.read_cdc, str(old))
                == expected), name


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_random_codes_round_trip_as_the_oracles_do(tmp_path, q):
    @EXAMPLES
    @given(codes(q))
    def check(code):
        check_round_trip(tmp_path, code)
    check()


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_multilevel_codes_round_trip_as_the_oracles_do(tmp_path, q):
    vectors = [IdVec.from_string(s) for s in ("1100", "0011")]
    code = multilevel([(v, optimal_fdrmc(ferrers_of(v).diagram, 2, q))
                       for v in vectors], 2)
    check_round_trip(tmp_path, code)


VALID = "1000\n0100\n"
NOT_RREF = "1100\n0100\n"
# (name, q, body after the header "cdc v1 q=q n=4 k=2 d=2 count=2", the
# expected error): the first error in file order wins
FIRST_ERRORS = [
    ("non-RREF block before a bad digit", 2, f"\n{NOT_RREF}\n1000\n0120\n",
     "line 3: generator block is not in reduced echelon form"),
    ("bad digit before a non-RREF block", 2, f"\n1000\n0120\n\n{NOT_RREF}",
     "line 4: entry out of range for q=2"),
    ("zero row in block 1, last block truncated", 3, "\n1000\n0000\n\n0010\n",
     "line 3: generator rows are linearly dependent"),
    ("blank line inside a block", 5, f"\n{VALID}\n1000\n\n0100\n",
     "line 7: block has 1 of 2 rows"),
    ("short row after a valid block", 9, f"\n{VALID}\n1000\n010\n",
     "line 7: expected 4 digits"),
    ("truncated last block", 4, f"\n{VALID}\n0010\n",
     "line 6: truncated block of 1 rows"),
]


@pytest.mark.parametrize("q, body, message",
                         [pytest.param(*case[1:], id=case[0]) for case in FIRST_ERRORS])
def test_first_error_in_file_order(tmp_path, q, body, message):
    f = tmp_path / "bad.cdc"
    f.write_text(f"cdc v1 q={q} n=4 k=2 d=2 count=2\n{body}")
    got = cdc_oracle.outcome(cli.read_cdc, str(f))
    assert got == cdc_oracle.outcome(cdc_oracle.read_cdc, str(f))
    assert got[:2] == ("error", message)


def repeated_rows_code(q):
    """60 codewords from the start of the Grassmannian of GF(q)^5 in RREF
    order: their first rows are a handful of values, repeated."""
    rows = [v for g in islice(_rref_rows(q, 5, 2), 60) for v in g]
    return Cdc(q=q, n=5, k=2, d=2, rows=rows)


def distinct_rows_code(q, rng):
    """40 codewords [I_3 | T] with T random, no row value twice."""
    L, n, rows = lanes(q), 9, {}
    while len(rows) < 120:
        i = len(rows) % 3
        tail = "".join(rng.choice(L.digit_chars) for _ in range(6))
        rows.setdefault(L.pack("100"[-i:] + "100"[:-i] + tail), None)
    return Cdc(q=q, n=n, k=3, d=2, rows=list(rows))


def walked_rows(raw, q, n, k):
    """The rows as the line-by-line walk reads them."""
    return [v for start, block in cli._read_blocks(raw, q, n, k)
            for v in cli._parse_block(q, n, block, start)]


def malformed(text, n, q):
    """(name, text) variants of a valid file, each with one error."""
    head, *lines = text.split("\n")
    rows = [i for i, s in enumerate(lines) if s]
    i = rows[len(rows) // 2]  # a row in the middle of the file
    first = lines[i - 1] == ""  # it begins its block

    def edit(j, *new):
        return "\n".join([head, *lines[:j], *new, *lines[j + 1:]])
    yield "blank line inside a block", edit(i, *((lines[i], "") if first
                                                  else ("", lines[i])))
    yield "a row of n + 1 digits", edit(i, lines[i] + "0")
    yield "a row of n - 1 digits", edit(i, lines[i][1:])
    yield "a digit of q", edit(i, str(q) + lines[i][1:])
    yield "an all-zero row", edit(i, "0" * n)
    j = i + 1 if first else i - 1  # another row of the same block
    yield "dependent rows", edit(i, lines[j])
    a, b = sorted((i, j))
    yield "rows swapped", "\n".join([head, *lines[:a], lines[b], lines[a],
                                     *lines[b + 1:]])
    yield "a valid row alone between blocks", edit(
        rows[0] - 1, "", lines[rows[0]], "")
    yield "a truncated last block", "\n".join([head, *lines[:rows[-1]]])


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_reader_matches_the_walk_on_repeated_and_distinct_rows(tmp_path, q):
    """Whole-file reads of files with heavily repeated and with all-distinct
    rows, in every layout: the rows the walk reads; one error: the walk's
    message at its line."""
    f = tmp_path / "code.cdc"
    for code in repeated_rows_code(q), distinct_rows_code(q, random.Random(q)):
        cli.write_cdc(code, str(f))
        text, written = f.read_text(), [v for b in sorted(code.blocks()) for v in b]
        varied = "\n".join(s + " " * (i % 3) for i, s in enumerate(text.split("\n")))
        for name, layout in [*layouts(text), ("varied trailing spaces", varied),
                             ("trailing blank lines", text + "\n \n\n")]:
            f.write_text(layout, newline="")
            raw = cli._read_lines(str(f))
            assert cli._read_rows(raw, q, code.n, code.k) \
                == walked_rows(raw, q, code.n, code.k) == written, name
        for name, bad in malformed(text, code.n, q):
            f.write_text(bad.replace("\n", "\r\n"), newline="")
            raw = cli._read_lines(str(f))
            assert cli._read_rows(raw, q, code.n, code.k) is None, name
            got = cdc_oracle.outcome(cli.read_cdc, str(f))
            assert got[0] == "error", name
            assert got == cdc_oracle.outcome(cdc_oracle.read_cdc, str(f)), name


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_lines_match_the_per_row_oracle(q):
    """Rows become the digits of ``cdc_oracle.digits``, one row at a time,
    with and without repeated rows, for every n up to 9 and for n = 0."""
    rng, L = random.Random(q), lanes(q)
    for n in range(10):
        fresh = [L.pack("".join(rng.choice(L.digit_chars) for _ in range(n)))
                 for _ in range(50)]
        for rows in fresh, [rng.choice(fresh[:5]) for _ in range(50)], []:
            assert L.lines(rows, n) == [cdc_oracle.digits(q, v, n) for v in rows]


def eliminate_all(q, n, k, rows):
    """``linalg._non_rref`` declaring every block outside RREF, so that
    ``_place`` eliminates every generator on its own."""
    return list(range(len(rows) // k))


def tiny_lists(q):
    fw = CwcSet(vectors=(IdVec.from_string("1100"),), min_hd=4)
    iv = CwcSet(vectors=(IdVec.from_string("0011", kind="inverse"),), min_hd=4)
    return (build_coset_cdc_lists(fw, 2, 1, q, build=True),
            build_coset_cdc_lists(fw, 2, 1, q, build=True),
            build_coset_cdc_lists(iv, 2, 1, q, r=0, build=True),
            build_coset_cdc_lists(iv, 2, 1, q, build=True))


def constructions(q):
    v = IdVec.from_string("110100")
    yield "lift_on_vector", lambda: lift_on_vector(
        v, optimal_fdrmc(ferrers_of(v).diagram, 2, q))
    vectors = [IdVec.from_string(s) for s in ("1100", "0011")]
    yield "multilevel", lambda: multilevel(
        [(u, optimal_fdrmc(ferrers_of(u).diagram, 2, q)) for u in vectors], 2)
    yield "coset_construction", lambda: coset_construction(
        *tiny_lists(q)[:2], gabidulin(q, 2, 2, 2))
    yield "thm31_build", lambda: thm31_build(*tiny_lists(q))
    if q == 2:  # 542,580 codewords at q = 3
        U1 = Cdc(q=q, n=4, k=4, d=4,
                 members=(Subspace.from_matrix(MatGF.identity(q, 4)),))
        yield "thm32_build", lambda: thm32_build(U1, U1, *tiny_lists(q), r_hat=0)


def members(code):
    return [(U.gen.packed, U.pivots) for U in code.members]


def check_place_matches_eliminating(monkeypatch, builds):
    for name, build in builds:
        placed = build()
        with monkeypatch.context() as m:
            m.setattr("cdckit.cdc._non_rref", eliminate_all)
            eliminated = build()
        assert members(placed) == members(eliminated), name
        assert placed.size, name


@pytest.mark.parametrize("q", [2, 3, 4])
def test_place_matches_eliminating_each_generator(monkeypatch, q):
    check_place_matches_eliminating(monkeypatch, constructions(q))


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_place_matches_eliminating_each_generator_at_larger_q(monkeypatch, q):
    """The 4-bit entries of q = 5, 7, 8 and the 8-bit entries of q = 9, on
    the lift and the multilevel union only: the coset construction alone
    has 390,625 codewords at q = 5."""
    check_place_matches_eliminating(monkeypatch, islice(constructions(q), 2))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inverse_vector_placements_outside_rref_are_eliminated(monkeypatch, q):
    """The inverse-vector lists place generators outside RREF; those are
    eliminated, so the members differ from their generators."""
    outside = []

    def spy(q, n, k, rows):
        bad = _non_rref(q, n, k, rows)
        outside.extend(tuple(rows[i * k:i * k + k]) for i in bad)
        return bad
    monkeypatch.setattr("cdckit.cdc._non_rref", spy)
    iv = CwcSet(vectors=(IdVec.from_string("0011", kind="inverse"),), min_hd=4)
    out = build_coset_cdc_lists(iv, 2, 1, q, build=True)
    assert outside
    got = {U.gen.packed for code in out.codes for U in code.members}
    for rows in outside:
        U = Subspace.from_matrix(MatGF.from_packed(q, 4, rows))
        assert U.gen.packed != rows and U.gen.packed in got


def unbuilt(code):
    """Whether the code's cached ``members`` is still unmade."""
    return "members" not in vars(code)


def eliminated(code):
    """Each codeword's rows and pivots from eliminating its rows on its own."""
    return [(tuple(R), P) for R, P in (_eliminate(code.q, code.n, list(b))
                                       for b in code.blocks())]


def round_trip(tmp_path, code):
    """Write, read and certify code, then check that neither code made its
    members, that the file has the row-by-row writer's bytes, and that the
    members, once made, are the oracles' in order; returns the file."""
    path, oracle_path = tmp_path / "code.cdc", tmp_path / "oracle.cdc"
    cli.write_cdc(code, str(path))
    back = cli.read_cdc(str(path))
    assert check_cdc(back).passed
    assert unbuilt(code) and unbuilt(back)
    cdc_oracle.write_cdc(code, str(oracle_path))
    assert path.read_bytes() == oracle_path.read_bytes()
    assert members(code) == eliminated(code)
    assert back.members == cdc_oracle.read_cdc(str(path)).members
    assert members(back) == eliminated(back)
    return path


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_multilevel_pipeline_never_makes_members(tmp_path, q):
    vectors = [IdVec.from_string(s) for s in ("1100", "0011")]
    code = multilevel([(v, optimal_fdrmc(ferrers_of(v).diagram, 2, q))
                       for v in vectors], 2)
    assert code.size == q ** 2 + 1
    round_trip(tmp_path, code)


def test_combined_pipeline_never_makes_members(tmp_path):
    U1 = Cdc(q=2, n=4, k=4, d=4,
             members=(Subspace.from_matrix(MatGF.identity(2, 4)),))
    code = thm32_build(U1, U1, *tiny_lists(2), r_hat=0)
    assert code.size == 4690
    assert sha256(round_trip(tmp_path, code)) == COMBINED_SHA


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_no_subspace_is_made_on_the_packed_paths(monkeypatch, tmp_path, q):
    """Placement, the file passes, every certificate mode and the clique
    search work on packed rows: none of them constructs a ``Subspace``."""
    made, init = [], Subspace.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    def none_made(name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        assert made == [], name
        return out
    monkeypatch.setattr(Subspace, "__init__", counted)
    vectors = [IdVec.from_string(s) for s in ("1100", "0011")]
    fw = CwcSet(vectors=(vectors[0],), min_hd=4)
    iv = CwcSet(vectors=(IdVec.from_string("0011", kind="inverse"),), min_hd=4)
    none_made("lift", lift, gabidulin(q, 2, 2, 2))
    code = none_made("multilevel", multilevel, [
        (v, optimal_fdrmc(ferrers_of(v).diagram, 2, q)) for v in vectors], 2)
    lists = [none_made("coset lists", build_coset_cdc_lists, cwc, 2, 1, q,
                       r=0, build=True) for cwc in (fw, iv)]
    none_made("coset_construction", coset_construction, *lists, gabidulin(q, 2, 2, 2))
    path = str(tmp_path / "code.cdc")
    none_made("write_cdc", cli.write_cdc, code, path)
    back = none_made("read_cdc", cli.read_cdc, path)
    assert none_made("passing check_cdc", check_cdc, back).passed
    assert none_made("sampled check_cdc", check_cdc, back, mode="sampled",
                     pairs=50).passed
    close = Cdc(q=q, n=3, k=2, d=4, rows=lift(gabidulin(q, 2, 1, 1)).rows)
    assert none_made("failing check_cdc", check_cdc, close).violations
    # on dimension min(k, n - k) = 1 at n = 3, and the (4, 2, 4) search where
    # it takes under a second
    for n in (3, 4) if q <= 4 else (3,):
        assert none_made("brute_force_optimum", brute_force_optimum, q, n, 2, 4) \
            == (1 if n == 3 else q ** 2 + 1)
    if q <= 4:  # the block halves, and at q = 2 the whole combined build
        lists = tiny_lists(q)
        none_made("thm31_build", thm31_build, *lists)
        if q == 2:
            U1 = Cdc(q=q, n=4, k=4, d=4, rows=MatGF.identity(q, 4).packed)
            assert none_made("thm32_build", thm32_build, U1, U1, *lists,
                             r_hat=0).size == 4690
    assert back.members and len(made) == back.size  # the count counts
