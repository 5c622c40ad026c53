"""The subspace-collision certifier against the pairwise oracle.

``check_cdc`` finds violations by hashing shared subspaces, and reads each
violating pair's distance from the number of keys it shares; only where
hashing costs more does it rank pair by pair.  These properties compare
both with ``subspace_distance`` over every pair of random small codes in
every supported field, with duplicates and members that share a subspace
of chosen dimension injected.
"""

import math
import random
from functools import reduce
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from cdckit.cdc import Cdc, IdVec, ferrers_of, multilevel
from cdckit.errors import BadArguments
from cdckit.ferrers import optimal_fdrmc
from cdckit.gf import field_new
from cdckit.linalg import (MatGF, Subspace, _eliminate, _Lanes, _rref_rows,
                           gaussian_binomial, lanes, rank, subspace_distance)
from cdckit.rankmetric import gabidulin, lift
from cdckit.verify import (EXHAUSTIVE_PAIR_CAP, _certify, _key_level, _keys,
                           _scan_pairs, _table_entries, brute_force_optimum,
                           check_cdc)

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)
# ambient sizes per field small enough that q^k member vectors stay cheap
MAX_N = {2: 6, 3: 5, 4: 4, 5: 4, 7: 3, 8: 3, 9: 3}


def oracle(code):
    """(minimum distance, violations) over every pair, by rank; the minimum
    is None without a pair."""
    distances = {(i, j): subspace_distance(U, V) for (i, U), (j, V)
                 in combinations(enumerate(code.members), 2)}
    violations = [(i, j, d) for (i, j), d in distances.items() if d < code.d]
    return min(distances.values(), default=None), violations


def rref_rows(rnd, q, n, k):
    """A uniformly chosen pivot set with uniform free entries."""
    pivots = sorted(rnd.sample(range(n), k))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for c in range(p + 1, n):
            if c not in pivots:
                row[c] = rnd.randrange(q)
        rows.append(row)
    return rows


@st.composite
def small_codes(draw, q):
    """A code and whether ``check_cdc`` must refuse it: built from its
    members, from their canonical rows, or from those rows with one block
    broken, though it spans the same subspace (a row scaled by c != 1, two
    rows swapped, one row added to another) or not (a row wider than n)."""
    rnd = draw(st.randoms(use_true_random=False))
    n = rnd.randint(2, MAX_N[q])
    k = rnd.randint(1, n - 1)
    members = list(dict.fromkeys(Subspace(q, n, rref_rows(rnd, q, n, k))
                                 for _ in range(rnd.randint(2, 9))))
    for _ in range(rnd.randint(0, 2)):
        U = rnd.choice(members)
        t = rnd.randint(0, k)  # t = k injects a duplicate
        rows = [list(r) for r in U.gen.data[:t]]
        rows += rref_rows(rnd, q, n, k)[:k - t]
        if rank(MatGF(q, rows)) == k:
            members.insert(rnd.randint(0, len(members)),
                           Subspace(q, n, rows))
    d = rnd.randint(1, 2 * k + 1)
    how = rnd.choice(("members", "rows", "broken"))
    if how == "members":
        return Cdc(q=q, n=n, k=k, d=d, members=tuple(members)), False
    blocks = [[list(r) for r in U.gen.data] for U in members]
    wide = None
    if how == "broken":
        F, b = field_new(q), rnd.randrange(len(blocks))
        block = blocks[b]
        i, j = rnd.sample(range(k), 2) if k > 1 else (0, 0)
        breaks = ["wide"] + ["scale"] * (q > 2) + ["swap", "add"] * (k > 1)
        kind = rnd.choice(breaks)
        if kind == "scale":
            c = rnd.randrange(2, q)
            block[i] = [F.mul(c, x) for x in block[i]]
        elif kind == "swap":
            block[i], block[j] = block[j], block[i]
        elif kind == "add":
            block[i] = [F.add(x, y) for x, y in zip(block[i], block[j])]
        else:
            wide = b * k + i
    rows = [v for b in blocks for v in MatGF(q, b).packed]
    if wide is not None:  # an entry left of column 0
        rows[wide] |= 1 << n * lanes(q).W
    return Cdc(q=q, n=n, k=k, d=d, rows=rows), how == "broken"


# non-canonical codes that the distance keys alone pass at min_distance=2:
# two blocks spanning one plane (distance 0), blocks 100 and 200 at q = 3
# (one point), and a 5-bit row in a 4-column code
REFUSED = {2: [Cdc(2, 4, 2, 2, rows=(8, 4, 12, 4)), Cdc(2, 4, 1, 2, rows=(16, 8))],
           3: [Cdc(3, 3, 1, 2, rows=(256, 512))]}


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_certifier_matches_pairwise_oracle(q):
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(small_codes(q))
    def check(drawn):
        code, refused = drawn
        if refused:
            for mode in ("exhaustive", "sampled"):
                with pytest.raises(BadArguments):
                    check_cdc(code, mode)
            return
        rep = check_cdc(code)
        found, violations = oracle(code)
        assert rep.min_distance_found == found
        assert rep.violations == violations
        assert rep.passed == (not violations)
        assert rep.pairs_checked == len(code.members) * (
            len(code.members) - 1) // 2
        if len(code.members) > 1:  # both ways: hashing, and pair by pair
            for budget in (math.inf, 0):
                assert _certify(code, budget) == (
                    found, violations)
    for code in REFUSED.get(q, ()):
        check = example((code, True))(check)
    check()


def test_certifier_reports_every_pair_of_a_repeated_codeword():
    code = lift(gabidulin(2, 2, 2, 2))
    members = code.members
    tripled = Cdc(q=2, n=4, k=2, d=4,
                  members=(members[1],) + members + (members[1],))
    last = len(tripled.members) - 1
    rep = check_cdc(tripled)
    assert rep.violations == oracle(tripled)[1]
    assert rep.min_distance_found == 0
    assert [(0, 2, 0), (0, last, 0), (2, last, 0)] == [
        v for v in rep.violations if v[2] == 0]


def test_few_codewords_of_large_dimension_are_checked_pair_by_pair():
    # hashing would build [10, 6]_2 = 53,743,987 keys per codeword for one
    # pair; the pairwise check takes milliseconds
    q, n, k = 2, 20, 10

    def span(rows):
        return Subspace(q, n, [[int(c == r) for c in range(n)] for r in rows])

    apart = Cdc(q=q, n=n, k=k, d=10,
                members=(span(range(10)), span(range(10, 20))))
    rep = check_cdc(apart)
    assert rep.passed and rep.min_distance_found == 20
    assert rep.pairs_checked == 1
    close = Cdc(q=q, n=n, k=k, d=10,
                members=(span(range(10)), span(range(4, 14)), span(range(10))))
    rep = check_cdc(close)
    assert rep.violations == [(0, 1, 8), (0, 2, 0), (1, 2, 8)]
    assert rep.min_distance_found == 0 and rep.pairs_checked == 3


def test_sampled_pairs_are_distinct():
    code = lift(gabidulin(2, 3, 3, 2))  # 64 codewords, 2016 pairs
    strict = Cdc(q=2, n=6, k=3, d=7, members=code.members)  # every pair fails
    rep = check_cdc(strict, mode="sampled", seed=7, pairs=1500)
    pairs = [(i, j) for i, j, _ in rep.violations]
    assert rep.pairs_checked == len(pairs) == len(set(pairs)) == 1500
    assert all(0 <= i < j < 64 for i, j in pairs)
    again = check_cdc(strict, mode="sampled", seed=7, pairs=1500)
    assert again.violations == rep.violations
    full = check_cdc(strict, mode="sampled", seed=7, pairs=10 ** 6)
    assert sorted(v[:2] for v in full.violations) == list(
        combinations(range(64), 2))


def test_hashing_is_used_whenever_its_tables_fit_the_cap(monkeypatch):
    # 64 codewords: 2,240 table entries against 2,016 pairs, both far below
    # the cap, so a code is certified without comparing a pair, whether it
    # passes or fails (declared d = 5 and 7: t0 = 1 and t0 = 0)
    code = lift(gabidulin(2, 3, 3, 2))
    assert 2016 < _table_entries(code) < EXHAUSTIVE_PAIR_CAP
    failing = [Cdc(q=2, n=6, k=3, d=d, members=code.members) for d in (5, 7)]
    expected = [scan_all(c) for c in failing]
    assert [len(v) for _, v in expected] == [1568, 2016]

    def no_pairs(U, V):
        raise AssertionError("compared a pair")

    monkeypatch.setattr("cdckit.verify._scan_pairs", no_pairs)
    rep = check_cdc(code)
    assert rep.passed and rep.min_distance_found == 4
    assert rep.pairs_checked == 2016
    for c, (found, violations) in zip(failing, expected):
        rep = check_cdc(c)
        assert rep.min_distance_found == found == 4
        assert rep.violations == violations
        assert rep.pairs_checked == 2016


# Paths no example code reaches: keys of several 64-bit words, collisions
# among codewords past the first 64 lanes, and t0 = 0.  Each is checked
# against the pairwise oracle ``_scan_pairs`` over every pair.


def scan_all(code):
    """(minimum distance, violations) over every pair, by ``_scan_pairs``."""
    pairs = combinations(range(len(code.members)), 2)
    return _scan_pairs(code, pairs)


def random_subspace(rnd, q, n, k, rows=()):
    """A random k-subspace of GF(q)^n containing the given independent
    rows; the other rows are uniform, drawn again until independent."""
    while True:
        full = [list(r) for r in rows]
        full += [[rnd.randrange(q) for _ in range(n)]
                 for _ in range(k - len(full))]
        if rank(MatGF(q, full)) == k:
            return Subspace(q, n, full)


def sharing(rnd, U, s):
    """A random codeword that contains U's first s generator rows."""
    return random_subspace(rnd, U.q, U.n, U.k, U.gen.data[:s])


def assert_certified_as_oracle(code):
    assert _table_entries(code) <= EXHAUSTIVE_PAIR_CAP
    found, violations = scan_all(code)
    rep = check_cdc(code)
    assert (rep.min_distance_found, rep.violations) == (found, violations)
    return rep


@pytest.mark.parametrize("q, n", [(9, 8), (2, 70)])
def test_keys_wider_than_one_word(q, n):
    rnd = random.Random(q * 100 + n)
    k, d = 3, 4  # t0 = 2 row fields of n entries
    assert _key_level(k, d) * n * lanes(q).W > 64
    members = [random_subspace(rnd, q, n, k) for _ in range(40)]
    members[30] = sharing(rnd, members[20], 1)
    rep = assert_certified_as_oracle(Cdc(q=q, n=n, k=k, d=d,
                                         members=tuple(members)))
    assert rep.passed and rep.min_distance_found == 4  # from the step-down
    members[35] = sharing(rnd, members[3], 2)
    members[38] = sharing(rnd, members[3], 2)
    rep = assert_certified_as_oracle(Cdc(q=q, n=n, k=k, d=d,
                                         members=tuple(members)))
    assert [v[:2] for v in rep.violations] == [(3, 35), (3, 38), (35, 38)]


@pytest.mark.parametrize("q, n", [(2, 70), (9, 9)])
def test_rows_wider_than_one_word_that_differ_only_in_their_top_word(q, n):
    """Row entries past the last 64 bits go into the lane too: two lines
    whose rows end in the same 64 bits are still two codewords."""
    tail = "1" + "".join(str(random.Random(n).randrange(q)) for _ in range(n - 2))
    rows = [lanes(q).pack("1" + tail), lanes(q).pack("0" + tail)]
    assert n * lanes(q).W > 64 and rows[0] % 2 ** 64 == rows[1] % 2 ** 64
    rep = check_cdc(Cdc(q=q, n=n, k=1, d=2, rows=rows))
    assert rep.passed and rep.min_distance_found == 2


def test_only_collision_is_between_the_last_two_of_many_codewords():
    rnd = random.Random(3)
    q, n, k = 2, 16, 3
    members = [random_subspace(rnd, q, n, k) for _ in range(99)]
    members.append(sharing(rnd, members[-1], 2))
    rep = assert_certified_as_oracle(Cdc(q=q, n=n, k=k, d=4,
                                         members=tuple(members)))
    assert [v[:2] for v in rep.violations] == [(98, 99)]


def test_step_down_collision_beyond_the_first_prefix():
    rnd = random.Random(4)
    q, n, k = 2, 24, 3
    members = [random_subspace(rnd, q, n, k) for _ in range(150)]
    members[140] = sharing(rnd, members[10], 1)
    close = [(i, j) for (i, U), (j, V) in combinations(enumerate(members), 2)
             if subspace_distance(U, V) < 2 * k]
    assert close == [(10, 140)]  # past the prefixes of 64 and 128
    rep = assert_certified_as_oracle(Cdc(q=q, n=n, k=k, d=4,
                                         members=tuple(members)))
    assert rep.passed and rep.min_distance_found == 4


@pytest.mark.parametrize("q, n, k", [(2, 4, 2), (3, 5, 2), (2, 70, 3),
                                     (9, 8, 3)])
def test_distance_above_2k_makes_every_pair_a_violation(q, n, k):
    rnd = random.Random(n)
    members = list(dict.fromkeys(random_subspace(rnd, q, n, k)
                                 for _ in range(12)))
    assert _key_level(k, 2 * k + 1) == 0
    rep = assert_certified_as_oracle(Cdc(q=q, n=n, k=k, d=2 * k + 1,
                                         members=tuple(members)))
    assert len(rep.violations) == len(members) * (len(members) - 1) // 2


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_each_key_is_the_rref_rows_of_c_times_g(q):
    """Every key ``_keys(code, t)`` yields for codeword G is the t rows of
    C G, row r in row field r, for each RREF t x k matrix C in
    ``_rref_rows`` order: C G formed here by scaling and summing the rows
    of G, and checked to be in RREF of rank t by ``_eliminate``.  At n = 4
    and at one row field past 64 bits, so keys of one 64-bit word and of
    several are both read."""
    L, rnd, k, several = lanes(q), random.Random(q), 3, set()
    for n in (4, 64 // L.W + 1):
        width = n * L.W
        code = Cdc(q=q, n=n, k=k, d=2, members=tuple(
            random_subspace(rnd, q, n, k) for _ in range(rnd.randint(5, 12))))
        for t in range(1, k + 1):
            Cs = list(_rref_rows(q, k, t))
            assert len(set(Cs)) == len(Cs) == gaussian_binomial(k, t, q)
            words = -(-t * width // 64)
            several.add(words > 1)
            for C, keys in zip(Cs, _keys(code, t), strict=True):
                rows, pivots = _eliminate(q, k, list(C))
                assert rows == list(C) and len(pivots) == t
                for G, key in zip(code.blocks(), keys, strict=True):
                    CG = [reduce(lambda a, b: L.sums([a], [b], n)[0], (
                        L.scale(L.elem[c >> (k - 1 - j) * L.W & L.emask], g)
                        for j, g in enumerate(G))) for c in C]
                    rows, pivots = _eliminate(q, n, CG)
                    assert rows == CG and len(pivots) == t
                    wide = sum(v << r * width for r, v in enumerate(CG))
                    split = tuple(wide >> 64 * o & (1 << 64) - 1
                                  for o in range(words))
                    assert key == (split[0] if words == 1 else split)
    assert several == {False, True}


def parent_table_entries(code):
    """The earlier estimate, kept as a bound: t row fields of q^k vectors
    and [k, t]_q keys per codeword and level t <= max(t0, 1)."""
    q, k, t0 = code.q, code.k, _key_level(code.k, code.d)
    return code.size * sum(t * q ** k + gaussian_binomial(k, t, q)
                           for t in range(1, min(max(t0, 1), k) + 1))


def test_the_q9_multilevel_code_is_certified_by_hashing(monkeypatch):
    """The 738-codeword code of 1011,1110 at q = 9, delta = 1 hashes, with
    the report the pair-by-pair ranking gave; the estimate counts the
    [k, 1]_q points a row field is read from, never more than the q^k
    vectors the earlier estimate counted."""
    for q in SUPPORTED_Q:
        for k in range(1, 7):
            units = [1 << (k - 1 - i) * lanes(q).W for i in range(k)]
            for d in range(1, 2 * k + 2):
                one = Cdc(q=q, n=k, k=k, d=d, rows=units)
                assert _table_entries(one) <= parent_table_entries(one)
    ids = [IdVec.from_string(v) for v in ("1011", "1110")]
    code = multilevel([(v, optimal_fdrmc(ferrers_of(v).diagram, 1, 9))
                       for v in ids], 1)
    assert _table_entries(code) == 538002 < EXHAUSTIVE_PAIR_CAP
    assert parent_table_entries(code) == 3363066

    def no_pairs(code, pairs):
        raise AssertionError("compared a pair")

    monkeypatch.setattr("cdckit.verify._scan_pairs", no_pairs)
    assert check_cdc(code).summary() == (
        "PASS (4,738,2,3)_9-CDC mode=exhaustive min_distance=2 declared=2 "
        "pairs=271953 violations=0")


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_the_certifier_makes_no_matrix(monkeypatch, q):
    """Passing, failing and t0 = 0 certificates and the clique search read
    each C row as a point by its packed value: no ``MatGF`` is made and no
    row is turned into digits."""
    rows = [v for g in islice(_rref_rows(q, 4, 2), q + 3) for v in g]
    codes = [Cdc(q=q, n=4, k=2, d=d, rows=rows)
             for d in (2, 4, 5)]  # t0 = 2, 1 and 0
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(MatGF, "__init__", counted("__init__", MatGF.__init__))
    for name in ("from_packed", "unflatten"):
        monkeypatch.setattr(MatGF, name, classmethod(counted(
            name, getattr(MatGF, name).__func__)))
    monkeypatch.setattr(_Lanes, "lines", counted("lines", _Lanes.lines))
    reports = [check_cdc(code) for code in codes]
    assert [r.passed for r in reports] == [True, False, False]
    assert brute_force_optimum(q, 3, 2, 4) == 1
    if q <= 5:  # q >= 7 has more than GRASSMANNIAN_CAP lines
        assert brute_force_optimum(q, 4, 2, 4) == q ** 2 + 1
    assert calls == []
    MatGF.unflatten(q, 1, 1, 1)
    assert calls == ["unflatten", "from_packed"]  # the count counts
