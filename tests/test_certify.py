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
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cdckit.cdc import Cdc
from cdckit.linalg import MatGF, Subspace, lanes, rank, subspace_distance
from cdckit.rankmetric import gabidulin, lift
from cdckit.verify import (EXHAUSTIVE_PAIR_CAP, _certify, _key_level,
                           _scan_pairs, _table_entries, check_cdc)

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
    return Cdc(q=q, n=n, k=k, d=d, members=tuple(members))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_certifier_matches_pairwise_oracle(q):
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(small_codes(q))
    def check(code):
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
    # 64 codewords: 2,432 table entries against 2,016 pairs, both far below
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
