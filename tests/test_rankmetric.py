from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cdckit import rankmetric
from cdckit.errors import BadArguments, BadShape, TooLargeToEnumerate
from cdckit.ferrers import th43_optimal_fdrmc
from cdckit.gf import SUPPORTED_ORDERS, field_new
from cdckit.linalg import MatGF, rank
from cdckit.rankmetric import (LinearMatrixCode, MatrixSet, gabidulin,
                               grmc_lower_bound, lift, rank_distribution, restrict_ranks)
from cdckit.verify import check_cdc


def rank_census(code):
    census = {}
    for W in code.codewords():
        census[rank(W)] = census.get(rank(W), 0) + 1
    return census


def test_gabidulin_3x3():
    g = gabidulin(2, 3, 3, 2)
    assert g.dim == 6 and g.size == 64
    census = rank_census(g)
    assert min(r for r in census if r > 0) == 2


def test_gabidulin_2x2():
    g = gabidulin(2, 2, 2, 2)
    words = list(g.codewords())
    assert len(words) == 4
    assert all(rank(W) == 2 for W in words if not W.is_zero())


def test_gabidulin_bad_shape():
    with pytest.raises(BadShape):
        gabidulin(2, 3, 3, 4)


def test_gabidulin_wide_shape_via_transpose():
    g = gabidulin(2, 2, 4, 2)
    assert (g.m, g.n) == (2, 4)
    assert g.dim == 4 * (2 - 2 + 1)
    census = rank_census(g)
    assert min(r for r in census if r > 0) == 2


def test_rank_distribution_census():
    # full exhaustive cross-check for both code families at 3x3
    g2 = rank_census(gabidulin(2, 3, 3, 2))
    assert rank_distribution(2, 3, 3, 2, 2) == g2[2] == 49
    assert rank_distribution(2, 3, 3, 2, 3) == g2[3] == 14
    g3 = rank_census(gabidulin(2, 3, 3, 3))
    assert rank_distribution(2, 3, 3, 3, 3) == g3[3] == 7
    assert 1 + 49 + 14 == 64


def test_rank_distribution_conventions():
    assert rank_distribution(2, 3, 3, 2, 0) == 1
    assert rank_distribution(2, 3, 3, 2, 1) == 0
    with pytest.raises(Exception):
        rank_distribution(2, 3, 3, 2, 4)


def test_rank_distribution_rejects_a_delta_without_an_mrd_family():
    # no MRD family: the census at delta = 0 would sum to 4,089 of 512 matrices
    for delta in (0, -1, 4):
        with pytest.raises(BadArguments, match="delta outside"):
            rank_distribution(2, 3, 3, delta, 0)
        with pytest.raises(BadArguments, match="delta outside"):
            rank_distribution(2, 3, 3, delta, 3)


def test_rank_distribution_sum_identity_grid():
    for q in (2, 3):
        for m in range(1, 7):
            for n in range(1, 7):
                for delta in range(1, min(m, n) + 1):
                    total = sum(rank_distribution(q, m, n, delta, r)
                                for r in range(min(m, n) + 1))
                    assert total == q ** (max(m, n) * (min(m, n) - delta + 1)), \
                        (q, m, n, delta)


def test_grmc_lower_bound_branches():
    assert grmc_lower_bound(2, 3, 3, 2, 0, 0) == 1
    # census branch equals 1 + sum of the distribution
    assert grmc_lower_bound(2, 9, 9, 4, 0, 5) == \
        1 + rank_distribution(2, 9, 9, 4, 4) + rank_distribution(2, 9, 9, 4, 5)
    assert grmc_lower_bound(2, 9, 9, 4, 4, 5) == \
        rank_distribution(2, 9, 9, 4, 4) + rank_distribution(2, 9, 9, 4, 5)
    # quotient branch; 7 is also the exact optimum (frozen clique search)
    assert grmc_lower_bound(2, 3, 3, 2, 0, 1) == 7


def test_restrict_ranks():
    g = gabidulin(2, 3, 3, 2)
    assert restrict_ranks(g, 2).size == 50
    assert restrict_ranks(g, 3).size == 64
    only_zero = restrict_ranks(g, 0)
    assert only_zero.size == 1 and only_zero.members[0].is_zero()


def test_restrict_ranks_cap():
    g = gabidulin(2, 5, 5, 1)  # dimension 25: too large to enumerate
    with pytest.raises(TooLargeToEnumerate):
        restrict_ranks(g, 1)


def test_lift_tiny_mrd():
    code = lift(gabidulin(2, 2, 2, 2))
    assert (code.n, code.size, code.d, code.k) == (4, 4, 4, 2)
    rep = check_cdc(code)
    assert rep.passed and rep.min_distance_found == 4


def test_lift_zero_code():
    zero = LinearMatrixCode(2, 2, 3, (), 1)
    code = lift(zero)
    assert code.size == 1
    gen = code.members[0].gen
    assert gen.data == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


def test_lift_3x3_exact_distance():
    code = lift(gabidulin(2, 3, 3, 2))
    assert (code.n, code.size, code.d, code.k) == (6, 64, 4, 3)
    rep = check_cdc(code)
    assert rep.passed and rep.min_distance_found == 4
    assert rep.pairs_checked == 64 * 63 // 2


def test_lift_right_side():
    code = lift(gabidulin(2, 2, 2, 2), side="right")
    assert code.size == 4
    assert check_cdc(code).min_distance_found == 4


def test_lift_checks_side_before_enumerating():
    with pytest.raises(BadArguments, match="side"):
        lift(gabidulin(2, 5, 5, 1, verify=False), side="x")  # 2^25 codewords


# every (m, n, delta) with at most 2^14 codewords, per field order
CENSUS_CODES = {q: [(m, n, d) for m in range(1, 6) for n in range(1, 6)
                    for d in range(1, min(m, n) + 1)
                    if q ** (max(m, n) * (min(m, n) - d + 1)) <= 2 ** 14]
                for q in SUPPORTED_ORDERS}


@pytest.mark.parametrize("q", sorted(CENSUS_CODES))
def test_rank_distribution_matches_the_enumerated_census(q):
    """Gabidulin 1985's rank distribution of an MRD code against the ranks
    of the enumerated codewords."""
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(st.sampled_from(CENSUS_CODES[q]))
    def check(shape):
        m, n, delta = shape
        census = Counter(gabidulin(q, m, n, delta).ranks)
        assert {r: rank_distribution(q, m, n, delta, r)
                for r in range(min(m, n) + 1)} == {
            r: census[r] for r in range(min(m, n) + 1)}
    check()


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("m,n,delta", [(2, 2, 1), (3, 2, 2), (2, 3, 2)])
def test_ranks_match_the_rank_of_each_codeword(q, m, n, delta):
    """Ranks read off the packed words equal the rank of every codeword
    matrix, on a fresh code so that nothing is cached."""
    g = gabidulin(q, m, n, delta)
    code = LinearMatrixCode(q, m, n, g.basis, delta)
    assert code.ranks == tuple(map(rank, code.codewords()))


# largest dimension per field order that keeps a code at most 729 codewords
ORACLE_DIM = {q: max(d for d in range(1, 10) if q ** d <= 729)
              for q in SUPPORTED_ORDERS}


@st.composite
def rectangular_codes(draw, q):
    """m x n codes with m != n, up to 5 x 5, of any dimension from 0 up:
    random basis matrices, or in half of the codes, random ones mixed with
    zero ones and sums of multiples of earlier ones (a dependent basis)."""
    m, n = draw(st.sampled_from([(a, b) for a in range(1, 6)
                                 for b in range(1, 6) if a != b]))
    entries = st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n)
    basis, kinds = [], st.sampled_from(["random", "zero", "dependent"])
    mixed = draw(st.booleans())
    for _ in range(draw(st.integers(0, ORACLE_DIM[q]))):
        kind = draw(kinds) if mixed else "random"
        if kind == "dependent" and basis:
            coeffs = st.lists(st.integers(0, q - 1), min_size=len(basis),
                              max_size=len(basis))
            B = LinearMatrixCode(q, m, n, tuple(basis), 1).combine(draw(coeffs))
        else:
            flat = draw(entries) if kind == "random" else [0] * (m * n)
            B = MatGF(q, [flat[i * n:(i + 1) * n] for i in range(m)])
        basis.append(B)
    return LinearMatrixCode(q, m, n, tuple(basis), 1)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_counted_ranks_match_the_rank_of_each_codeword(q):
    """The ranks counted from annihilating points, and the ranks the code
    reports by either route, equal the rank of every codeword matrix, for
    tall and wide codes, dependent bases included."""
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(rectangular_codes(q))
    def check(code):
        expected = tuple(map(rank, code.codewords()))
        assert rankmetric._counted_ranks(code) == expected
        assert code.ranks == expected
    check()


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("m,n", [(2, 5), (5, 2), (4, 3), (3, 4)])
def test_counted_ranks_of_degenerate_codes(q, m, n):
    """Dimension 0, a basis of zero matrices, and a basis that repeats one
    matrix: every codeword still gets the rank of its matrix."""
    Z = MatGF.zeros(q, m, n)
    X = MatGF(q, [[(i + j) % q for j in range(n)] for i in range(m)])
    for basis in ((), (Z,), (Z, Z), (X, X), (X, Z, X)):
        code = LinearMatrixCode(q, m, n, basis, 1)
        expected = tuple(map(rank, code.codewords()))
        assert rankmetric._counted_ranks(code) == expected
        assert code.ranks == expected
    assert LinearMatrixCode(q, m, n, (), 1).ranks == (0,)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_each_cut_is_the_subcode_its_row_annihilates(q):
    """For tall and wide codes, dependent bases included, every pivot p and
    some free columns after it: ``_cuts`` yields, for each row y = e_p + the
    sum of a_c e_c over the free columns c (the a_c base q, the first
    slowest), independent words spanning exactly the codewords X, taken
    s x t, with yX = 0, here multiplied out through the field tables."""
    field = field_new(q)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(rectangular_codes(q), st.data())
    def check(code, data):
        m, n = code.m, code.n
        s, t = min(m, n), max(m, n)
        sides = [(B if m <= n else B.transpose()).flatten() for B in code.basis]
        flats = [B.flatten() for B in code.basis]
        words = [(W.flatten(), W.data if m <= n else W.transpose().data)
                 for W in code.codewords()]
        for p in range(s):
            # each column after p free with odds 3 in 4
            free = [c for c in range(p + 1, s) if data.draw(st.integers(0, 3))]
            free = free[:max(i for i in range(s) if q ** i <= 27)]
            ys = [dict([(p, 1), *zip(free, a)])
                  for a in product(range(q), repeat=len(free))]
            cuts = list(rankmetric._cuts(q, s, t, sides, flats, p, free))
            assert len(cuts) == len(ys)
            for y, sub in zip(ys, cuts):
                want = set()
                for w, X in words:
                    yX = [0] * t
                    for i, a in y.items():
                        yX = [field.add(v, field.mul(a, x)) for v, x in zip(yX, X[i])]
                    if not any(yX):
                        want.add(w)
                got = set(rankmetric._span(q, sub, m * n))
                assert len(got) == q ** len(sub) and got == want
    check()


@pytest.mark.parametrize("q,m,delta", [(2, 7, 3), (3, 5, 3)])
def test_a_passing_proof_walks_one_level(monkeypatch, q, m, delta):
    """Verifying gabidulin(q, m, m, delta), of q^(m(m - delta + 1))
    codewords, cuts the whole code only for subspaces Y of the level u = m
    - delta + 1: such a cut's pivot p and the later columns not free are
    Y's u pivots."""
    code = gabidulin(q, m, m, delta, verify=False)
    levels, real = set(), rankmetric._cuts

    def cuts(q, s, t, sides, carry, p, free):
        if len(carry) == code.dim:
            levels.add(s - p - len(free))
        return real(q, s, t, sides, carry, p, free)
    monkeypatch.setattr(rankmetric, "_cuts", cuts)
    rankmetric.verify_min_rank(LinearMatrixCode(q, m, m, code.basis, delta))
    assert levels == {m - delta + 1}


def count_eliminations(monkeypatch, code):
    """The ranks of code and the number of ``_eliminate`` calls they took."""
    calls, real = [], rankmetric._eliminate

    def eliminate(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(rankmetric, "_eliminate", eliminate)
    return code.ranks, len(calls)


@pytest.mark.parametrize("m,n,points", [(4, 4, 15), (5, 3, 7), (3, 5, 7)])
def test_ranks_eliminate_once_per_point_of_the_shorter_side(monkeypatch, m, n, points):
    """One elimination per point of PG(min(m, n) - 1, 2), on a fresh code:
    [4, 1]_2 = 15 for 4 x 4 and [3, 1]_2 = 7 for 5 x 3 and 3 x 5."""
    code = LinearMatrixCode(2, m, n, gabidulin(2, m, n, 2).basis, 2)
    ranks, made = count_eliminations(monkeypatch, code)
    assert made == points
    assert ranks == tuple(map(rank, code.codewords()))


@pytest.mark.parametrize("q,m,n,dim,calls", [
    (2, 3, 5, 4, 16),   # 16 codewords < 3 x 7 points: one per codeword
    (2, 3, 5, 5, 7),    # 32 codewords >= 3 x 7 points: one per point
    (2, 5, 3, 4, 16),
    (2, 5, 3, 5, 7),
    (9, 5, 5, 1, 9)])   # 9 codewords, 7,381 points of PG(4, 9)
def test_small_codes_in_tall_matrices_eliminate_once_per_codeword(
        monkeypatch, q, m, n, dim, calls):
    """Ranks take one elimination per point only when the code has at least
    three codewords per point of the shorter side."""
    basis = tuple(MatGF(q, [[(i * n + j + 1) * (b + 1) ** 2 % q if (i + b) % 2 or j > b
                             else 0 for j in range(n)] for i in range(m)])
                  for b in range(dim))
    code = LinearMatrixCode(q, m, n, basis, 1)
    ranks, made = count_eliminations(monkeypatch, code)
    assert made == calls
    assert ranks == tuple(map(rank, code.codewords()))


def test_hook_code_is_ranked_once_per_codeword(monkeypatch):
    """th43_optimal_fdrmc(19, 8, 3) is a 7 x 11 code of 27 codewords: 27
    eliminations, where counting by points would take [7, 1]_3 = 1,093."""
    hook = th43_optimal_fdrmc(19, 8, 3).code
    code = LinearMatrixCode(3, 7, 11, hook.basis, hook.delta)
    ranks, made = count_eliminations(monkeypatch, code)
    assert made == 27
    assert ranks == tuple(map(rank, code.codewords()))


def test_verify_min_rank_rejects_a_rank_below_the_claim():
    """Both methods: a 2 x 2 code of rank 1, ranked, and 2^17 matrices whose
    two rows are equal, so of rank 1, proven at the first of 3 systems."""
    from cdckit.errors import VerificationFailed
    from cdckit.rankmetric import verify_min_rank
    small = LinearMatrixCode(2, 2, 2, (MatGF(2, [[1, 0], [0, 0]]),), 2)
    with pytest.raises(VerificationFailed, match="^min nonzero rank 1 below claimed 2$"):
        verify_min_rank(small)
    units = [[int(i == j) for j in range(17)] for i in range(17)]
    big = LinearMatrixCode(2, 2, 17, tuple(MatGF(2, [e, e]) for e in units), 2)
    assert big.is_independent()
    with pytest.raises(VerificationFailed,
                       match="^min nonzero rank 1 below claimed 2$"):
        verify_min_rank(big)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: MatrixSet(2, 1, 1, ()), TypeError,
                 "MatrixSet needs its claimed distance delta", id="set-delta"),
    pytest.param(lambda: grmc_lower_bound(2, 2, 3, 3, 0, 2), BadArguments,
                 "delta outside 1..min(m,n)", id="grmc-delta"),
    pytest.param(lambda: grmc_lower_bound(2, 2, 3, 1, 2, 1), BadArguments,
                 "need 0 <= t1 <= t2 <= min(m,n), got 2, 1", id="grmc-ranks"),
])
def test_every_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


@st.composite
def tall_and_wide_codes(draw, q):
    """Random bases, dependent ones included, of m x n matrices with m != n
    and few enough points that the proof stays under its cap."""
    s = draw(st.integers(1, 4 if q < 4 else 3 if q < 9 else 2))
    m, n = s, s + draw(st.integers(1, 2))
    if draw(st.booleans()):
        m, n = n, m
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    basis = draw(st.lists(st.lists(row, min_size=m, max_size=m), max_size=4))
    return LinearMatrixCode(q, m, n, tuple(MatGF(q, B) for B in basis), 1)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_both_minimum_rank_methods_match_the_ranks(q):
    """At every bound ``upto``, the proof and the ranking, each forced, and
    the method ``min_nonzero_rank`` picks give min(least rank, upto + 1)."""
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(tall_and_wide_codes(q))
    def check(code):
        s = min(code.m, code.n)
        least = min([rank(W) for W in code.codewords() if not W.is_zero()],
                    default=s + 1)
        for upto in range(1, s + 1):
            want = min(least, upto + 1)
            assert rankmetric._proven_min_rank(code, upto) == want
            assert min([*filter(None, code.ranks), upto + 1]) == want
            assert rankmetric.min_nonzero_rank(code, upto) == want
        assert rankmetric.min_nonzero_rank(code) == least
    check()


def test_min_nonzero_rank_picks_the_method_with_less_work():
    """The 27-codeword 7 x 11 hook code is ranked, where the proof of
    distance 3 takes [7, 1]_3 + [7, 2]_3 = 100,556 systems; the 4,096
    codewords of gabidulin(2, 4, 4, 2) are proven with [4, 1]_2 = 15."""
    hook, mrd = th43_optimal_fdrmc(19, 8, 3).code, gabidulin(2, 4, 4, 2)
    for code, ranked in ((hook, True), (mrd, False)):
        fresh = LinearMatrixCode(code.q, code.m, code.n, code.basis, code.delta)
        assert rankmetric.min_nonzero_rank(fresh, code.delta - 1) == code.delta
        assert ("ranks" in fresh.__dict__) == ranked


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_a_rank_one_swap_fails_verification(q):
    """gabidulin(q, m, m, 2) with its first basis matrix swapped for a unit
    matrix: 2^20 codewords at q = 2, all proven, none ranked."""
    from cdckit.errors import VerificationFailed
    m = 5 if q == 2 else 3
    mrd = gabidulin(q, m, m, 2)
    unit = MatGF(q, [[int(i == j == 0) for j in range(m)] for i in range(m)])
    code = LinearMatrixCode(q, m, m, (unit,) + mrd.basis[1:], 2)
    assert code.is_independent() and code.size == q ** (m * (m - 1))
    with pytest.raises(VerificationFailed,
                       match="^min nonzero rank 1 below claimed 2$"):
        rankmetric.verify_min_rank(code)
    assert "ranks" not in code.__dict__
