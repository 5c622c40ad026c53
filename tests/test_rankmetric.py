from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cdckit.errors import BadArguments, BadShape, TooLargeToEnumerate
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import rank
from cdckit.rankmetric import (LinearMatrixCode, gabidulin, grmc_lower_bound,
                               lift, rank_distribution, restrict_ranks)
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
