"""Incremental codeword enumeration, memoised MRD and diagram codes, and
matrix entry validation."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cdckit import ferrers, rankmetric
from cdckit.errors import BadArguments, BadShape
from cdckit.ferrers import FerrersDiagram, optimal_fdrmc
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import MatGF, rank
from cdckit.rankmetric import (LinearMatrixCode, gabidulin, rank_distribution,
                               restrict_ranks)


@st.composite
def small_codes(draw, q):
    """Random bases, dependent ones included: dim <= 4, m, n <= 3."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    basis = draw(st.lists(st.lists(row, min_size=m, max_size=m), max_size=4))
    return LinearMatrixCode(q, m, n, tuple(MatGF(q, B) for B in basis), 1)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_codewords_match_combine_in_order(q):
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(small_codes(q))
    def check(code):
        assert list(code.codewords()) == [
            code.combine(c) for c in product(range(q), repeat=code.dim)]
        assert code.ranks == tuple(map(rank, code.codewords()))
    check()


def counting(monkeypatch, module):
    calls = []
    real = module.verify_min_rank

    def verify_min_rank(code):
        calls.append(code)
        return real(code)
    monkeypatch.setattr(module, "verify_min_rank", verify_min_rank)
    return calls


def test_gabidulin_is_built_and_verified_once(monkeypatch):
    gabidulin.cache_clear()
    calls = counting(monkeypatch, rankmetric)
    first = gabidulin(2, 4, 4, 2)
    assert gabidulin(2, 4, 4, 2) is first
    assert calls == [first]


def test_optimal_fdrmc_is_built_and_verified_once(monkeypatch):
    optimal_fdrmc.cache_clear()
    calls = counting(monkeypatch, ferrers)
    F = FerrersDiagram((1, 2, 4))
    first = optimal_fdrmc(F, 2, 2)
    assert optimal_fdrmc(F, 2, 2) is first
    assert calls == [first.code]


def counting_eliminations(monkeypatch):
    calls, real = [], rankmetric._eliminate
    monkeypatch.setattr(rankmetric, "_eliminate",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_restrict_ranks_reuses_the_verified_ranks(monkeypatch):
    """32 codewords, fewer than the 372 systems of a proof of distance 5:
    verification ranks them, and the restriction reads those ranks."""
    gabidulin.cache_clear()
    code = gabidulin(2, 5, 5, 5)
    calls = counting_eliminations(monkeypatch)
    low = restrict_ranks(code, 5)
    assert len(calls) == 0
    assert low.size == 1 + rank_distribution(2, 5, 5, 5, 5)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_matgf_rejects_entries_outside_the_field(q):
    assert MatGF(q, [[0, q - 1], [1, 0]]).data == ((0, q - 1), (1, 0))
    for bad in (-1, q):
        with pytest.raises(BadArguments):
            MatGF(q, [[0, 1], [bad, 0]])


def test_matgf_rejects_ragged_rows():
    with pytest.raises(BadShape):
        MatGF(2, [[0, 1], [1]])
    with pytest.raises(BadShape):
        MatGF(3, [[0], [1, 2]])


def test_transpose_carries_the_ranks(monkeypatch):
    """The transpose of the verified 6 x 4 code, whose 64 codewords are
    fewer than the 65 systems of a proof of distance 4, so it was ranked."""
    gabidulin.cache_clear()
    code = gabidulin(2, 4, 6, 4)
    calls = counting_eliminations(monkeypatch)
    low = restrict_ranks(code, 4)
    assert len(calls) == 0
    assert low.size == 1 + rank_distribution(2, 4, 6, 4, 4)
    assert low.ranks == tuple(map(rank, low.members))


def test_parallel_linkage_reads_the_attached_ranks(monkeypatch):
    from cdckit import linalg
    from cdckit.cdc import Cdc, parallel_linkage
    from cdckit.linalg import Subspace
    U = Cdc(q=2, n=2, k=2, d=2,
            members=(Subspace.from_matrix(MatGF.identity(2, 2)),))
    M1 = gabidulin(2, 2, 2, 1)
    M2 = restrict_ranks(gabidulin(2, 2, 2, 1), 1)
    calls = []
    monkeypatch.setattr(linalg, "rank", lambda M: calls.append(M) or rank(M))
    code = parallel_linkage(U, U, M1, M2)
    assert calls == [] and code.size == M1.size + M2.size


def test_one_enumeration_per_code():
    gabidulin.cache_clear()
    code = gabidulin(2, 4, 4, 2)
    words = code.words
    assert len(words) == code.size == len(code.ranks)
    low = restrict_ranks(code, 2)
    assert [W.flatten() for W in code.codewords()] == list(words)
    assert code.words is words
    assert set(W.flatten() for W in low.members) <= set(words)


def test_verify_min_rank_rejects_a_dependent_basis():
    from cdckit.errors import VerificationFailed
    from cdckit.rankmetric import verify_min_rank
    B = MatGF(2, [[1, 0], [0, 1]])
    for basis in ((MatGF.zeros(2, 2, 2),), (B, B)):
        code = LinearMatrixCode(2, 2, 2, basis, 2)
        assert not code.is_independent()
        with pytest.raises(VerificationFailed):
            verify_min_rank(code)
    verify_min_rank(LinearMatrixCode(2, 2, 2, (B,), 2))
