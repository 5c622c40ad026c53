"""The placement rule at every supported q.

``cdc._place`` receives skeletons of rank k on the columns it does not
fill, so on one skeleton two fillers give the same subspace only when they
are the same word.  It therefore tests the filler's words for repeats and
hashes no block; ``union_cdcs`` is the one block-level duplicate test.
These properties place random fillers through each of the five families
that call ``_place``: ``lift`` (left and right), ``lift_on_vector``
(forward and inverse), both halves of ``parallel_linkage`` and the coset
construction.  Distinct words must give pairwise distinct subspaces, with a
set of the placed blocks as the oracle; a filler that repeats a word must
raise the placement's message.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cdckit.cdc import (Cdc, CdcList, IdVec, coset_construction, ferrers_of,
                        lift_on_vector, parallel_linkage)
from cdckit.errors import DuplicateCodeword, VerificationFailed
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import MatGF, Subspace, rank
from cdckit.rankmetric import LinearMatrixCode, MatrixSet, lift

FAMILIES = ("lift", "lift_on_vector", "linkage-left", "linkage-right", "coset")
PLACEMENT = "^placement produced duplicate subspaces$"


def matrix(rnd, q, m, n, cells=None, max_rank=None):
    """A random m x n matrix over GF(q), zero outside ``cells`` when given,
    of rank at most ``max_rank`` when given."""
    while True:
        M = MatGF(q, [[rnd.randrange(q) if cells is None or (i, j) in cells
                       else 0 for j in range(n)] for i in range(m)])
        if max_rank is None or rank(M) <= max_rank:
            return M


def matrix_set(rnd, q, m, n, repeat, **kw):
    """Up to five distinct random matrices, one of them twice if ``repeat``."""
    members = list({M.flatten(): M for M in (
        matrix(rnd, q, m, n, **kw) for _ in range(rnd.randint(1, 5)))}.values())
    if repeat:
        members.insert(rnd.randrange(len(members) + 1), rnd.choice(members))
    return MatrixSet(q, m, n, members, 1)


def linear_code(rnd, q, m, n, repeat):
    """A linear code of dimension 1 or 2 with an independent basis, to which
    ``repeat`` adds a combination of the basis, so the span repeats words."""
    while True:
        basis = [matrix(rnd, q, m, n) for _ in range(rnd.randint(1, 2))]
        code = LinearMatrixCode(q, m, n, tuple(basis), 1)
        if code.is_independent():
            break
    if repeat:
        extra = code.combine([rnd.randrange(q) for _ in basis])
        code = LinearMatrixCode(q, m, n, (*basis, extra), 1)
    return code


def subspaces(rnd, q, n, k, count):
    """Up to ``count`` distinct random k-subspaces of GF(q)^n."""
    out = {}
    for _ in range(count):
        rows = [[rnd.randrange(q) for _ in range(n)] for _ in range(k)]
        if rank(MatGF(q, rows)) == k:
            U = Subspace(q, n, rows)
            out.setdefault(U, U)
    return tuple(out) or (Subspace(q, n, [[int(j == i) for j in range(n)]
                                          for i in range(k)]),)


def place(family, q, rnd, repeat):
    """Place random fillers through ``family``: (the code, the number of
    subspaces placed); ``repeat`` puts one word into the filler twice."""
    if family == "lift":
        m, n = rnd.randint(1, 3), rnd.randint(1, 3)
        filler = (linear_code if rnd.random() < 0.5 else matrix_set)(
            rnd, q, m, n, repeat)
        return lift(filler, rnd.choice(("left", "right"))), len(filler.words)
    if family == "lift_on_vector":
        n = rnd.randint(2, 5)
        bits = [0] * n
        for c in rnd.sample(range(n), rnd.randint(1, n - 1)):
            bits[c] = 1
        v = IdVec(tuple(bits), rnd.choice(("forward", "inverse")))
        dia = ferrers_of(v).diagram
        filler = matrix_set(rnd, q, dia.m, dia.n, repeat,
                            cells=set(dia.cells()))
        return lift_on_vector(v, filler), len(filler.words)
    if family.startswith("linkage"):
        k, n1, n2 = 2, rnd.randint(2, 3), rnd.randint(2, 3)
        U1 = Cdc(q, n1, k, 2, subspaces(rnd, q, n1, k, 3))
        U2 = Cdc(q, n2, k, 2, subspaces(rnd, q, n2, k, 3))
        M1 = linear_code(rnd, q, k, n2, repeat and family == "linkage-left")
        M2 = matrix_set(rnd, q, k, n1, repeat and family == "linkage-right",
                        max_rank=k - 1)
        return (parallel_linkage(U1, U2, M1, M2),
                U1.size * len(M1.words) + U2.size * len(M2.words))
    # coset: index-paired lists of points, distinct across each list
    a_points = subspaces(rnd, q, 2, 1, 4)
    b_points = subspaces(rnd, q, 3, 1, 4)
    cut_a, cut_b = rnd.randint(0, len(a_points)), rnd.randint(0, len(b_points))

    def lst(n, points, cut):
        codes = tuple(Cdc(q, n, 1, 2, part)
                      for part in (points[:cut], points[cut:]) if part)
        return CdcList(q=q, n=n, k=1, intra_d=2, inter_d=1,
                       sizes=tuple((c.size, 1) for c in codes), codes=codes)
    A, B = lst(2, a_points, cut_a), lst(3, b_points, cut_b)
    H = linear_code(rnd, q, 1, 2, repeat)
    return coset_construction(A, B, H), len(H.words) * sum(
        a.size * b.size for a, b in zip(A.codes, B.codes))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_distinct_words_place_distinct_subspaces(q, family):
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        code, placed = place(family, q, random.Random(seed), repeat=False)
        assert code.size == placed
        assert len(set(code.blocks())) == placed
    check()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_a_filler_that_repeats_a_word_is_refused(q, family):
    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        with pytest.raises(VerificationFailed, match=PLACEMENT):
            place(family, q, random.Random(seed), repeat=True)
    check()


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_a_repeated_skeleton_reaches_the_union(q):
    """Two equal skeletons are not the placement's to find: a U1 that
    repeats a member repeats the left-lifted blocks, which the union names."""
    rnd = random.Random(q)
    U = subspaces(rnd, q, 3, 2, 3)
    U1 = Cdc(q, 3, 2, 2, U + U[:1])
    U2 = Cdc(q, 3, 2, 2, subspaces(rnd, q, 3, 2, 3))
    M1 = linear_code(rnd, q, 2, 3, False)
    M2 = matrix_set(rnd, q, 2, 3, False, max_rank=1)
    with pytest.raises(DuplicateCodeword) as e:
        parallel_linkage(U1, U2, M1, M2)
    assert str(e.value) == "subspace produced by both left-lifted and left-lifted"
