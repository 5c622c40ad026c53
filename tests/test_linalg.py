import itertools
import random

import pytest

from cdckit.errors import AmbientMismatch, BadArguments, BadShape, NotRref
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import (MatGF, Subspace, echelon_pivots, enumerate_subspaces,
                           gaussian_binomial, kernel_basis, rank, rref, rrief,
                           subspace_distance)

# worked 3-dim subspace of GF(2)^5 with both canonical forms
E_U = [[1, 0, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]]
EHAT_U = [[1, 0, 0, 0, 1], [0, 0, 0, 1, 0], [1, 0, 1, 0, 0]]


def random_matrix(rng, q, rows, cols):
    return MatGF(q, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity_fixed_point():
    I = MatGF(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    R, piv = rref(I)
    assert R == I and piv == (0, 1, 2)


def test_rref_worked_example():
    M = MatGF(2, E_U)
    R, piv = rref(M)
    assert R == M
    assert tuple(p + 1 for p in piv) == (1, 3, 4)


def test_rref_idempotent_random():
    rng = random.Random(3)
    for _ in range(100):
        M = random_matrix(rng, 3, 3, 5)
        R, _ = rref(M)
        R2, _ = rref(R)
        assert R2 == R


def test_rrief_worked_example():
    M = MatGF(2, E_U)
    R, piv = rrief(M)
    assert R == MatGF(2, EHAT_U)
    assert tuple(p + 1 for p in piv) == (5, 4, 3)


def test_rrief_identity():
    # rows come out pivot-descending: the identity with row order reversed
    I = MatGF(3, [[1, 0], [0, 1]])
    R, piv = rrief(I)
    assert R == MatGF(3, [[0, 1], [1, 0]]) and piv == (1, 0)


def test_rrief_preserves_row_space():
    rng = random.Random(5)
    for _ in range(100):
        M = random_matrix(rng, 2, 3, 6)
        A, _ = rref(M)
        B, _ = rrief(M)
        stacked = A.vstack(B)
        assert rank(stacked) == rank(A) == rank(B)


def test_rref_unique_under_row_operations():
    rng = random.Random(9)
    f_ops = 0
    for _ in range(100):
        M = random_matrix(rng, 2, 3, 5)
        R, _ = rref(M)
        rows = [list(r) for r in M.data]
        # random invertible row operations
        i, j = rng.sample(range(3), 2)
        c = rng.randrange(1, 2)
        from cdckit.gf import field_new
        f = field_new(2)
        rows[i] = [f.add(a, f.mul(c, b)) for a, b in zip(rows[i], rows[j])]
        R2, _ = rref(MatGF(2, rows))
        assert R2 == R
        f_ops += 1
    assert f_ops == 100


def test_rank_cases():
    assert rank(MatGF(2, [[0, 0], [0, 0]])) == 0
    assert rank(MatGF(5, [[1 if i == j else 0 for j in range(4)] for i in range(4)])) == 4
    F = MatGF(2, [[1, 1, 0], [0, 0, 0], [1, 0, 1], [0, 0, 1]])
    assert rank(F) == 3


def test_kernel_basis():
    M = MatGF(2, [[1, 0, 1], [0, 1, 1]])
    basis = kernel_basis(M)
    assert basis == [(1, 1, 1)]


def test_subspace_canonical_equality():
    U1 = Subspace(2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    U2 = Subspace(2, 4, [[1, 1, 1, 1], [0, 1, 0, 1]])
    assert U1 == U2 and hash(U1) == hash(U2)


def test_subspace_distance_cases():
    e = lambda i: [1 if j == i else 0 for j in range(4)]
    U = Subspace(2, 4, [e(0), e(1)])
    assert subspace_distance(U, U) == 0
    V = Subspace(2, 4, [e(2), e(3)])
    assert subspace_distance(U, V) == 4
    W = Subspace(2, 4, [e(0), e(2)])
    # intersection is span(e1): dimension 1, checked by direct enumeration
    common = set(U.vectors()) & set(W.vectors())
    assert len(common) == 2
    assert subspace_distance(U, W) == 2


def test_subspace_distance_ambient_mismatch():
    U = Subspace(2, 4, [[1, 0, 0, 0]])
    V = Subspace(2, 5, [[1, 0, 0, 0, 0]])
    with pytest.raises(AmbientMismatch):
        subspace_distance(U, V)


def test_subspace_distance_symmetry_and_triangle():
    rng = random.Random(17)
    subs = list(enumerate_subspaces(2, 6, 3))
    for _ in range(100):
        U, V, W = rng.sample(subs, 3)
        duv = subspace_distance(U, V)
        assert duv == subspace_distance(V, U)
        assert duv <= subspace_distance(U, W) + subspace_distance(W, V)
        assert (duv == 0) == (U == V)


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 2, 2) == 7
    with pytest.raises(BadArguments):
        gaussian_binomial(3, 4, 2)


def test_gaussian_binomial_symmetry_grid():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_grassmannian_enumeration_matches_formula():
    for n in range(1, 6):
        for k in range(n + 1):
            subs = list(enumerate_subspaces(2, n, k))
            assert len(subs) == gaussian_binomial(n, k, 2)
            assert len(set(subs)) == len(subs)


def grassmannian_oracle(q, n, k):
    """Digit rows of the RREF generators of the k-dimensional subspaces of
    GF(q)^n: pivot sets in lexicographic order, then the free entries, row
    after row, counting base q with the first entry slowest."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, c) for i, p in enumerate(pivots)
                for c in range(p + 1, n) if c not in pivots]
        for fill in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free, fill):
                rows[i][c] = v
            yield tuple(map(tuple, rows))


def in_rref(rows):
    lead = [next((c for c, x in enumerate(r) if x), None) for r in rows]
    return (None not in lead and lead == sorted(set(lead))
            and all(r[c] == (i == j) for j, c in enumerate(lead)
                    for i, r in enumerate(rows)))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_grassmannian_enumeration_order_for_every_q(q):
    for n in range(6 if q < 5 else 5):
        for k in range(n + 1):
            subs = list(enumerate_subspaces(q, n, k))
            assert [U.gen.data for U in subs] == list(grassmannian_oracle(q, n, k))
            assert len(subs) == gaussian_binomial(n, k, q)
            assert all(U.k == k and in_rref(U.gen.data) for U in subs)


def test_member_mask_popcount():
    U = Subspace(2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert U.member_mask().bit_count() == 4


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: MatGF(2, [[1, 0]]).hstack(MatGF(2, [[1], [0]])),
                 BadShape, "hstack shape mismatch", id="hstack"),
    pytest.param(lambda: MatGF(2, [[1, 0]]).vstack(MatGF(2, [[1]])),
                 BadShape, "vstack shape mismatch", id="vstack"),
    pytest.param(lambda: MatGF(2, [[1, 0]]) - MatGF(3, [[1, 0]]),
                 BadShape, "shape/field mismatch", id="sub"),
    pytest.param(lambda: echelon_pivots(MatGF(2, [[1, 0], [0, 0]])),
                 NotRref, "zero row in echelon matrix", id="echelon-zero-row"),
    pytest.param(lambda: Subspace(2, 4, [[1, 0, 0]]), AmbientMismatch,
                 "generator has 3 columns, ambient is 4", id="subspace-ambient"),
])
def test_every_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
