import itertools

import pytest

from cdckit import ferrers
from cdckit.errors import BadArguments, ConditionNotMet
from cdckit.ferrers import (FerrersDiagram, compose_fdrmc, coset_list,
                            coset_list_inverse, gfrmc_lower_bound, inverse,
                            nested_pair, nu, optimal_fdrmc, singleton_bound,
                            th43_optimal_fdrmc, transpose)
from cdckit.linalg import rank
from cdckit.verify import audit_fdrmc


def test_diagram_validity():
    with pytest.raises(BadArguments):
        FerrersDiagram((2, 1))
    with pytest.raises(BadArguments):
        FerrersDiagram((0, 1))
    assert FerrersDiagram(()).is_empty()


def test_transpose_worked_example():
    F = FerrersDiagram((1, 2, 4))
    assert transpose(F).cols == (1, 1, 2, 3)
    assert transpose(transpose(F)) == F


def test_inverse_display():
    F = FerrersDiagram((1, 2, 4))
    Fi = inverse(F)
    assert Fi.inverted and Fi.cols == (1, 2, 4)
    # mirrored display: tallest column first
    assert [sum(Fi.cell_is_dot(i, j) for i in range(Fi.m)) for j in range(3)] \
        == [4, 2, 1]
    assert inverse(Fi) == F


def test_full_transpose():
    F = FerrersDiagram((3, 3))  # full 3x2
    assert transpose(F).cols == (2, 2, 2)


def test_nu_and_bound():
    F = FerrersDiagram((1, 2, 4))
    assert nu(F, 2, 0) == 3
    assert nu(F, 2, 1) == 4
    assert singleton_bound(F, 2) == 3
    assert singleton_bound(F, 1) == F.dots == 7
    assert singleton_bound(FerrersDiagram((2, 2)), 2) == 2


def test_bound_transpose_invariant():
    for cols in [(1, 2, 4), (3, 3), (2, 4, 4, 5), (1, 1, 8)]:
        F = FerrersDiagram(cols)
        for delta in range(1, min(F.m, F.n) + 1):
            assert singleton_bound(F, delta) == singleton_bound(transpose(F), delta)


def test_optimal_fdrmc_124():
    code = optimal_fdrmc(FerrersDiagram((1, 2, 4)), 2, 2)
    assert code.dim == 3 and code.size == 8 and code.optimal
    rep = audit_fdrmc(code)
    assert rep.passed and rep.min_distance_found == 2


def test_optimal_fdrmc_full_square():
    code = optimal_fdrmc(FerrersDiagram((2, 2)), 2, 2)
    assert code.dim == 2
    assert audit_fdrmc(code).passed


def test_optimal_fdrmc_12():
    # two-column hook: bound 1, realized by an identity-patterned codeword
    code = optimal_fdrmc(FerrersDiagram((1, 2)), 2, 2)
    assert code.dim == 1
    assert audit_fdrmc(code).min_distance_found == 2


def test_optimal_fdrmc_single_row_is_zero_code():
    # a 1x2 diagram cannot support rank distance 2: the bound is 0
    F = FerrersDiagram((1, 1))
    assert singleton_bound(F, 2) == 0
    code = optimal_fdrmc(F, 2, 2)
    assert code.dim == 0 and code.optimal


def test_optimal_fdrmc_delta_one():
    F = FerrersDiagram((1, 3))
    code = optimal_fdrmc(F, 1, 3)
    assert code.dim == F.dots == 4


def test_optimal_fdrmc_transpose_equivalence():
    # an [F, p, d] code transposes to an [F^t, p, d] code; rebuild and compare
    for cols in [(1, 2, 4), (2, 3, 3)]:
        F = FerrersDiagram(cols)
        c = optimal_fdrmc(F, 2, 2)
        ct = optimal_fdrmc(transpose(F), 2, 2)
        assert c.dim == ct.dim
        assert audit_fdrmc(ct).passed


def test_optimal_fdrmc_inverse_equivalence():
    F = inverse(FerrersDiagram((1, 2, 4)))
    code = optimal_fdrmc(F, 2, 2)
    assert code.dim == 3
    assert audit_fdrmc(code).passed


def test_optimal_fdrmc_nonforced_diagram():
    # bound is pinched between the counting floor and the deletion bound
    code = optimal_fdrmc(FerrersDiagram((4, 4, 4, 4, 5)), 3, 2)
    assert code.dim == 11
    assert audit_fdrmc(code).passed


def test_compose_distance_adds():
    q = 2
    c1 = optimal_fdrmc(FerrersDiagram((1, 2)), 1, q)
    # pick a dimension-3 partner: all dots of a 3-dot column
    c2 = optimal_fdrmc(FerrersDiagram((3,)), 1, q)
    out = compose_fdrmc(c1, c2, m3=2, n3=1)
    assert out.dim == 3 and out.delta == 2
    mats = [W for W in out.code.codewords() if not W.is_zero()]
    assert min(rank(W) for W in mats) >= 2


def test_compose_zero_codes():
    from cdckit.ferrers import _zero_fdrm
    z1 = _zero_fdrm(FerrersDiagram((1,)), 2, 2)
    z2 = _zero_fdrm(FerrersDiagram((1,)), 1, 2)
    out = compose_fdrmc(z1, z2, m3=1, n3=1)
    assert out.dim == 0


def test_th43_hook_code():
    code = th43_optimal_fdrmc(15, 6, 3)
    assert code.dim == 2 and code.size == 9
    rep = audit_fdrmc(code)
    assert rep.passed and rep.min_distance_found == 3
    assert code.diagram.cols == (1, 1, 1, 1, 1, 1, 1, 3, 5)


def test_th43_degenerate_and_larger():
    assert th43_optimal_fdrmc(4, 2, 2).dim == 0
    code = th43_optimal_fdrmc(19, 8, 3)
    assert code.dim == 3
    assert audit_fdrmc(code).passed


def test_th43_bad_arguments():
    with pytest.raises(BadArguments):
        th43_optimal_fdrmc(7, 4, 2)


def test_nested_pair_full_square():
    pair = nested_pair(FerrersDiagram((2, 2)), 2, 1, 2)
    assert pair.c1.dim == 2 and pair.c2.dim == 4
    assert pair.coset_count == 4


def test_nested_pair_zero_inner():
    F = FerrersDiagram((2, 2, 2))  # full 2x3: no distance-3 code
    pair = nested_pair(F, 3, 2, 2)
    assert pair.c1.dim == 0
    assert pair.c2.dim == singleton_bound(F, 2)


def test_nested_pair_124():
    pair = nested_pair(FerrersDiagram((1, 2, 4)), 2, 1, 2)
    assert pair.c1.dim == 3 and pair.c2.dim == 7


def test_nested_pair_rejects_an_inner_code_outside_the_outer(monkeypatch):
    # swap the two distances: the dimension-4 code cannot lie in the
    # dimension-2 one
    real = ferrers.optimal_fdrmc
    monkeypatch.setattr(ferrers, "optimal_fdrmc",
                        lambda F, delta, q: real(F, 3 - delta, q))
    with pytest.raises(ConditionNotMet):
        nested_pair(FerrersDiagram((2, 2)), 2, 1, 2)


def test_optimal_fdrmc_raises_below_the_bound():
    """F=[1,1,1,5,5,6,6,6,6] at delta 3, the diagram no route here builds:
    the bound is 22, and the MRD support intersection reaches 19."""
    F = FerrersDiagram((1, 1, 1, 5, 5, 6, 6, 6, 6))
    assert singleton_bound(F, 3) == 22
    with pytest.raises(ConditionNotMet, match="gives dimension 19, bound is 22;"):
        optimal_fdrmc(F, 3, 2)


def test_audit_flags_a_code_below_its_claimed_optimum():
    from cdckit.ferrers import FdrmCode
    from cdckit.rankmetric import LinearMatrixCode
    F = FerrersDiagram((1, 2, 4))
    full = optimal_fdrmc(F, 2, 2)
    sub = LinearMatrixCode(2, F.m, F.n, full.code.basis[:-1], 2)  # still delta 2
    rep = audit_fdrmc(FdrmCode(diagram=F, code=sub, delta=2, optimal=True))
    assert rep.violations == [("optimality", full.dim - 1, full.dim)]
    assert not rep.passed and rep.min_distance_found >= 2


def test_coset_list_full_square():
    pair = nested_pair(FerrersDiagram((2, 2)), 2, 1, 2)
    cosets = coset_list(pair)
    assert len(cosets) == 4 and all(c.size == 4 for c in cosets)
    # union is the whole outer code, cosets are disjoint
    seen = set()
    for c in cosets:
        for M in c.members:
            assert M not in seen
            seen.add(M)
    assert len(seen) == 16
    # within-coset rank distance 2, across-coset at least 1
    for c in cosets:
        for A, B in itertools.combinations(c.members, 2):
            assert rank(A - B) >= 2
    for c1, c2 in itertools.combinations(cosets, 2):
        for A in c1.members:
            for B in c2.members:
                assert rank(A - B) >= 1


def test_coset_list_degenerate_ends():
    F = FerrersDiagram((2, 2))
    pair = nested_pair(F, 2, 1, 2)
    # inner equals outer: single coset
    from cdckit.ferrers import NestedPair
    same = NestedPair(c1=pair.c2, c2=pair.c2, quotient=())
    assert len(coset_list(same)) == 1
    # zero inner: every outer word is its own coset
    zero_in = nested_pair(FerrersDiagram((2, 2, 2)), 3, 1, 2)
    cosets = coset_list(zero_in)
    assert len(cosets) == 2 ** 6 and all(c.size == 1 for c in cosets)


def test_coset_list_inverse_restriction():
    F = inverse(FerrersDiagram((3, 3)))
    pair = nested_pair(F, 2, 1, 2)
    full, empties0 = coset_list_inverse(pair)
    assert len(full) == 8 and all(c.size == 8 for c in full) and empties0 == 0
    restricted, empties = coset_list_inverse(pair, r=0)
    assert restricted[0].size == 1 and restricted[0].members[0].is_zero()
    assert empties == sum(1 for c in restricted if not c.members) > 0
    # r = min(m, n) changes nothing
    unres, _ = coset_list_inverse(pair, r=2)
    assert [c.size for c in unres] == [c.size for c in full]


def test_gfrmc_lower_bound():
    F = FerrersDiagram((1, 2, 4))
    assert gfrmc_lower_bound(F, 2, 0, 2) == 1
    # frozen value; exact search over the 7-dot space gives optimum 4 >= this
    val, idx = gfrmc_lower_bound(F, 2, 1, 2, with_index=True)
    assert val == 1 and 1 <= idx <= 3
    full = FerrersDiagram((3, 3, 3))
    assert gfrmc_lower_bound(full, 2, 2, 2) <= 50


def test_basis_transforms_preserve_code_properties():
    # transposing (with the 180-degree rotation) or mirroring every basis
    # matrix yields a valid code on the transformed diagram at the same delta
    from cdckit.ferrers import FdrmCode, _check_support
    from cdckit.rankmetric import LinearMatrixCode, verify_min_rank
    F = FerrersDiagram((1, 2, 4))
    code = optimal_fdrmc(F, 2, 2)
    tbasis = tuple(B.transpose().reverse_rows().reverse_cols()
                   for B in code.code.basis)
    tdia = transpose(F)
    assert _check_support(tdia, tbasis)
    tcode = LinearMatrixCode(2, tdia.m, tdia.n, tbasis, 2)
    verify_min_rank(tcode)  # raises on any slack below delta
    mbasis = tuple(B.reverse_cols() for B in code.code.basis)
    mdia = inverse(F)
    assert _check_support(mdia, mbasis)
    verify_min_rank(LinearMatrixCode(2, mdia.m, mdia.n, mbasis, 2))
    assert F.dots == tdia.dots == mdia.dots
