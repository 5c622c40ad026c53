import itertools
import random

import pytest

from cdckit import cli, ferrers
from cdckit.cdc import (Cdc, CwcSet, IdVec, build_coset_cdc_lists, ferrers_of,
                        lift_on_vector)
from cdckit.errors import (BadArguments, BadShape, ConditionNotMet,
                           DiagramMismatch, DimensionMismatch)
from cdckit.ferrers import (FdrmCode, FerrersDiagram, _check_support,
                            compose_fdrmc, coset_list, coset_list_inverse,
                            gfrmc_lower_bound, inverse, nested_pair, nu,
                            optimal_fdrmc, singleton_bound, support_leaks,
                            th43_optimal_fdrmc, transpose)
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import MatGF, rank
from cdckit.rankmetric import LinearMatrixCode, MatrixSet, gabidulin
from cdckit.theorems import thm32_build
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


# ---------------------------------------------------------------------------
# the support mask
# ---------------------------------------------------------------------------

def per_entry_leaks(diagram, basis):
    """The definition the mask test must reproduce: (t, i, j) for each
    nonzero entry of basis matrix t at a cell that is not a dot."""
    return [(t, i, j) for t, B in enumerate(basis) for i, row in enumerate(B.data)
            for j, x in enumerate(row) if x and not diagram.cell_is_dot(i, j)]


def random_diagram(rng):
    """The diagram of a random forward or inverse identifying vector."""
    while True:
        v = IdVec(tuple(rng.randrange(2) for _ in range(rng.randrange(2, 8))),
                  rng.choice(("forward", "inverse")))
        if v.weight and not ferrers_of(v).diagram.is_empty():
            return v, ferrers_of(v).diagram


def random_matrix(rng, q, dia, leak):
    """Random entries on the dots; off them, a random nonzero one with
    probability leak."""
    return MatGF(q, [[rng.randrange(q) if dia.cell_is_dot(i, j)
                      else rng.randrange(1, q) * (rng.random() < leak)
                      for j in range(dia.n)] for i in range(dia.m)])


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_the_support_mask_is_the_per_entry_definition(q):
    """At every entry width, on random forward and inverted diagrams: every
    single entry value at every cell, random bases (``support_leaks`` and
    ``_check_support``), and random ``MatrixSet``s lifted on the diagram's
    vector, which ``lift_on_vector`` rejects exactly when some member has a
    leak."""
    rng = random.Random(q)
    for _ in range(12):
        v, dia = random_diagram(rng)
        m, n = dia.m, dia.n
        units = [MatGF(q, [[x if (r, c) == (i, j) else 0 for c in range(n)]
                           for r in range(m)])
                 for i in range(m) for j in range(n) for x in range(1, q)]
        assert list(support_leaks(dia, units)) == per_entry_leaks(dia, units)
        for leak in (0, 0.05, 0.3):
            basis = [random_matrix(rng, q, dia, leak) for _ in range(rng.randrange(1, 4))]
            want = per_entry_leaks(dia, basis)
            assert list(support_leaks(dia, basis)) == want
            assert _check_support(dia, basis) == (not want)
            members = tuple({B.flatten(): B for B in basis}.values())
            cells = per_entry_leaks(dia, members)
            if cells:
                with pytest.raises(DiagramMismatch, match="outside the diagram"):
                    lift_on_vector(v, MatrixSet(q, m, n, members, 1))
            else:
                assert lift_on_vector(v, MatrixSet(q, m, n, members, 1)).size \
                    == len(members)
    if q == 9:  # 3 fills only the upper of an entry's two lanes
        v = IdVec.from_string("1010")  # diagram [1, 2]: (1, 0) is not a dot
        B = MatGF(9, [[0, 0], [3, 0]])
        assert list(support_leaks(ferrers_of(v).diagram, [B])) == [(0, 1, 0)]
        with pytest.raises(DiagramMismatch):
            lift_on_vector(v, MatrixSet(9, 2, 2, (B,), 1))


def test_a_basis_of_the_wrong_shape_raises_bad_shape():
    """On a 2 x 2 diagram, a 2 x 3 or a 3 x 2 basis matrix is refused, not
    read past the diagram's columns or rows, wherever it sits in the basis."""
    F = FerrersDiagram((1, 2))
    leaky = MatGF(2, [[0, 0], [1, 0]])
    for B in (MatGF(2, [[0, 0, 1], [0, 0, 0]]), MatGF(2, [[0, 1], [0, 1], [1, 0]])):
        for basis in ((B,), (leaky, B)):
            code = FdrmCode(F, LinearMatrixCode(2, 2, 2, basis, 1), 1, False)
            with pytest.raises(BadShape):
                audit_fdrmc(code)
            with pytest.raises(BadShape):
                _check_support(F, basis)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_no_matrix_is_read_entry_by_entry_on_the_diagram_paths(monkeypatch,
                                                               tmp_path, q):
    """Cold builds of the coset lists, ``thm32_build`` (q = 2: 542,580
    codewords at q = 3 and beyond the enumeration cap above), the CLI's
    ``build --multilevel`` (the 1,033-codeword code at q = 2) and
    ``--fdrmc``, nested pairs, rank-capped coset lists and the audit test
    support on packed words: none reads ``MatGF.data``."""
    read, data = [], MatGF.data

    def counted(self):
        read.append(self.rows)
        return data.fget(self)

    def none_read(name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        assert read == [], name
        return out
    optimal_fdrmc.cache_clear()
    gabidulin.cache_clear()
    monkeypatch.setattr(MatGF, "data", property(counted))
    fw = CwcSet(vectors=(IdVec.from_string("1100"),), min_hd=4)
    iv = CwcSet(vectors=(IdVec.from_string("0011", kind="inverse"),), min_hd=4)
    lists = [none_read("coset lists", build_coset_cdc_lists, cwc, 2, 1, q, r=r,
                       build=True) for cwc, r in ((fw, None), (fw, None),
                                                  (iv, 0), (iv, None))]
    if q == 2:
        U1 = Cdc(q=q, n=4, k=4, d=4, rows=MatGF.identity(q, 4).packed)
        assert none_read("thm32_build", thm32_build, U1, U1, *lists,
                         r_hat=0).size == 4690
    vectors = "11100000,00011100,10000011" if q == 2 else "1100,0011"
    for args in (["--multilevel", vectors], ["--fdrmc", "F=[1,2,4]"]):
        assert none_read("cli build", cli.main, ["build", *args, "-q", str(q),
                         "--delta", "2", "--out", str(tmp_path / "out")]) == 0
    codes = [optimal_fdrmc(FerrersDiagram((1, 2, 4)), 2, q)]
    for F in (FerrersDiagram((1, 2, 2)), inverse(FerrersDiagram((1, 2, 2)))):
        pair = none_read("nested_pair", nested_pair, F, 2, 1, q)
        none_read("coset_list", coset_list, pair, r=1)
        codes += [pair.c1, pair.c2]
    assert all(none_read("audit_fdrmc", audit_fdrmc, c).passed for c in codes)


def opt(cols, delta, q=2, inverted=False):
    return optimal_fdrmc(FerrersDiagram(cols, inverted=inverted), delta, q)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: transpose(FerrersDiagram((1, 2), inverted=True)),
                 BadArguments, "transpose is defined on the standard convention",
                 id="transpose-mirrored"),
    pytest.param(lambda: nu(FerrersDiagram((1, 2)), 2, 2), BadArguments,
                 "need 0 <= i <= delta-1, got i=2", id="nu-range"),
    pytest.param(lambda: compose_fdrmc(opt((1, 2), 1), opt((1,), 1), 2, 1),
                 DimensionMismatch, "dims 3 != 1", id="compose-dims"),
    pytest.param(lambda: compose_fdrmc(opt((3,), 1, inverted=True),
                                       opt((3,), 1), 3, 1),
                 BadArguments, "compose expects standard-convention inputs",
                 id="compose-mirrored"),
    pytest.param(lambda: compose_fdrmc(opt((3,), 1), opt((3,), 1, q=3), 3, 1),
                 BadArguments, "codes over different fields",
                 id="compose-fields"),
    pytest.param(lambda: compose_fdrmc(opt((1, 2), 1), opt((3,), 1), 1, 1),
                 BadArguments, "need m3 >= 2 and n3 >= 1", id="compose-block"),
    pytest.param(lambda: nested_pair(FerrersDiagram((2, 2)), 1, 2, 2),
                 BadArguments, "need delta1 > delta2 > 0, got 1, 2",
                 id="nested-deltas"),
    pytest.param(lambda: coset_list_inverse(
        nested_pair(FerrersDiagram((2, 2)), 2, 1, 2)), BadArguments,
        "expected a mirrored (inverse-convention) diagram",
        id="coset-list-inverse-standard"),
    pytest.param(lambda: gfrmc_lower_bound(FerrersDiagram((1, 2)), 1, 3, 2),
                 BadArguments, "need n >= r, got n=2, r=3", id="gfrmc-rank"),
])
def test_every_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
