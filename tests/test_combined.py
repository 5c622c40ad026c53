"""The combined construction (Theorem 3.2) as one union.

``thm32_build`` unions the labelled parts of both its halves at once: the
left- and right-lifted parts of ``parallel_linkage`` and the diag[i] and
antidiag[i] parts of ``thm31_build``.  It must give the code that the union
of the two halves gives, name the inner parts of a repeated subspace, and
run every check of both halves before it builds a filler or places a block.
"""

import pytest

from cdckit.cdc import (Cdc, CdcList, CwcSet, IdVec, build_coset_cdc_lists,
                        parallel_linkage, union_cdcs)
from cdckit.errors import BadArguments, DuplicateCodeword, ParameterMismatch
from cdckit.linalg import MatGF, rrief
from cdckit.rankmetric import gabidulin, restrict_ranks
from cdckit.theorems import thm31_build, thm32_build

FW = CwcSet(vectors=(IdVec.from_string("1100"),), min_hd=4)
IV = CwcSet(vectors=(IdVec.from_string("0011", kind="inverse"),), min_hd=4)


def acceptance_lists(build=True):
    """The A, B, Ahat, Bhat of the acceptance-7 build at q = 2."""
    return (build_coset_cdc_lists(FW, 2, 1, 2, build=build),
            build_coset_cdc_lists(FW, 2, 1, 2, build=build),
            build_coset_cdc_lists(IV, 2, 1, 2, r=0, build=build),
            build_coset_cdc_lists(IV, 2, 1, 2, build=build))


def whole_space(n=4, k=4, d=4):
    """The one k-subspace of GF(2)^k, or k unit rows in GF(2)^n."""
    return Cdc(q=2, n=n, k=k, d=d, rows=MatGF.identity(2, n).packed[:k])


def test_one_union_gives_the_union_of_both_halves():
    U1, lists = whole_space(), acceptance_lists()
    built = thm32_build(U1, U1, *lists, r_hat=0)
    M1 = gabidulin(2, 4, 4, 2)
    M2 = restrict_ranks(gabidulin(2, 4, 4, 2), 2)
    nested = union_cdcs([("linkage", parallel_linkage(U1, U1, M1, M2)),
                         ("blocks", thm31_build(*lists))], 4,
                        provenance="combined-construction")
    assert built.rows == nested.rows  # the same rows in the same order
    assert built.size == nested.size == 4690
    assert built.provenance == nested.provenance == "combined-construction"
    assert built == nested


def test_a_repeated_linkage_block_names_its_lifted_part():
    U1, lists = whole_space(), acceptance_lists()
    twice = Cdc(q=2, n=4, k=4, d=4, rows=U1.rows * 2)
    with pytest.raises(DuplicateCodeword) as e:
        thm32_build(twice, U1, *lists, r_hat=0)
    assert str(e.value) == "subspace produced by both left-lifted and left-lifted"


def test_a_repeated_block_names_its_diagonal_parts():
    """A mirrored list made of blocks of A, those whose inverse vector is
    0011 (so the guard passes), places them again beside B's blocks: the
    union names the diag[0] and antidiag[0] parts that hold them."""
    A, B, _, _ = acceptance_lists()
    rows = [v for b in A.codes[0].blocks()
            if set(rrief(MatGF.from_packed(2, 4, b))[1]) == {2, 3} for v in b]
    assert rows
    own = Cdc(q=2, n=4, k=2, d=4, rows=rows)
    Ahat = CdcList(q=2, n=4, k=2, intra_d=4, inter_d=2,
                   sizes=((own.size, 1),), codes=(own,))
    Bhat = CdcList(q=2, n=4, k=2, intra_d=4, inter_d=2,
                   sizes=((B.codes[0].size, 1),), codes=B.codes[:1])
    with pytest.raises(DuplicateCodeword) as e:
        thm32_build(whole_space(), whole_space(), A, B, Ahat, Bhat, r_hat=0)
    assert str(e.value) == "subspace produced by both diag[0] and antidiag[0]"


def shaped(lists, **changes):
    """The lists, the first counted one re-made with ``changes``."""
    L = lists[0]
    fields = dict(q=L.q, n=L.n, k=L.k, intra_d=L.intra_d, inter_d=L.inter_d,
                  sizes=L.sizes, codes=L.codes)
    return (CdcList(**{**fields, **changes}), *lists[1:])


@pytest.mark.parametrize("U1, U2, lists, error, message", [
    pytest.param(whole_space(), whole_space(), acceptance_lists(build=False),
                 BadArguments, "build mode needs materialized lists",
                 id="counted-lists"),
    pytest.param(whole_space(), whole_space(),
                 shaped(acceptance_lists(build=False), n=5), ParameterMismatch,
                 "forward and mirrored lists disagree on shape", id="list-shapes"),
    pytest.param(whole_space(), whole_space(),
                 shaped(acceptance_lists(build=False), inter_d=1), ParameterMismatch,
                 "across-list distances must sum to 4", id="list-distances"),
    pytest.param(whole_space(), whole_space(k=3), acceptance_lists(),
                 ParameterMismatch, "component codes disagree on (q, k, d)",
                 id="linkage-codes"),
    # at d = 3 the fillers' rank distance d // 2 = 1 falls short of d
    pytest.param(whole_space(d=3), whole_space(d=3), acceptance_lists(),
                 ParameterMismatch, "left filler must be 4x4 at distance 1",
                 id="linkage-filler"),
])
def test_every_refusal_comes_before_any_filler_or_block(monkeypatch, U1, U2, lists,
                                                        error, message):
    def never(*args, **kwargs):
        raise AssertionError("built before every check ran")
    monkeypatch.setattr("cdckit.cdc._place", never)
    monkeypatch.setattr("cdckit.theorems.gabidulin", never)
    monkeypatch.setattr("cdckit.theorems.restrict_ranks", never)
    with pytest.raises(error) as e:
        thm32_build(U1, U2, *lists, r_hat=0)
    assert str(e.value) == message
