import pytest

from cdckit.cdc import (Cdc, CdcList, CwcSet, IdVec, build_coset_cdc_lists,
                        ferrers_of, hamming_guard, parallel_linkage)
from cdckit.errors import (BadArguments, GuardFailed, NotInRegistry,
                           ParameterMismatch, ParseError,
                           RankRestrictionViolated)
from cdckit import theorems
from cdckit.ferrers import FerrersDiagram, singleton_bound
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import MatGF, Subspace, gaussian_binomial, rrief
from cdckit.rankmetric import gabidulin, lift, restrict_ranks
from cdckit.theorems import (BoundResult, OddDeltaUnsupported,
                             consistency_report,
                             example3_parts, example8_parts, example_bound,
                             family_value, lifted_mrd_size, load_registry,
                             recompute_value, table11_bound, th41_bound,
                             th41_cwc, th42_insert, th44_bound,
                             th44_extra_vector, th45_insert, thm31_build,
                             thm31_count, thm32_build, thm32_count)
from cdckit.verify import check_cdc


def fw(s):
    return IdVec.from_string(s)


def iv(s):
    return IdVec.from_string(s, kind="inverse")


# ---------------------------------------------------------------------------
# vector families
# ---------------------------------------------------------------------------

def test_th41_cwc_even_delta():
    cwc = th41_cwc(19, 9, 4)
    assert len(cwc.vectors) == 4
    for i, a in enumerate(cwc.vectors):
        for b in cwc.vectors[i + 1:]:
            assert hamming_guard(a, b) >= 8


def test_th41_cwc_delta_three():
    cwc = th41_cwc(15, 6, 3)
    assert len(cwc.vectors) == 6
    for i, a in enumerate(cwc.vectors):
        for b in cwc.vectors[i + 1:]:
            assert hamming_guard(a, b) >= 6
    # below n = k + 9 the sixth vector no longer fits
    with pytest.raises(BadArguments):
        th41_cwc(12, 6, 3)


def test_th41_cwc_rejections():
    with pytest.raises(OddDeltaUnsupported):
        th41_cwc(30, 13, 5)
    with pytest.raises(BadArguments):
        th41_cwc(11, 6, 3)
    with pytest.raises(BadArguments):
        th41_cwc(16, 5, 3)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def test_th41_bound_values():
    r = th41_bound(3, 19, 4, 9)
    assert r.value == 42391159260137223209995120164
    assert r.polynomial == ((1, 60), (1, 44), (1, 36), (1, 28))
    r2 = th41_bound(3, 16, 3, 7)
    assert r2.polynomial == ((1, 45), (1, 36), (2, 31), (1, 26), (1, 21))
    # term count equals the family size
    assert sum(c for c, _ in r.polynomial) == 4
    assert sum(c for c, _ in r2.polynomial) == 6


def test_th44_bound_values():
    assert th44_bound(3, 16, 3, 6).value == 12158308561614895971
    assert th44_bound(3, 17, 3, 7).value == 717934761497715615667197
    # the published table value for (15,6,6) exceeds the reconstruction
    honest = th44_bound(3, 15, 3, 6)
    assert honest.value == 150102574834751811
    assert honest.polynomial == ((1, 36), (1, 27), (1, 24), (1, 22), (1, 17),
                                 (1, 12), (1, 2))
    assert family_value(3, 15, 6, 6) - honest.value == 3 ** 22 - 3 ** 17


def test_th44_requires_longer_ambient():
    with pytest.raises(BadArguments):
        th44_bound(3, 13, 3, 6)


def test_th44_rejects_distances_above_the_hook_code():
    # the hook code on the spare vector has rank distance 3; at delta = 4 the
    # spare diagram F=[1x9, 5, 9] holds at most one codeword, not q^4
    v = th44_extra_vector(20, 9)
    assert str(v) == "10000000001111011110"
    assert singleton_bound(ferrers_of(v).diagram, 4) == 0
    with pytest.raises(BadArguments):
        th44_bound(2, 20, 4, 9)


# ---------------------------------------------------------------------------
# the worked recipes
# ---------------------------------------------------------------------------

def test_example3_matches_family_all_orders():
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert example_bound("3", q).value == family_value(q, 18, 8, 9)


def test_example3_part_sizes():
    q = 2
    A, B, Ahat, Bhat = example3_parts(q)
    _, c3 = __import__("cdckit.cdc", fromlist=["zip_runs"]).zip_runs(A.sizes, B.sizes)
    assert c3 == q ** 20 + q ** 5
    _, c4 = __import__("cdckit.cdc", fromlist=["zip_runs"]).zip_runs(Ahat.sizes, Bhat.sizes)
    assert c4 == q ** 5 + 1


def test_example4_matches_family():
    for q in (3, 4, 7, 8):
        assert example_bound("4", q).value == family_value(q, 19, 8, 9)


def test_example5_recomputation_gap():
    # the published row exceeds the honest evaluation by q^38-q^36+q^12-q^9
    for q in (3, 4):
        honest = example_bound("5", q).value
        printed = family_value(q, 17, 6, 8)
        assert printed - honest == q ** 38 - q ** 36 + q ** 12 - q ** 9
    assert example_bound("5", 3).value == 58152703673745022372763346


def test_example8_matches_family():
    for q in (3, 4, 5):
        assert example_bound("8", q).value == family_value(q, 19, 6, 8)
    assert example_bound("8", 3).value == 30904731631209804712703574912729


def test_example8_q2_addend():
    # at q = 2 the greatest pairing spills onto the smaller first-block codes
    q = 2
    A, B = example8_parts(q)
    from cdckit.cdc import pair_runs
    _, total = pair_runs(A.sizes, B.sizes)
    expected = sum(q ** e for e in (21, 16, 15, 13, 12, 11, 10, 8, 7))
    assert total == expected


def test_th42_guard_failure():
    # a 4+4 split of k=8 leaves |k - delta + 1 - k1| = 2 < 3
    from cdckit.cdc import CdcList
    q = 3
    A = CdcList(q=q, n=9, k=4, intra_d=6, inter_d=2, sizes=((1, 1),))
    B = CdcList(q=q, n=8, k=4, intra_d=6, inter_d=4, sizes=((1, 1),))
    with pytest.raises(GuardFailed):
        th42_insert(q, 17, 3, 8, 4, A, B, h_size=1)


def test_th45_guards():
    q = 3
    A, B = example8_parts(q)
    bad_b = (fw("1111000001"),)  # trailing block in the wrong place
    with pytest.raises(GuardFailed):
        th45_insert(q, 19, 3, 8, 3, A, B, q ** 5,
                    a_vectors=(fw("011100000"),), b_vectors=bad_b)
    with pytest.raises(GuardFailed):
        th45_insert(q, 19, 3, 8, 3, A, B, q ** 5,
                    a_vectors=(fw("111000000"),),  # must start with 0
                    b_vectors=(fw("1111000010"),))


# ---------------------------------------------------------------------------
# combined construction: counting and a tiny build
# ---------------------------------------------------------------------------

def tiny_lists(q=2):
    A = build_coset_cdc_lists(CwcSet(vectors=(fw("1100"),), min_hd=4),
                              2, 1, q, build=True)
    B = build_coset_cdc_lists(CwcSet(vectors=(fw("1100"),), min_hd=4),
                              2, 1, q, build=True)
    Ahat = build_coset_cdc_lists(CwcSet(vectors=(iv("0011"),), min_hd=4),
                                 2, 1, q, r=0, build=True)
    Bhat = build_coset_cdc_lists(CwcSet(vectors=(iv("0011"),), min_hd=4),
                                 2, 1, q, build=True)
    return A, B, Ahat, Bhat


def test_thm31_tiny_build():
    A, B, Ahat, Bhat = tiny_lists()
    count = thm31_count(A, B, Ahat, Bhat)
    built = thm31_build(A, B, Ahat, Bhat)
    assert built.size == count == 68
    rep = check_cdc(built)
    assert rep.passed and rep.min_distance_found >= 4


def _stacked_thm31(A, B, Ahat, Bhat):
    """Reference stacking of the parallel cosets: [Ua 0; 0 Ub] over
    index-paired (A, B) entries, then the anti-diagonal [0 Vb'; Va' 0] of
    RRIEF generators over index-paired (Ahat, Bhat) entries."""
    q = A.q
    zero12, zero21 = MatGF.zeros(q, A.k, B.n), MatGF.zeros(q, B.k, A.n)
    members = []
    for CA, CB in zip(A.codes, B.codes):
        members += [Subspace.from_matrix(
                        Ua.gen.hstack(zero12).vstack(zero21.hstack(Ub.gen)))
                    for Ua in CA.members for Ub in CB.members]
    for CA, CB in zip(Ahat.codes, Bhat.codes):
        members += [Subspace.from_matrix(
                        zero21.hstack(rrief(Vb.gen)[0]).vstack(
                            rrief(Va.gen)[0].hstack(zero12)))
                    for Va in CA.members for Vb in CB.members]
    return members


@pytest.mark.parametrize("q", [2, 3, 4])
def test_thm31_build_matches_the_stacked_blocks(q):
    A, B, Ahat, Bhat = tiny_lists(q)
    built = thm31_build(A, B, Ahat, Bhat)
    assert list(built.members) == _stacked_thm31(A, B, Ahat, Bhat)
    assert built.size == thm31_count(A, B, Ahat, Bhat)


def test_thm31_build_enforces_the_rank_restriction():
    # an unrestricted mirrored list relabelled as restricted to rank 0
    A, B, _, Bhat = tiny_lists()
    Ahat = CdcList(Bhat.q, Bhat.n, Bhat.k, Bhat.intra_d, Bhat.inter_d, Bhat.sizes,
                   Bhat.codes, restricted_rank=0)
    with pytest.raises(RankRestrictionViolated):
        thm31_build(A, B, Ahat, Bhat)


def test_thm32_tiny_build_matches_count():
    q = 2
    A, B, Ahat, Bhat = tiny_lists(q)
    count = thm32_count(q, 4, 4, 4, 4, A, B, Ahat, Bhat, r_hat=0,
                        u1_vectors=(fw("1100"),), uhat2_vectors=(iv("0011"),))
    U1 = Cdc(q=q, n=4, k=4, d=4,
             members=(Subspace.from_matrix(MatGF.identity(q, 4)),))
    built = thm32_build(U1, U1, A, B, Ahat, Bhat, r_hat=0)
    assert built.size == count == 4690
    rep = check_cdc(built, max_pairs=12_000_000)
    assert rep.passed and rep.min_distance_found == 4


def test_thm32_guard_violation():
    q = 2
    A, B, Ahat, Bhat = tiny_lists(q)
    with pytest.raises(GuardFailed):
        thm32_count(q, 4, 4, 4, 4, A, B, Ahat, Bhat, r_hat=1,
                    u1_vectors=(fw("1100"),), uhat2_vectors=(iv("0011"),))


def test_lifted_mrd_size_provider():
    assert lifted_mrd_size(2, 9, 8, 9) == 1
    assert lifted_mrd_size(2, 9, 8, 4) == 2 ** (5 * 1)
    assert lifted_mrd_size(3, 18, 8, 9) == 3 ** (9 * 6)


def lift_shapes():
    """(q, n, k, delta) of every lifted Gabidulin code with k <= 5,
    k < n <= 2k + 2 and 1 <= delta <= min(k, n - k), up to 2^14 codewords
    (an MRD code has q^(max(k, n-k) (min(k, n-k) - delta + 1)))."""
    for q in SUPPORTED_ORDERS:
        for k in range(1, 6):
            for n in range(k + 1, 2 * k + 3):
                lo, hi = sorted((k, n - k))
                for delta in range(1, lo + 1):
                    if q ** (hi * (lo - delta + 1)) <= 2 ** 14:
                        yield q, n, k, delta


def test_lifted_mrd_size_counts_the_lift():
    """Both sides of n = 2k, where the MRD exponent takes the longer side."""
    shapes = list(lift_shapes())
    assert len(shapes) == 186
    for q, n, k, delta in shapes:
        built = lift(gabidulin(q, k, n - k, delta))
        assert lifted_mrd_size(q, n, 2 * delta, k) == built.size, (q, n, k, delta)
    assert lifted_mrd_size(2, 6, 4, 4) == 16  # A_2(6, 4, 4) = 21


@pytest.mark.parametrize("q, k, d, n1, n2, size", [
    (2, 3, 4, 5, 5, 8200), (2, 3, 4, 5, 6, 32832), (3, 3, 4, 5, 3, 19684),
    (2, 4, 4, 4, 4, 4622)])
def test_linkage_part_of_thm32_counts_the_certified_build(q, k, d, n1, n2, size):
    """``thm32_count`` less ``thm31_count`` is the size of the parallel
    linkage ``thm32_build`` places: the lifted U_i (or the whole space when
    n_i = k) with the k x n2 MRD code on the left and the rank-capped
    k x n1 MRD code on the right, at n_i below, at and above 2k."""
    delta = d // 2

    def U(n):
        if n == k:
            return Cdc(q=q, n=k, k=k, d=d,
                       members=(Subspace.from_matrix(MatGF.identity(q, k)),))
        return lift(gabidulin(q, k, n - k, delta))
    A = build_coset_cdc_lists(CwcSet(vectors=(fw("1100"),), min_hd=4), 2, 1, q)
    Ahat = build_coset_cdc_lists(CwcSet(vectors=(iv("0011"),), min_hd=4),
                                 2, 1, q, r=0)
    Bhat = build_coset_cdc_lists(CwcSet(vectors=(iv("0011"),), min_hd=4),
                                 2, 1, q)
    count = thm32_count(q, n1, n2, d, k, A, A, Ahat, Bhat, r_hat=0,
                        u1_vectors=(fw("1100"),), uhat2_vectors=(iv("0011"),))
    built = parallel_linkage(U(n1), U(n2), gabidulin(q, k, n2, delta),
                             restrict_ranks(gabidulin(q, k, n1, delta), k - delta))
    assert count - thm31_count(A, A, Ahat, Bhat) == built.size == size
    rep = check_cdc(built, max_pairs=10 ** 7)
    assert rep.passed and rep.min_distance_found == d


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_full_validation():
    rows, order = load_registry()
    assert len(order) == 65
    for (q, n, d, k) in order:
        new, old = rows[(q, n, d, k)]
        assert family_value(q, n, d, k) == new, (q, n, d, k)
        assert new > old


def test_table11_bound_lookup():
    r = table11_bound(2, 18, 8, 9)
    assert r.value == 18015215399116937
    assert r.old_bound == 18015215398101558
    assert r.difference == 1015379
    assert not r.notes
    with pytest.raises(NotInRegistry):
        table11_bound(2, 19, 8, 9)


def test_consistency_report_flags_exactly_the_published_slips():
    report = consistency_report()
    off = {(r["q"], r["n"], r["d"], r["k"]) for r in report if not r["match"]}
    assert off == {(q, 17, 6, 8) for q in (3, 4, 5, 7, 8, 9)} \
        | {(q, 15, 6, 6) for q in (3, 4, 5, 7, 8, 9)}
    for r in report:
        if not r["match"]:
            assert r["registry"] > r["recomputed"]


def test_the_unreconciled_rows_miss_by_fixed_polynomials():
    rows, _ = load_registry()
    for q in (3, 4, 5, 7, 8, 9):
        assert rows[(q, 15, 6, 6)][0] - recompute_value(q, 15, 6, 6) \
            == q ** 22 - q ** 17
        assert rows[(q, 17, 6, 8)][0] - recompute_value(q, 17, 6, 8) \
            == q ** 38 - q ** 36 + q ** 12 - q ** 9


QFREE = (th41_cwc, theorems._check_th44_vector, ferrers_of, singleton_bound,
         gaussian_binomial)


def clear_qfree():
    for fn in QFREE:
        fn.cache_clear()


def test_cold_and_warm_caches_give_the_same_report():
    clear_qfree()
    cold = consistency_report()
    warm = consistency_report()
    clear_qfree()
    assert cold == warm == consistency_report()
    # one vector family per (n, d, k) family, whatever the number of q
    families = {(r["n"], r["d"], r["k"]) for r in cold}
    assert th41_cwc.cache_info().currsize <= len(families)


def test_caches_never_keep_a_failure():
    clear_qfree()
    for _ in range(2):
        with pytest.raises(BadArguments):
            th41_cwc(10, 5, 1)
        with pytest.raises(OddDeltaUnsupported):
            th41_cwc(30, 13, 5)
        with pytest.raises(BadArguments):
            theorems._check_th44_vector(10, 5, 1)
        with pytest.raises(BadArguments):
            gaussian_binomial(3, 4, 2)
        with pytest.raises(BadArguments):
            singleton_bound(FerrersDiagram((1, 2)), 0)
        with pytest.raises(BadArguments):
            ferrers_of(fw("0000"))


def test_recompute_matches_example_sources():
    assert recompute_value(3, 19, 8, 9) == th41_bound(3, 19, 4, 9).value
    assert recompute_value(3, 18, 6, 7) == th44_bound(3, 18, 3, 7).value


def test_recompute_outside_registry():
    with pytest.raises(NotInRegistry):
        recompute_value(2, 20, 6, 7)


def test_insertion_union_tiny_build():
    # guard-compliant union of a block construction with an outside code:
    # n=11, k=5, d=4, split k1=2/k2=3; the outside member has x=5 ones on
    # the first block, so 2|x - k1| = 6 clears the distance requirement
    from cdckit.cdc import coset_construction, insertion_guard, union_cdcs
    from cdckit.cdc import CdcList
    from cdckit.rankmetric import gabidulin
    q = 2
    A_full = build_coset_cdc_lists(CwcSet(vectors=(fw("110000"),), min_hd=4),
                                   2, 1, q, build=True)
    B_full = build_coset_cdc_lists(CwcSet(vectors=(fw("11100"),), min_hd=4),
                                   2, 1, q, build=True)
    A = CdcList(q=q, n=6, k=2, intra_d=4, inter_d=2, sizes=((16, 2),),
                codes=A_full.codes[:2])
    B = CdcList(q=q, n=5, k=3, intra_d=4, inter_d=2, sizes=((8, 2),),
                codes=B_full.codes[:2])
    H = gabidulin(q, 2, 2, 2)
    blocks = coset_construction(A, B, H)
    assert blocks.size == 2 * 16 * 8 * 4
    outside = Subspace(q, 11, [[1 if i == j else 0 for j in range(11)]
                               for i in range(5)])
    assert insertion_guard(5, 2, 4)
    combined = union_cdcs(
        [("blocks", blocks),
         ("outside", Cdc(q=q, n=11, k=5, d=4, members=(outside,)))],
        d=4, provenance="insertion-union")
    rep = check_cdc(combined)
    assert rep.passed and rep.min_distance_found >= 4


def block_list(n, k, intra_d=4, inter_d=2):
    return CdcList(q=2, n=n, k=k, intra_d=intra_d, inter_d=inter_d,
                   sizes=((1, 1),))


def registry_file(tmp, text):
    path = tmp / "reg.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: lifted_mrd_size(2, 3, 2, 4), BadArguments,
                 "ambient 3 below dimension 4", id="lifted-mrd-size"),
    pytest.param(lambda tmp: thm31_count(block_list(6, 2), block_list(6, 3),
                                         block_list(7, 2), block_list(6, 3)),
                 ParameterMismatch,
                 "forward and mirrored lists disagree on shape",
                 id="thm31-shape"),
    pytest.param(lambda tmp: thm31_build(*[block_list(6, 2)] * 4),
                 BadArguments, "build mode needs materialized lists",
                 id="thm31-materialized"),
    pytest.param(lambda tmp: th42_insert(2, 13, 2, 5, 2, block_list(6, 2),
                                         block_list(6, 3), 1),
                 ParameterMismatch, "block lengths must sum to n",
                 id="insert-n"),
    pytest.param(lambda tmp: th42_insert(2, 12, 2, 5, 3, block_list(6, 2),
                                         block_list(6, 3), 1),
                 ParameterMismatch, "list dimensions must split k",
                 id="insert-k"),
    pytest.param(lambda tmp: th42_insert(2, 12, 2, 5, 2, block_list(6, 2),
                                         block_list(6, 3, inter_d=1), 1),
                 ParameterMismatch, "across-list distances must sum to 4",
                 id="insert-block-params"),
    pytest.param(lambda tmp: th42_insert(2, 12, 2, 5, 1, block_list(6, 1),
                                         block_list(6, 4), 1),
                 BadArguments, "both split dimensions must be at least delta",
                 id="insert-k1"),
    pytest.param(lambda tmp: th42_insert(2, 12, 2, 5, 2, block_list(5, 2),
                                         block_list(7, 3), 1),
                 BadArguments, "first block must be longer than k",
                 id="th42-block"),
    pytest.param(lambda tmp: th45_insert(2, 12, 1, 5, 2, block_list(6, 2),
                                         block_list(6, 3), 1, (), ()),
                 BadArguments, "delta must be at least 2", id="th45-delta"),
    pytest.param(lambda tmp: th45_insert(2, 12, 2, 5, 2, block_list(7, 2),
                                         block_list(5, 3), 1, (), ()),
                 GuardFailed, "first block must have length k+1, got 7",
                 id="th45-block"),
    pytest.param(lambda tmp: example_bound("9", 2), BadArguments,
                 "unknown example '9'; have ['3', '4', '5', '8']",
                 id="example-unknown"),
    pytest.param(lambda tmp: load_registry(registry_file(tmp, "2 18 8 9\n")),
                 ParseError, "line 1: expected 'q n d k new [old]'",
                 id="registry-field-count"),
])
def test_every_guard_raises_its_message(tmp_path, call, error, message):
    with pytest.raises(error) as e:
        call(tmp_path)
    assert str(e.value) == message


def test_a_bound_without_a_polynomial_prints_none():
    assert BoundResult(q=2, n=4, d=2, k=2, value=35, source="x").polynomial_str() == ""
