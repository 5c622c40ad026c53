import itertools
import random
from collections import Counter

import pytest

from cdckit import cdc
from cdckit.cdc import (Cdc, CdcList, CwcSet, IdVec, build_coset_cdc_lists,
                        concat_cdc_lists, coset_construction, ferrers_of,
                        hamming_guard, identifying_vector, insertion_guard,
                        inverse_identifying_vector, lift_on_vector, multilevel,
                        pair_runs, parallel_linkage, phi_embed,
                        reorder_pairing, zip_runs)
from cdckit.errors import (BadArguments, BadShape, CdcError, DiagramMismatch,
                           DuplicateCodeword, LengthMismatch, NotACwc, NotRref,
                           ParameterMismatch, TooLargeToEnumerate,
                           VerificationFailed)
from cdckit.ferrers import (FdrmCode, FerrersDiagram, coset_list, nested_pair,
                            optimal_fdrmc, support_leaks)
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import MatGF, Subspace, enumerate_subspaces, rank
from cdckit.rankmetric import (LinearMatrixCode, MatrixSet, gabidulin, lift,
                               restrict_ranks)
from cdckit.theorems import thm32_guard
from cdckit.verify import check_cdc

E_U = [[1, 0, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]]


def fw(s):
    return IdVec.from_string(s)


def iv(s):
    return IdVec.from_string(s, kind="inverse")


def test_identifying_vectors_worked_example():
    U = Subspace.from_matrix(MatGF(2, E_U))
    assert str(identifying_vector(U)) == "10110"
    assert str(inverse_identifying_vector(U)) == "00111"


def test_identifying_vector_lifted_shape():
    U = Subspace(2, 5, [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 1, 0]])
    assert str(identifying_vector(U)) == "11100"


@pytest.mark.parametrize("pivots", [[5], [-1], [0, 0], [1, 2, 1], [0.5]])
def test_from_pivots_refuses_columns_outside_or_repeated(pivots):
    with pytest.raises(BadArguments, match=r"distinct columns in range\(3\)"):
        IdVec.from_pivots(3, pivots)


def test_ferrers_of_worked_example():
    lay = ferrers_of(fw("10110"))
    assert lay.diagram.cols == (1, 3) and not lay.diagram.inverted
    lay2 = ferrers_of(iv("00111"))
    assert lay2.diagram.cols == (3, 3) and lay2.diagram.inverted


@pytest.mark.parametrize("kind", ["forward", "inverse"])
def test_ferrers_of_matches_the_per_column_definition(kind):
    """A non-pivot column's height is the number of pivots before it (after
    it, for an inverse vector); the diagram keeps the nonzero heights."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 60)
        bits = [rng.randint(0, 1) for _ in range(n)]
        bits[rng.randrange(n)] = 1
        pivots = [i for i, b in enumerate(bits) if b]
        heights = {c: sum(p < c if kind == "forward" else p > c for p in pivots)
                   for c in range(n) if not bits[c]}
        kept = [c for c in heights if heights[c]]
        lay = ferrers_of(IdVec(tuple(bits), kind))
        assert lay.pivots == tuple(pivots) and lay.col_map == tuple(kept)
        assert lay.diagram == FerrersDiagram(
            tuple(sorted(heights[c] for c in kept)), inverted=kind == "inverse")


def test_ferrers_of_trailing_ones_empty():
    lay = ferrers_of(fw("0011"))
    assert lay.diagram.is_empty()
    code = optimal_fdrmc(lay.diagram, 2, 2)
    out = lift_on_vector(fw("0011"), code)
    assert out.size == 1
    assert out.members[0].gen.data == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_lift_on_vector_full_square():
    v = fw("1100")
    code = optimal_fdrmc(ferrers_of(v).diagram, 2, 2)
    out = lift_on_vector(v, code)
    assert out.size == 4
    rep = check_cdc(out)
    assert rep.passed and rep.min_distance_found == 4
    assert all(identifying_vector(U) == v for U in out.members)


def test_lift_on_vector_equality_branch():
    # same identifying vector: subspace distance is exactly twice rank distance
    from cdckit.linalg import rank, subspace_distance
    v = fw("1100")
    code = optimal_fdrmc(ferrers_of(v).diagram, 1, 2)
    out = lift_on_vector(v, code)
    words = list(code.code.codewords())
    for (i, A), (j, B) in itertools.combinations(enumerate(words), 2):
        assert subspace_distance(out.members[i], out.members[j]) \
            == 2 * rank(A - B)


def test_lift_on_vector_zero_code():
    v = fw("10110")
    lay = ferrers_of(v)
    zero = MatrixSet(2, lay.diagram.m, lay.diagram.n,
                     (MatGF.zeros(2, lay.diagram.m, lay.diagram.n),), 1)
    out = lift_on_vector(v, zero)
    gen = out.members[0].gen
    assert gen.data == ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))


def test_lift_on_vector_diagram_mismatch():
    v = fw("1100")
    wrong = optimal_fdrmc(FerrersDiagram((1, 2)), 2, 2)
    with pytest.raises(DiagramMismatch):
        lift_on_vector(v, wrong)


def skeleton_fill(layout, M):
    """The echelon skeleton of layout filled entry by entry from M's digits:
    the oracle for ``lift_on_vector``."""
    k, n = len(layout.pivots), layout.vec.n
    inv = layout.vec.kind == "inverse"
    rows = [[0] * n for _ in range(k)]
    for i in range(k):
        rows[i][layout.pivots[k - 1 - i] if inv else layout.pivots[i]] = 1
    for i, row in enumerate(M.data):
        for j, x in enumerate(row):
            rows[i][layout.col_map[j]] = x
    return MatGF(M.q, rows)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_lift_on_vector_matches_the_digit_fill(q):
    rng = random.Random(q)
    for s in ("111000", "101010", "010101", "100011", "001110", "110100"):
        for v in (fw(s), iv(s)):
            lay = ferrers_of(v)
            dia = lay.diagram
            members = tuple({MatGF(q, [[rng.randrange(q) if dia.cell_is_dot(i, j)
                                        else 0 for j in range(dia.n)]
                                       for i in range(dia.m)]) for _ in range(12)})
            fdrmc = optimal_fdrmc(dia, min(dia.m, dia.n) or 1, q)
            for code, words in ((MatrixSet(q, dia.m, dia.n, members, 1), members),
                                (fdrmc, fdrmc.code.codewords())):
                out = lift_on_vector(v, code)
                assert list(out.members) == [
                    Subspace.from_matrix(skeleton_fill(lay, M)) for M in words]
                of = (identifying_vector if v.kind == "forward"
                      else inverse_identifying_vector)
                assert all(of(U) == v for U in out.members)


def test_lift_on_vector_rejects_matrices_off_the_diagram():
    v = fw("1010")  # diagram [1, 2]: cell (1, 0) is not a dot
    dia = ferrers_of(v).diagram
    off = MatGF(2, [[0, 0], [1, 0]])
    leaky = FdrmCode(diagram=dia, code=LinearMatrixCode(2, 2, 2, (off,), 1),
                     delta=1, optimal=False)
    with pytest.raises(DiagramMismatch, match="outside the diagram"):
        lift_on_vector(v, leaky)
    with pytest.raises(DiagramMismatch, match="outside the diagram"):
        lift_on_vector(v, MatrixSet(2, 2, 2, (MatGF.zeros(2, 2, 2), off), 1))
    with pytest.raises(DiagramMismatch, match="shape 2x3 vs diagram 2x2"):
        lift_on_vector(v, MatrixSet(2, 2, 3, (MatGF.zeros(2, 2, 3),), 1))


def test_multilevel_tiny_optimum():
    entries = []
    for s in ("1100", "0011"):
        v = fw(s)
        entries.append((v, optimal_fdrmc(ferrers_of(v).diagram, 2, 2)))
    code = multilevel(entries, 2)
    assert code.size == 5 and (code.n, code.k) == (4, 2)
    rep = check_cdc(code)
    assert rep.passed and rep.min_distance_found == 4


def test_multilevel_single_vector_is_lifted_mrd():
    v = fw("11100000")
    mrd = gabidulin(2, 3, 5, 2)
    dia = ferrers_of(v).diagram
    assert dia.cols == (3, 3, 3, 3, 3)
    from cdckit.ferrers import FdrmCode
    code = FdrmCode(diagram=dia, code=mrd, delta=2, optimal=True)
    out = multilevel([(v, code)], 2)
    assert set(out.members) == set(lift(mrd).members)


def test_multilevel_rejects_bad_vectors():
    v1, v2 = fw("1100"), fw("0110")
    code1 = optimal_fdrmc(ferrers_of(v1).diagram, 2, 2)
    code2 = optimal_fdrmc(ferrers_of(v2).diagram, 2, 2)
    with pytest.raises(NotACwc):
        multilevel([(v1, code1), (v2, code2)], 2)


def test_hamming_guard():
    assert hamming_guard(fw("10110"), fw("10110")) == 0
    assert hamming_guard(fw("1100"), fw("0011")) == 4
    with pytest.raises(LengthMismatch):
        hamming_guard(fw("110"), fw("1100"))
    assert insertion_guard(4, 2, 4) and not insertion_guard(3, 2, 4)


def test_subspace_distance_dominates_hamming():
    rng = random.Random(23)
    subs = list(enumerate_subspaces(2, 5, 3))
    for _ in range(1000):
        U, V = rng.sample(subs, 2)
        from cdckit.linalg import subspace_distance
        assert subspace_distance(U, V) >= \
            hamming_guard(identifying_vector(U), identifying_vector(V))
        assert subspace_distance(U, V) >= \
            hamming_guard(inverse_identifying_vector(U),
                          inverse_identifying_vector(V))


def test_phi_embed_worked_example():
    B = MatGF(2, [[1, 1, 0, 0, 1, 0], [0, 1, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1]])
    F = MatGF(2, [[1, 1, 0], [0, 0, 0], [1, 0, 1], [0, 0, 1]])
    out = phi_embed(B, F)
    assert out == MatGF(2, [[0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0],
                            [0, 0, 1, 0, 0, 1], [0, 0, 0, 0, 0, 1]])


def test_phi_embed_identity_prefix_and_zero():
    B = MatGF(2, [[1, 0, 1, 1], [0, 1, 0, 1]])
    F = MatGF(2, [[1, 0], [0, 1], [1, 1]])
    out = phi_embed(B, F)
    assert out == MatGF(2, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]])
    zero = MatGF.zeros(2, 3, 2)
    assert phi_embed(B, zero).is_zero()


def test_phi_embed_round_trip():
    rng = random.Random(31)
    B = MatGF(3, [[1, 0, 2, 0, 1], [0, 1, 1, 0, 2], [0, 0, 0, 1, 1]])
    for _ in range(20):
        F = MatGF(3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        out = phi_embed(B, F)
        back = [[out.data[i][j] for j in (2, 4)] for i in range(2)]
        assert MatGF(3, back) == F


def test_phi_embed_rejects_non_echelon():
    bad = MatGF(2, [[0, 1, 0], [1, 0, 0]])
    with pytest.raises(NotRref):
        phi_embed(bad, MatGF(2, [[1]]))


def lifted_single_list(q=2):
    mrd = gabidulin(q, 2, 2, 2)
    code = lift(mrd)
    return CdcList(q=q, n=4, k=2, intra_d=4, inter_d=2,
                   sizes=((4, 1),), codes=(code,))


def test_coset_construction_tiny():
    A = lifted_single_list()
    B = lifted_single_list()
    H = gabidulin(2, 2, 2, 2)
    out = coset_construction(A, B, H)
    assert out.size == H.size * 4 * 4
    rep = check_cdc(out)
    assert rep.passed and rep.min_distance_found >= 4


def test_coset_construction_degenerate_filler():
    from cdckit.rankmetric import LinearMatrixCode
    A = lifted_single_list()
    B = lifted_single_list()
    H0 = LinearMatrixCode(2, 2, 2, (), 2)
    out = coset_construction(A, B, H0)
    assert out.size == 16
    assert check_cdc(out).passed


def test_coset_construction_parameter_checks():
    A = lifted_single_list()
    B = lifted_single_list()
    bad_H = gabidulin(2, 2, 2, 1)
    with pytest.raises(ParameterMismatch):
        coset_construction(A, B, bad_H)


def test_parallel_linkage_tiny():
    U = lift(gabidulin(2, 2, 2, 2))
    M1 = gabidulin(2, 2, 4, 2)
    M2 = restrict_ranks(gabidulin(2, 2, 4, 2), 0)
    out = parallel_linkage(U, U, M1, M2)
    assert out.size == U.size * M1.size + U.size
    rep = check_cdc(out)
    assert rep.passed and rep.min_distance_found >= 4
    # the zero right-filler embeds the second code right-aligned
    right = [W for W in out.members
             if W.gen.data[0][:4] == (0, 0, 0, 0)]
    assert len(right) == U.size


def stacked_lift(code, side):
    """``[I | W]`` or ``[W | I]`` by ``hstack`` for each codeword W: the
    oracle for ``lift``."""
    ident = MatGF.identity(code.q, code.m)
    words = (code.codewords() if isinstance(code, LinearMatrixCode)
             else code.members)
    return [Subspace.from_matrix(ident.hstack(W) if side == "left"
                                 else W.hstack(ident)) for W in words]


def stacked_linkage(U1, U2, M1, M2):
    """``[Ua | W]`` then ``[W | Ub]`` by ``hstack``: the oracle for
    ``parallel_linkage``."""
    return ([Subspace.from_matrix(Ua.gen.hstack(W))
             for Ua in U1.members for W in M1.codewords()]
            + [Subspace.from_matrix(W.hstack(Ub.gen))
               for Ub in U2.members for W in M2.members])


def stacked_blocks(A, B, H):
    """``[Ua phi_Ub(W); 0 Ub]`` by ``hstack``, ``vstack`` and ``phi_embed``:
    the oracle for ``coset_construction``."""
    zero = MatGF.zeros(A.q, B.k, A.n)
    return [Subspace.from_matrix(Ua.gen.hstack(phi_embed(Ub.gen, W))
                                 .vstack(zero.hstack(Ub.gen)))
            for CA, CB in zip(A.codes, B.codes)
            for Ua in CA.members for Ub in CB.members for W in H.codewords()]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_lifts_match_the_stacked_generators(q):
    """Every lift builds the generators the stacking formulas build, member
    for member and in the same order."""
    rng = random.Random(q)

    def vec(n):
        return [rng.randrange(q) for _ in range(n)]

    def codes(n, k, sizes):  # no member in two codes
        pool = iter(rng.sample(list(enumerate_subspaces(q, n, k)), sum(sizes)))
        return tuple(Cdc(q=q, n=n, k=k, d=2, members=tuple(itertools.islice(pool, s)))
                     for s in sizes)

    words = MatrixSet(q, 2, 3, tuple({MatGF(q, [vec(3), vec(3)]) for _ in range(8)}), 1)
    for code in (gabidulin(q, 2, 3, 2), gabidulin(q, 3, 2, 2), words):
        for side in ("left", "right"):
            assert list(lift(code, side).members) == stacked_lift(code, side)
    # right fillers of rank at most k - d/2 = 1
    z = [0] * 3
    low = MatrixSet(q, 2, 3, tuple({MatGF(q, rows) for v in (vec(3) for _ in range(4))
                                    for rows in ([v, v], [v, z], [z, v])}), 1)
    (U1,), (U2,), M1 = codes(3, 2, [3]), codes(3, 2, [3]), gabidulin(q, 2, 3, 2)
    out = parallel_linkage(U1, U2, M1, low)
    assert list(out.members) == stacked_linkage(U1, U2, M1, low)
    A = CdcList(q=q, n=2, k=1, intra_d=2, inter_d=1, sizes=((2, 1), (1, 1)),
                codes=codes(2, 1, [2, 1]))
    B = CdcList(q=q, n=3, k=1, intra_d=2, inter_d=1, sizes=((2, 2),),
                codes=codes(3, 1, [2, 2]))
    H = gabidulin(q, 1, 2, 1)
    out = coset_construction(A, B, H)
    assert list(out.members) == stacked_blocks(A, B, H)


def point_lists(q, a_points, b_points):
    """Index-paired lists of one code each: points of GF(q)^2 and GF(q)^3
    given as vectors, for ``coset_construction`` with a 1 x 2 filler."""
    def code(n, vs):
        return (Cdc(q=q, n=n, k=1, d=2,
                    members=tuple(Subspace(q, n, [v]) for v in vs)),)
    return (CdcList(q=q, n=2, k=1, intra_d=2, inter_d=1, sizes=((len(a_points), 1),),
                    codes=code(2, a_points)),
            CdcList(q=q, n=3, k=1, intra_d=2, inter_d=1, sizes=((len(b_points), 1),),
                    codes=code(3, b_points)))


@pytest.mark.parametrize("b_points,runs", [
    # Ub pivots 0 0 1 2 under each of two Ua: six runs
    ([(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)], 6),
    # one pivot for every Ub: the runs join across Ua, so one run
    ([(1, 0, 0), (1, 1, 0), (1, 0, 1)], 1)])
def test_coset_blocks_place_each_run_of_equal_pivots_once(monkeypatch, b_points, runs):
    """Consecutive (Ua, Ub) pairs whose Ub share pivots are placed by one
    ``_place`` call; members and their order stay the stacked oracle's."""
    A, B = point_lists(3, [(1, 0), (0, 1)], b_points)
    H, calls, real = gabidulin(3, 1, 2, 1), [], cdc._place
    monkeypatch.setattr(cdc, "_place", lambda *a: calls.append(a) or real(*a))
    out = coset_construction(A, B, H)
    assert len(calls) == runs
    assert list(out.members) == stacked_blocks(A, B, H)


def test_coset_blocks_keep_their_duplicate_errors():
    """A member repeated in a list code repeats subspaces across pairs, which
    the union reports with the part; a filler that repeats a codeword
    repeats subspaces within a pair, which the placement reports."""
    A, B = point_lists(2, [(1, 0), (1, 0)], [(1, 0, 0), (1, 1, 0)])
    with pytest.raises(DuplicateCodeword, match=r"both block\[0\] and block\[0\]"):
        coset_construction(A, B, gabidulin(2, 1, 2, 1))
    A, B = point_lists(2, [(1, 0), (0, 1)], [(1, 0, 0), (1, 1, 0)])
    X = MatGF(2, [[1, 1]])
    with pytest.raises(VerificationFailed, match="placement produced duplicate"):
        coset_construction(A, B, LinearMatrixCode(2, 1, 2, (X, X), 1))


def test_union_and_placement_keep_their_messages():
    """The union names the two parts of a repeated subspace, in part order,
    also when one part repeats it; the placement reports a filler that
    repeats a codeword."""
    small, large = lift(gabidulin(2, 2, 2, 2)), lift(gabidulin(2, 2, 2, 1))
    with pytest.raises(DuplicateCodeword) as e:
        cdc.union_cdcs([("mrd", small), ("full", large)], d=2)
    assert str(e.value) == "subspace produced by both mrd and full"
    twice = Cdc(q=2, n=4, k=2, d=2, members=small.members[:2] * 2)
    with pytest.raises(DuplicateCodeword) as e:
        cdc.union_cdcs([("empty", Cdc(q=2, n=4, k=2, d=2, members=())),
                        ("twice", twice)], d=2)
    assert str(e.value) == "subspace produced by both twice and twice"
    X = MatGF(2, [[1, 1], [0, 1]])
    units = MatGF.identity(2, 4).packed
    with pytest.raises(VerificationFailed) as e:
        cdc._place(2, 4, [units[:2]], range(2, 4), MatrixSet(2, 2, 2, (X, X), 2))
    assert str(e.value) == "placement produced duplicate subspaces"


@pytest.mark.parametrize("q", [2, 3, 4])
def test_a_code_made_from_rows_equals_one_made_from_members(q):
    code = lift(gabidulin(q, 2, 3, 2), "right")
    assert "members" not in vars(code)
    members = tuple(Subspace.from_matrix(MatGF.from_packed(q, code.n, b))
                    for b in code.blocks())
    same = Cdc(q=q, n=code.n, k=code.k, d=code.d, members=members,
               provenance=code.provenance)
    assert same == code and hash(same) == hash(code)
    assert same.size == code.size == q ** 3 and same.rows == code.rows
    assert code.members == members == code.members and "members" not in vars(code)
    assert same.members == members and "members" not in vars(same)
    for wrong in ((q, code.n + 1, code.k), (q, code.n, code.k + 1),
                  (5 - q % 2, code.n, code.k)):
        with pytest.raises(ParameterMismatch):
            Cdc(*wrong, d=code.d, members=members)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_a_matrix_set_made_from_words_equals_one_made_from_members(q):
    code = gabidulin(q, 2, 3, 2)
    members = tuple(code.codewords())
    made = MatrixSet(q, 2, 3, members, 2)
    same = MatrixSet(q, 2, 3, delta=2, words=code.words)
    assert "members" not in vars(same)
    assert same == made and hash(same) == hash(made)
    assert same.size == made.size == q ** 3 and same.words == made.words
    assert same.members == members == same.members and "members" not in vars(same)
    assert made.members == members and "members" not in vars(made)
    with pytest.raises(BadShape):
        MatrixSet(q, 3, 2, members, 2)

    def unmade(ms, words, ranks):  # the oracle: flatten() of the members
        assert "members" not in vars(ms)
        assert ms.words == tuple(M.flatten() for M in words) and ms.ranks == ranks
    codewords = list(code.codewords())
    for t2 in (0, 1, 2):
        low = [M for M in codewords if rank(M) <= t2]
        unmade(restrict_ranks(code, t2), low, tuple(map(rank, low)))
    # the cosets of the distance-2 code on F = [1, 2] in the distance-1 one
    pair = nested_pair(FerrersDiagram((1, 2)), 2, 1, q)
    reps = LinearMatrixCode(q, 2, 2, pair.quotient, 1).codewords()
    cosets = [[R + W for W in pair.c1.code.codewords()] for R in reps]
    assert len(cosets) == q ** 2
    for c, oracle in zip(coset_list(pair), cosets, strict=True):
        unmade(c, oracle, None)
        with pytest.raises(BadArguments):  # ranks unknown
            restrict_ranks(c, 0)
    for c, oracle in zip(coset_list(pair, r=0), cosets, strict=True):
        low = [M for M in oracle if M.is_zero()]
        unmade(c, low, (0,) * len(low))


def test_matrix_sets_are_restricted_and_placed_without_a_matgf_per_member(monkeypatch):
    code = gabidulin(2, 4, 4, 2)
    pair = nested_pair(FerrersDiagram((4, 4, 4, 4)), 3, 2, 2)
    code.ranks, pair.c2.code.words  # ranked and enumerated beforehand
    made, from_packed = [], MatGF.from_packed.__func__
    monkeypatch.setattr(MatGF, "from_packed", classmethod(
        lambda cls, *args: made.append(args) or from_packed(cls, *args)))
    low = restrict_ranks(code, 2)
    cosets = coset_list(pair, r=2)
    placed = [lift(low, "right"), lift_on_vector(fw("11110000"), cosets[1])]
    assert low.size == sum(c.size for c in cosets) == 526
    assert [c.size for c in placed] == [526, cosets[1].size]
    assert len(made) < 20, len(made)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_a_matrix_set_off_the_diagram_is_rejected_at_every_q(q):
    """Every pair of nonzero entries on a cell outside the diagram is a
    leak, at every entry width; entries on the dots are not."""
    v = fw("1010")  # diagram [1, 2]: cell (1, 0) is not a dot
    for a, b in itertools.combinations_with_replacement(range(1, q), 2):
        leaky = (MatGF(q, [[0, a], [0, 0]]), MatGF(q, [[0, 0], [a, 0]]),
                 MatGF(q, [[b, 0], [b, 0]]))
        with pytest.raises(DiagramMismatch, match="outside the diagram"):
            lift_on_vector(v, MatrixSet(q, 2, 2, leaky, 1))
        on_dots = (MatGF(q, [[a, b], [0, a]]), MatGF(q, [[b, 0], [0, b]]))
        assert lift_on_vector(v, MatrixSet(q, 2, 2, on_dots, 1)).size == 2


def test_fillers_of_another_field_or_shape_are_rejected():
    for side in ("left", "right"):  # a 3x2 member in a code of 2x2 matrices
        with pytest.raises(BadShape):
            lift(MatrixSet(2, 2, 2, (MatGF.zeros(2, 3, 2),), 1), side)
    U = lift(gabidulin(2, 2, 2, 2))
    M1, M2 = gabidulin(2, 2, 4, 2), restrict_ranks(gabidulin(2, 2, 4, 2), 0)
    M1_4, M2_4 = gabidulin(4, 2, 4, 2), restrict_ranks(gabidulin(4, 2, 4, 2), 0)
    with pytest.raises(BadShape):
        parallel_linkage(U, U, M1_4, M2)
    with pytest.raises(BadShape):
        parallel_linkage(U, U, M1, M2_4)
    A = B = lifted_single_list()
    with pytest.raises(BadShape):
        coset_construction(A, B, gabidulin(4, 2, 2, 2))


def test_every_lift_keeps_the_enumeration_cap():
    v = fw("1111100000")  # 25 dots: 2^25 codewords at delta 1
    with pytest.raises(TooLargeToEnumerate):
        lift_on_vector(v, optimal_fdrmc(ferrers_of(v).diagram, 1, 2))
    for side in ("left", "right"):
        with pytest.raises(TooLargeToEnumerate):
            lift(gabidulin(2, 5, 5, 1, verify=False), side)


def test_reorder_pairing_dominates_permutations():
    rng = random.Random(41)
    for _ in range(100):
        a = sorted((rng.randrange(1, 100) for _ in range(6)), reverse=True)
        b = sorted((rng.randrange(1, 100) for _ in range(6)), reverse=True)
        _, best = reorder_pairing(a, b)
        perm = list(range(6))
        rng.shuffle(perm)
        assert sum(a[i] * b[perm[i]] for i in range(6)) <= best


def test_reorder_pairing_all_equal():
    _, total = reorder_pairing([3, 3, 3], [5, 5, 5])
    assert total == 45


def test_zip_runs_truncation():
    runs, total = zip_runs([(10, 2)], [(7, 1), (5, 5)])
    assert runs == ((70, 1), (50, 1)) and total == 120


def test_pair_runs_table_data():
    # the worked reordered pairing at q=3, frozen from exact arithmetic
    q = 3
    a = [(q ** 6 + q ** 3 + 1, 1), (q ** 6 + q ** 3, q ** 6 - 1),
         (q ** 6, q ** 12 - q ** 6)]
    b = [(q ** 5 + 1, q ** 3), (q ** 5, q ** 5 - q ** 3), (q + 1, 2 * q ** 2),
         (q, q ** 3 - q ** 2), (1, q ** 3 - q ** 2 + q)]
    _, total = pair_runs(a, b)
    assert total == 44772832
    # the published polynomial for this pairing overcounts by q^3 - 1
    published = (q ** 16 + q ** 13 + q ** 10 + 3 * q ** 9 + q ** 8
                 + 2 * q ** 7 + 3 * q ** 6 + 2 * q ** 5 + q ** 4 + q ** 3)
    assert published - total == q ** 3 - 1


def check_list_runs(vectors, d1, d2, q, expected):
    cwc = CwcSet(vectors=vectors, min_hd=2 * d1)
    out = build_coset_cdc_lists(cwc, d1, d2, q)
    assert out.sizes == tuple(expected)
    return out


def test_coset_list_sizes_two_block_split():
    # the 9-bit two-vector family: one large column plus a degenerate one
    for q in (2, 3):
        check_list_runs((fw("111110000"), fw("000011111")), 4, 2, q,
                        [(q ** 5 + 1, 1), (q ** 5, q ** 10 - 1)])


def test_coset_list_sizes_three_vector_family():
    for q in (2, 3):
        check_list_runs((fw("111000000"), fw("000111000"), fw("000000111")),
                        3, 1, q,
                        [(q ** 6 + q ** 3 + 1, 1), (q ** 6 + q ** 3, q ** 6 - 1),
                         (q ** 6, q ** 12 - q ** 6)])


def test_coset_list_sizes_inverse_family():
    for q in (2, 3):
        check_list_runs((iv("000011111"), iv("111110000")), 4, 2, q,
                        [(q ** 5 + 1, 1), (q ** 5, q ** 10 - 1)])


def test_coset_list_sizes_single_vector():
    out = check_list_runs((fw("11111000"),), 3, 2, 2, [(2 ** 5, 2 ** 5)])
    assert out.length == 2 ** 5


def test_coset_list_ten_bit_family():
    # the 10-bit tables behind the largest worked insertion
    for q in (2, 3):
        check_list_runs((fw("1111000010"), fw("1000111010")), 3, 2, q,
                        [(q ** 11 + q ** 3, q ** 4), (q ** 11, q ** 5 - q ** 4)])
        check_list_runs((fw("0110110010"),), 3, 2, q, [(q ** 6, q ** 4)])
        check_list_runs((fw("0101101010"),), 3, 2, q, [(q ** 4, q ** 4)])
        check_list_runs((fw("0011011010"),), 3, 2, q, [(q ** 2, q ** 4)])


def test_build_mode_matches_count_mode():
    q = 2
    cwc = CwcSet(vectors=(fw("1100"),), min_hd=4)
    counted = build_coset_cdc_lists(cwc, 2, 1, q)
    built = build_coset_cdc_lists(cwc, 2, 1, q, build=True)
    assert counted.sizes == built.sizes == ((4, 4),)
    built.validate_codes()
    # intra distance 4, inter distance 2, exhaustively
    from cdckit.linalg import subspace_distance
    for code in built.codes:
        rep = check_cdc(code)
        assert rep.passed and rep.min_distance_found >= 4
    for c1, c2 in itertools.combinations(built.codes, 2):
        for U in c1.members:
            for V in c2.members:
                assert subspace_distance(U, V) >= 2


def test_build_mode_checks_sizes_against_count_mode(monkeypatch):
    # a coset that loses a member is caught by count mode's sizes
    def short_coset_list(pair, r=None):
        cosets = coset_list(pair, r=r)
        last = cosets[-1]
        return cosets[:-1] + [MatrixSet(last.q, last.m, last.n, last.members[:-1],
                                        last.delta, last.ranks)]
    monkeypatch.setattr(cdc, "coset_list", short_coset_list)
    cwc = CwcSet(vectors=(fw("1100"),), min_hd=4)
    with pytest.raises(VerificationFailed):
        build_coset_cdc_lists(cwc, 2, 1, 2, build=True)


def test_build_mode_restricted():
    q = 2
    cwc = CwcSet(vectors=(iv("0011"),), min_hd=4)
    out = build_coset_cdc_lists(cwc, 2, 1, q, r=0, build=True)
    assert out.sizes[0] == (1, 1)
    assert out.codes[0].members[0].gen.data == ((0, 0, 1, 0), (0, 0, 0, 1))
    counted = build_coset_cdc_lists(cwc, 2, 1, q, r=0)
    assert counted.sizes == out.sizes


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_restricted_lists_count_what_they_build(q):
    """Random single vectors, either kind, of length 3 to 7: the r = 0
    count-mode runs, (1, 1) then (0, s - 1), are the runs of the sizes of
    the codes build mode makes, and each built code passes its certificate.
    A vector whose outer code has more than 2,000 codewords is skipped."""
    rng = random.Random(q)
    lengths = []
    while len(lengths) < 8:
        n = rng.randrange(3, 8)
        ones = set(rng.sample(range(n), rng.randrange(1, n)))
        v = IdVec(tuple(int(i in ones) for i in range(n)),
                  rng.choice(("forward", "inverse")))
        d2 = rng.randrange(1, 3)
        d1 = rng.randrange(d2 + 1, d2 + 3)
        D, s = cdc.coset_cdc_sizes(v, d1, d2, q)
        if D * s > 2000:
            continue
        cwc = CwcSet(vectors=(v,), min_hd=2 * d1)
        built = build_coset_cdc_lists(cwc, d1, d2, q, r=0, build=True)
        runs = sorted(Counter(c.size for c in built.codes).items(), reverse=True)
        assert build_coset_cdc_lists(cwc, d1, d2, q, r=0).sizes == tuple(runs)
        assert all(check_cdc(c).passed for c in built.codes)
        lengths.append(s)
    assert 1 in lengths  # a list of one code has no empty run


def test_concat_lists_sorts_descending():
    q = 2
    l1 = check_list_runs((fw("11111000"),), 3, 2, q, [(q ** 5, q ** 5)])
    l2 = build_coset_cdc_lists(CwcSet(vectors=(fw("11000111"),), min_hd=6),
                               3, 2, q)
    merged = concat_cdc_lists([l1, l2])
    assert merged.sizes == ((q ** 5, q ** 5), (1, q ** 3))


def test_multilevel_members_partition_by_vector():
    entries = []
    for s in ("1100", "0011"):
        v = fw(s)
        entries.append((v, optimal_fdrmc(ferrers_of(v).diagram, 2, 2)))
    code = multilevel(entries, 2)
    by_vec = {}
    for U in code.members:
        by_vec.setdefault(str(identifying_vector(U)), []).append(U)
    assert {k: len(v) for k, v in by_vec.items()} == {"1100": 4, "0011": 1}


def count_list(n, k, intra_d=4, inter_d=2, codes=None):
    return CdcList(q=2, n=n, k=k, intra_d=intra_d, inter_d=inter_d,
                   sizes=((1, 1),), codes=codes)


LIFTED = lift(gabidulin(2, 2, 2, 2))   # (4, 4, 4, 2)_2
M1, M2 = gabidulin(2, 2, 2, 2), restrict_ranks(gabidulin(2, 2, 2, 2), 0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: IdVec((1, 0), "sideways"), BadArguments,
                 "kind must be 'forward' or 'inverse'", id="idvec-kind"),
    pytest.param(lambda: cdc.union_cdcs(
        [("a", LIFTED), ("b", lift(gabidulin(2, 1, 2, 1)))], d=2),
        ParameterMismatch, "union of incompatible codes", id="union-incompatible"),
    pytest.param(lambda: cdc.union_cdcs(
        [("a", Cdc(2, 4, 2, 4, members=()))], d=4),
        BadArguments, "union of empty parts", id="union-empty"),
    pytest.param(lambda: CwcSet(vectors=(), min_hd=2), NotACwc,
                 "empty vector set", id="cwc-empty"),
    pytest.param(lambda: CwcSet(vectors=(fw("1100"), fw("111000")), min_hd=2),
                 NotACwc, "mixed lengths, weights, or kinds", id="cwc-mixed"),
    pytest.param(lambda: lift_on_vector(fw("1100"), gabidulin(2, 2, 2, 1)),
                 BadArguments, "cannot lift a LinearMatrixCode",
                 id="lift-on-vector-type"),
    pytest.param(lambda: multilevel(
        [(fw("1100"), optimal_fdrmc(ferrers_of(fw("1100")).diagram, 1, 2))], 2),
        BadArguments, "code on 1100 has distance 1 < 2", id="multilevel-delta"),
    pytest.param(lambda: phi_embed(MatGF(2, [[1, 0, 0]]), MatGF(2, [[1]])),
                 BadShape, "filler has 1 columns, expected 2", id="phi-width"),
    pytest.param(lambda: build_coset_cdc_lists(
        CwcSet(vectors=(fw("1100"),), min_hd=4), 1, 1, 2),
        BadArguments, "need delta1 > delta2 > 0", id="coset-lists-deltas"),
    pytest.param(lambda: build_coset_cdc_lists(
        CwcSet(vectors=(fw("1100"),), min_hd=2), 2, 1, 2),
        NotACwc, "vector set distance 2 below 4", id="coset-lists-distance"),
    pytest.param(lambda: build_coset_cdc_lists(
        CwcSet(vectors=(fw("1100"),), min_hd=4), 2, 1, 2, r=1),
        BadArguments, "count mode supports only r=0 restriction",
        id="coset-lists-rank"),
    pytest.param(lambda: build_coset_cdc_lists(
        CwcSet(vectors=(fw("1100"), fw("0011")), min_hd=4), 2, 1, 2, r=0),
        BadArguments, "r=0 count mode expects a single vector",
        id="coset-lists-single"),
    pytest.param(lambda: concat_cdc_lists([count_list(4, 2),
                                           count_list(4, 2, inter_d=1)]),
                 ParameterMismatch, "cannot concatenate mismatched lists",
                 id="concat-mismatched"),
    pytest.param(lambda: concat_cdc_lists([]), BadArguments,
                 "no lists to concatenate", id="concat-empty"),
    pytest.param(lambda: concat_cdc_lists([
        build_coset_cdc_lists(CwcSet(vectors=(fw("1100"),), min_hd=4), 2, 1, 2,
                              build=True),
        build_coset_cdc_lists(CwcSet(vectors=(fw("1100"),), min_hd=4), 2, 1, 2)]),
        ParameterMismatch, "cannot concatenate materialized and counted lists",
        id="concat-mixed"),
    pytest.param(lambda: coset_construction(
        count_list(4, 2, codes=()), count_list(4, 2, intra_d=2, codes=()),
        M1), ParameterMismatch, "lists must have within-code distance 4",
        id="block-intra"),
    pytest.param(lambda: coset_construction(
        count_list(4, 2, codes=()), count_list(4, 2, inter_d=1, codes=()),
        M1), ParameterMismatch, "across-list distances must sum to 4",
        id="block-inter"),
    pytest.param(lambda: coset_construction(count_list(4, 2), count_list(4, 2),
                                            M1),
                 BadArguments, "build mode needs materialized lists",
                 id="coset-unmaterialized"),
    pytest.param(lambda: coset_construction(
        count_list(2, 1, codes=()), count_list(3, 2, codes=()), M1),
        ParameterMismatch, "need n >= 2k, got n=5, k=3", id="coset-short"),
    pytest.param(lambda: parallel_linkage(LIFTED, lift(gabidulin(2, 1, 3, 1)),
                                          M1, M2),
                 ParameterMismatch, "component codes disagree on (q, k, d)",
                 id="linkage-components"),
    pytest.param(lambda: parallel_linkage(LIFTED, LIFTED,
                                          gabidulin(2, 2, 3, 2), M2),
                 ParameterMismatch, "left filler must be 2x4 at distance 2",
                 id="linkage-left-shape"),
    pytest.param(lambda: parallel_linkage(LIFTED, LIFTED, gabidulin(2, 2, 4, 2),
                                          restrict_ranks(M1, 0)),
                 ParameterMismatch, "right filler must be 2x4 at distance 2",
                 id="linkage-right-shape"),
    pytest.param(lambda: parallel_linkage(LIFTED, LIFTED, gabidulin(2, 2, 4, 2),
                                          gabidulin(2, 2, 4, 2)),
                 ParameterMismatch, "right filler rank exceeds 0",
                 id="linkage-right-rank"),
])
def test_every_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def _one_shot_sites():
    """(call, items) per function that reads its iterable argument more
    than once."""
    U = tuple(enumerate_subspaces(2, 4, 2))[:2]
    codes = [(s, Cdc(2, 4, 2, 4, members=(V,))) for s, V in zip("ab", U)]
    ml = [(fw(s), optimal_fdrmc(ferrers_of(fw(s)).diagram, 2, 2))
          for s in ("1100", "0011")]
    guard = [fw("111100000"), fw("000011110")]  # only the second pair fails
    dia = ferrers_of(fw("1010")).diagram  # (1, 0) is not a dot
    return {
        "IdVec": (IdVec, (1, 0, 1)),
        "from_pivots": (lambda p: IdVec.from_pivots(3, p), (2, 0)),
        "Cdc": (lambda ms: Cdc(2, 4, 2, 4, members=ms), U),
        "union_cdcs": (lambda parts: cdc.union_cdcs(parts, d=4), codes),
        "multilevel": (lambda entries: multilevel(entries, 2), ml),
        "thm32_guard": (lambda vs: thm32_guard(guard, vs, 0, 8),
                        (iv("000011110"),)),
        "support_leaks": (lambda basis: list(support_leaks(dia, basis)),
                          (MatGF(2, [[0, 0], [1, 0]]),)),
    }


@pytest.mark.parametrize("site", ["IdVec", "from_pivots", "Cdc", "union_cdcs",
                                  "multilevel", "thm32_guard", "support_leaks"])
def test_a_one_shot_iterable_gives_what_a_tuple_gives(site):
    call, items = _one_shot_sites()[site]

    def outcome(arg):
        try:
            return call(arg)
        except CdcError as e:
            return type(e), str(e)
    assert outcome(x for x in items) == outcome(tuple(items))


def test_list_bookkeeping_of_materialized_and_counted_lists():
    """Concatenating materialized lists keeps their codes, largest first;
    a counted list has no codes to validate."""
    built = [build_coset_cdc_lists(CwcSet(vectors=(fw(s),), min_hd=4), 2, 1,
                                   2, build=True) for s in ("1100", "0011")]
    merged = concat_cdc_lists(built)
    assert [c.size for c in merged.codes] == [4, 4, 4, 4, 1]
    assert merged.sizes == ((4, 4), (1, 1))
    merged.validate_codes()
    assert count_list(4, 2).validate_codes() is None


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_rows_that_are_not_whole_codewords_are_refused(q):
    """A row count that is not a multiple of k is refused, not cut to whole
    codewords, so no union can misalign the blocks after a ragged part."""
    code = lift(gabidulin(q, 2, 2, 2))   # (4, q^2, 4, 2)_q
    rows = code.rows
    for ragged in (rows[:1], rows[:3], rows[:-1], rows + rows[:1]):
        with pytest.raises(ParameterMismatch) as e:
            Cdc(q, 4, 2, 4, rows=ragged)
        assert str(e.value) == f"{len(ragged)} rows do not make whole 2-row codewords"
    with pytest.raises(ParameterMismatch):
        cdc.union_cdcs([("head", Cdc(q, 4, 2, 4, rows=rows[:2])),
                        ("ragged", Cdc(q, 4, 2, 4, rows=rows[2:-1]))], d=4)
    whole = cdc.union_cdcs([("head", Cdc(q, 4, 2, 4, rows=rows[:2])),
                            ("tail", Cdc(q, 4, 2, 4, rows=rows[2:]))], d=4)
    assert whole.rows == rows and whole.blocks() == code.blocks()
