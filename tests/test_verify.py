from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cdckit import rankmetric, verify
from cdckit.cdc import Cdc, IdVec, ferrers_of, multilevel
from cdckit.errors import BadArguments, ParameterMismatch, TooLarge
from cdckit.ferrers import (FdrmCode, FerrersDiagram, optimal_fdrmc,
                            th43_optimal_fdrmc)
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import (MatGF, Subspace, enumerate_subspaces,
                           gaussian_binomial, kernel_basis, rank)
from cdckit.rankmetric import LinearMatrixCode, gabidulin, lift
from cdckit.verify import audit_fdrmc, brute_force_optimum, check_cdc


def tiny_multilevel():
    entries = []
    for s in ("1100", "0011"):
        v = IdVec.from_string(s)
        entries.append((v, optimal_fdrmc(ferrers_of(v).diagram, 2, 2)))
    return multilevel(entries, 2)


def test_check_cdc_exhaustive_exact_minimum():
    rep = check_cdc(tiny_multilevel())
    assert rep.passed
    assert rep.min_distance_found == 4
    assert rep.pairs_checked == 10


def test_check_cdc_lifted_mrd():
    rep = check_cdc(lift(gabidulin(2, 2, 2, 2)))
    assert rep.passed and rep.min_distance_found == 4


def test_check_cdc_detects_corruption():
    code = tiny_multilevel()
    corrupted = Cdc(q=2, n=4, k=2, d=4,
                    members=code.members + (code.members[0],))
    rep = check_cdc(corrupted)
    assert not rep.passed
    assert any(dist == 0 for _, _, dist in rep.violations)


def test_check_cdc_sampled_deterministic():
    code = lift(gabidulin(2, 3, 3, 2))
    r1 = check_cdc(code, mode="sampled", seed=99, pairs=200)
    r2 = check_cdc(code, mode="sampled", seed=99, pairs=200)
    assert r1.min_distance_found == r2.min_distance_found == 4
    assert r1.violations == r2.violations == []


def test_check_cdc_mode_at_every_code_size():
    """An unknown mode is refused whatever the size, every sampled report
    names its seed, and a check that draws no pair reports no distance."""
    code = lift(gabidulin(2, 2, 2, 2))
    for sub in (code, Cdc(q=2, n=4, k=2, d=4, rows=code.rows[:2]),
                Cdc(q=2, n=4, k=2, d=4)):
        with pytest.raises(ValueError, match="unknown mode"):
            check_cdc(sub, mode="bogus")
        rep = check_cdc(sub, mode="sampled", seed=7)
        assert rep.mode == "sampled(seed=7)" and rep.passed
        assert rep.min_distance_found == (4 if sub.size > 1 else None)
    rep = check_cdc(code, mode="sampled", pairs=0)
    assert rep.mode == "sampled(seed=2024)" and rep.pairs_checked == 0
    assert rep.min_distance_found is None and rep.passed
    assert check_cdc(code, mode="sampled", pairs=1).min_distance_found == 4


def test_check_cdc_pair_cap():
    code = lift(gabidulin(2, 3, 3, 2))
    with pytest.raises(TooLarge):
        check_cdc(code, max_pairs=10)


def test_distance_above_2k_counts_every_pair_against_the_cap():
    # no key level exists above 2k, so the work is all 2016 pairs
    code = lift(gabidulin(2, 3, 3, 2))
    declared = Cdc(q=2, n=6, k=3, d=7, members=code.members)
    with pytest.raises(TooLarge):
        check_cdc(declared, max_pairs=1000)
    rep = check_cdc(declared)
    assert not rep.passed and len(rep.violations) == 2016


def mask_graphs(q, n, k, ds):
    """The oracle graphs on the Grassmannian, one per d: two points are
    adjacent when they share at most q^(k - ceil(d/2)) member vectors."""
    masks = [U.member_mask() for U in enumerate_subspaces(q, n, k)]
    shared = [(i, j, (masks[i] & masks[j]).bit_count())
              for i, j in combinations(range(len(masks)), 2)]
    for d in ds:
        thresh = q ** (k - (d + 1) // 2)
        adj = [0] * len(masks)
        for i, j, s in shared:
            if s <= thresh:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield adj


SMALL_GRASSMANNIANS = [(q, n, k) for q in SUPPORTED_ORDERS
                       for n in range(2, 8) for k in range(1, n)
                       if gaussian_binomial(n, k, q) <= 160]


@pytest.mark.parametrize("q,n,k", SMALL_GRASSMANNIANS)
def test_brute_force_graph_matches_member_masks(q, n, k, monkeypatch):
    """The clique graph built from collision groups equals the member-mask
    graph of dimension min(k, n - k) for every d from 3 to 2k + 2."""
    graphs = []
    monkeypatch.setattr(verify, "_max_clique",
                        lambda adj, *_: graphs.append(adj) or 0)
    ds = range(3, 2 * k + 3)
    for d in ds:
        brute_force_optimum(q, n, k, d)
    assert graphs == list(mask_graphs(q, n, min(k, n - k), ds))


def edges(adj):
    return {(i, j) for i, a in enumerate(adj) for j in range(len(adj))
            if a >> j & 1}


@pytest.mark.parametrize("q,n,k", [(q, n, k) for q, n, k in SMALL_GRASSMANNIANS
                                   if 2 * k > n])
def test_orthogonal_complement_keeps_the_mask_graph(q, n, k):
    """U -> U^perp maps the member-mask graph on the k-subspaces onto the
    one on the (n - k)-subspaces, which brute_force_optimum searches."""
    dual = {U: i for i, U in enumerate(enumerate_subspaces(q, n, n - k))}
    perm = [dual[Subspace(q, n, kernel_basis(U.gen))]
            for U in enumerate_subspaces(q, n, k)]
    ds = range(3, 2 * k + 3)
    for adj, dual_adj in zip(mask_graphs(q, n, k, ds),
                             mask_graphs(q, n, n - k, ds)):
        assert {(perm[i], perm[j]) for i, j in edges(adj)} == edges(dual_adj)


def full_clique(adj):
    """The maximum clique, by branch and bound with greedy colouring from
    every vertex and no use of the graph's symmetry: the oracle for the
    rooted search of brute_force_optimum."""
    best = 0

    def color_order(P):
        order, bounds = [], []
        remaining = P
        color = 0
        while remaining:
            color += 1
            avail = remaining
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~adj[v] & ~bit
                remaining &= ~bit
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(size, P):
        nonlocal best
        order, bounds = color_order(P)
        for idx in range(len(order) - 1, -1, -1):
            if size + bounds[idx] <= best:
                return
            v = order[idx]
            newP = P & adj[v]
            if newP:
                expand(size + 1, newP)
            elif size + 1 > best:
                best = size + 1
            P &= ~(1 << v)

    expand(0, (1 << len(adj)) - 1)
    return best


@pytest.mark.parametrize("q,n,k", [(q, n, k) for q, n, k in SMALL_GRASSMANNIANS
                                   if gaussian_binomial(n, k, q) <= 130])
def test_rooted_search_matches_the_full_search(q, n, k, monkeypatch):
    """One point and one neighbour per intersection dimension find the
    maximum clique of every graph, d from 3 to 2k + 2."""
    search, graphs = verify._max_clique, []
    monkeypatch.setattr(verify, "_max_clique",
                        lambda adj, roots, bound: graphs.append(adj)
                        or search(adj, roots, bound))
    found = [brute_force_optimum(q, n, k, d) for d in range(3, 2 * k + 3)]
    assert found == [full_clique(adj) for adj in graphs]


@st.composite
def circulant_graphs(draw):
    """Cayley graphs of Z_N with a connection set S = -S: vertex-transitive,
    as the Grassmannian graphs are."""
    N = draw(st.integers(2, 40))
    S = draw(st.sets(st.integers(1, N // 2)))
    S |= {N - s for s in S}
    return [sum(1 << (i + s) % N for s in S) for i in range(N)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(circulant_graphs())
def test_one_point_roots_a_vertex_transitive_graph(adj):
    assert verify._max_clique(adj, [(1, adj[0])]) == full_clique(adj)


@pytest.mark.parametrize("q,n,k,d,optimum", [
    (2, 5, 2, 4, 9),    # Beutelspacher's maximal partial spread
    (3, 4, 2, 4, 10),   # spreads of q^2 + 1 lines
    (4, 4, 2, 4, 17),
    (5, 4, 2, 4, 26),
    (2, 6, 2, 4, 21),   # a line spread of PG(5, 2), found by the greedy seed
])
def test_partial_spread_optima(q, n, k, d, optimum):
    assert brute_force_optimum(q, n, k, d) == optimum


def test_clique_search_work_cap():
    # 1,210 lines of PG(4, 3), where the anticode bound 30 is above the
    # optimum 28; without the cap the search ran for minutes
    with pytest.raises(TooLarge, match="clique search"):
        brute_force_optimum(3, 5, 2, 4)


def test_brute_force_optimum_tiny():
    assert brute_force_optimum(2, 4, 2, 4) == 5
    # cross-oracle agreement with the constructed code
    assert tiny_multilevel().size == 5


def test_brute_force_distance_two_shortcut():
    assert brute_force_optimum(2, 5, 2, 2) == gaussian_binomial(5, 2, 2)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_a_grassmannian_of_one_point_holds_one_codeword(q):
    """k = 0 and k = n each have one subspace, so the optimum is 1 at any
    d; and no code of 0- or (n + 1)-dimensional subspaces can be made."""
    assert brute_force_optimum(q, 4, 0, 4) == brute_force_optimum(q, 4, 4, 4) == 1
    for k in (0, 4):
        with pytest.raises(ParameterMismatch) as e:
            check_cdc(Cdc(q, 3, k, 2))
        assert str(e.value) == f"need 1 <= k <= n, got k={k}, n=3"


def test_brute_force_cap():
    with pytest.raises(TooLarge):
        brute_force_optimum(2, 10, 5, 4)


def test_audit_optimal_codes():
    rep = audit_fdrmc(optimal_fdrmc(FerrersDiagram((1, 2, 4)), 2, 2))
    assert rep.passed
    assert rep.details == {"dim": 3, "bound": 3, "optimal": True}
    assert rep.min_distance_found == 2

    rep2 = audit_fdrmc(th43_optimal_fdrmc(15, 6, 3))
    assert rep2.passed
    assert rep2.details["dim"] == 2 and rep2.min_distance_found == 3


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_audit_of_a_dependent_basis_takes_the_least_nonzero_rank(q):
    """The basis (X, X): q^2 combinations, the nonzero ones multiples of X,
    whichever method finds the rank."""
    X = MatGF(q, [[1, 0, q - 1], [0, 1, 1], [1, 1, 0]])
    code = FdrmCode(diagram=FerrersDiagram((3, 3, 3)),
                    code=LinearMatrixCode(q, 3, 3, (X, X), 1), delta=1,
                    optimal=False)
    rep = audit_fdrmc(code)
    assert rep.min_distance_found == rank(X) and rep.pairs_checked == q * q - 1
    assert rankmetric._proven_min_rank(code.code, 3) == rank(X)


def test_registry_diagram_codes_audit_in_under_two_seconds():
    """The two diagram codes of the registry at q = 2, dimensions 36 and 38,
    are proven at distance 3 (about 11,000 systems for the larger).  Timed
    in process time, the best of up to three runs: other processes on a
    shared host only ever add time."""
    import time
    codes = [optimal_fdrmc(FerrersDiagram(F), 3, 2)
             for F in ((5, 7, 8, 8, 8, 8, 8), (3, 3, 5, 5, 8, 8, 8, 8, 8))]
    for _ in range(3):
        start = time.process_time()
        reports = [audit_fdrmc(c) for c in codes]
        if time.process_time() - start < 2:
            break
    else:
        pytest.fail("each of three runs of the two audits took 2 s or more")
    assert [r.summary() for r in reports] == [
        "PASS [F=[5, 7, 8, 8, 8, 8, 8], 36, 3]_2 code mode=exhaustive "
        "min_distance=3 declared=3 pairs=68719476735 violations=0",
        "PASS [F=[3, 3, 5, 5, 8, 8, 8, 8, 8], 38, 3]_2 code mode=exhaustive "
        "min_distance=3 declared=3 pairs=274877906943 violations=0"]


def test_audit_flags_support_leak():
    from cdckit.ferrers import FdrmCode
    dia = FerrersDiagram((1, 2))
    bad_basis = (MatGF(2, [[0, 0], [1, 0]]),)  # dot pattern leaks bottom-left
    code = FdrmCode(diagram=dia,
                    code=LinearMatrixCode(2, 2, 2, bad_basis, 1),
                    delta=1, optimal=False)
    rep = audit_fdrmc(code)
    assert not rep.passed
    assert any(v[0] == "support" for v in rep.violations)


def test_exhaustive_order_independent():
    import random
    code = tiny_multilevel()
    rng = random.Random(5)
    members = list(code.members)
    rng.shuffle(members)
    shuffled = Cdc(q=code.q, n=code.n, k=code.k, d=code.d,
                   members=tuple(members))
    assert check_cdc(shuffled).min_distance_found == \
        check_cdc(code).min_distance_found == 4


def test_constructions_never_beat_the_oracle():
    assert tiny_multilevel().size <= brute_force_optimum(2, 4, 2, 4)
    assert lift(gabidulin(2, 2, 2, 2)).size <= brute_force_optimum(2, 4, 2, 4)


def unit_matrix_code(q, m, n, dim):
    """The first ``dim`` unit m x n matrices, on the full m x n diagram."""
    basis = tuple(MatGF(q, [[int(i * n + j == c) for j in range(n)]
                            for i in range(m)]) for c in range(dim))
    return FdrmCode(diagram=FerrersDiagram((m,) * n),
                    code=LinearMatrixCode(q, m, n, basis, 1), delta=1,
                    optimal=False)


def redeclared(code, d):
    return Cdc(q=code.q, n=code.n, k=code.k, d=d, rows=code.rows)


@pytest.mark.parametrize("call, error, message", [
    # 2^21 codewords, and [16, 1]_2 = 65,535 points of 21 images each
    pytest.param(lambda: audit_fdrmc(unit_matrix_code(2, 16, 16, 21)), TooLarge,
                 "2097152 codewords, and a min-rank proof's rows, exceed cap "
                 "1048576", id="audit-enum-cap"),
    # lifted (8,4096,4,4)_2 declared at d = 6: 389,120 table entries, under
    # the cap, whose collision groups list 1,075,200 pairs
    pytest.param(lambda: check_cdc(redeclared(lift(gabidulin(2, 4, 4, 2)), 6)),
                 TooLarge, "failing certificate lists 1075200 pairs, above "
                 "cap 1000000", id="failing-certificate-cap"),
    pytest.param(lambda: check_cdc(redeclared(lift(gabidulin(3, 3, 3, 2)), 5),
                                   max_pairs=123200),
                 TooLarge, "failing certificate lists 123201 pairs, above "
                 "cap 123200", id="failing-certificate-at-its-cap"),
])
def test_every_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def test_a_failing_certificate_within_the_cap_lists_its_pairs():
    rep = check_cdc(redeclared(lift(gabidulin(3, 3, 3, 2)), 5),
                    max_pairs=123201)
    assert rep.summary() == ("FAIL (6,729,5,3)_3-CDC mode=exhaustive "
                             "min_distance=4 declared=5 pairs=265356 "
                             "violations=123201")


@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_check_cdc_refuses_a_negative_pair_count(mode):
    code = lift(gabidulin(2, 2, 2, 2))
    for pairs in (-1, -3):
        with pytest.raises(BadArguments) as e:
            check_cdc(code, mode=mode, pairs=pairs)
        assert str(e.value) == f"pairs must be >= 0, got {pairs}"
