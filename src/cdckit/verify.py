"""Independent verification oracles: exhaustive and sampled distance
certification, exact maximum-size search on tiny Grassmannians, and
diagram-code audits.

Exhaustive certification hashes subspaces instead of comparing pairs: two
k-dimensional codewords are closer than d exactly when they share a
(k - ceil(d/2) + 1)-dimensional one, so hashing those finds every violation
in time linear in the number of codewords.  The keys of all codewords are
built at once from the code's packed rows, sliced across codewords
(``_keys``), so the per-codeword work left in Python is hashing.  The
number of keys a pair shares gives its distance.  Sampled pairs, and every
pair of a code whose tables would exceed the work cap (few codewords of
large dimension), are ranked by eliminating their 2k rows
(``linalg._pair_distance``).  The cap counts, per codeword and level t,
t row fields of the [k, 1]_q points the keys are read from and the
[k, t]_q keys (``_table_entries``).  The search for a maximum code builds
its graph from the same collision groups; GL(n, q) acts on it, so the search
starts from one point and one neighbour per intersection dimension.  It
stops at the anticode bound, or raises after colouring ``CLIQUE_WORK_CAP``
vertices.  All of it works on packed rows (``linalg._rref_rows`` for the
keys' C and the search's points), and each row of a C is looked up as a
point by its packed value, so no ``Subspace`` or ``MatGF`` is made.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations, compress

from .cdc import Cdc
from .errors import BadArguments, TooLarge, record
from .ferrers import FdrmCode, singleton_bound, support_leaks
from .linalg import (_non_rref, _pair_distance, _rref_rows, _side_by_side,
                     gaussian_binomial, lanes)
from .rankmetric import min_nonzero_rank

EXHAUSTIVE_PAIR_CAP = 10 ** 6   # table entries hashed or pairs compared
GRASSMANNIAN_CAP = 2000         # points of a brute-force clique search
CLIQUE_WORK_CAP = 3 * 10 ** 6   # vertices coloured by one clique search
SAMPLED_PAIRS = 10 ** 5


@record(frozen=False)
class VerifyReport:
    target: str
    mode: str
    min_distance_found: int | None
    declared: int
    violations: list
    pairs_checked: int
    details: dict

    def __init__(self, target, mode, min_distance_found, declared, violations=None,
                 pairs_checked=0, details=None):
        self.target, self.mode, self.declared = target, mode, declared
        self.min_distance_found, self.pairs_checked = min_distance_found, pairs_checked
        self.violations = [] if violations is None else violations  # a new list and dict
        self.details = {} if details is None else details           # for each report

    @property
    def passed(self) -> bool:
        return not self.violations and (
            self.min_distance_found is None
            or self.min_distance_found >= self.declared)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (f"{state} {self.target} mode={self.mode} "
                f"min_distance={self.min_distance_found} "
                f"declared={self.declared} pairs={self.pairs_checked} "
                f"violations={len(self.violations)}")

    def kv_lines(self):
        """Machine-readable key=value lines."""
        out = [f"target={self.target}", f"mode={self.mode}",
               f"passed={str(self.passed).lower()}",
               f"min_distance={self.min_distance_found}",
               f"declared={self.declared}",
               f"pairs_checked={self.pairs_checked}",
               f"violations={len(self.violations)}"]
        out.extend(f"detail.{k}={v}" for k, v in self.details.items())
        return out


def _keys(code, t):
    """For each RREF t x k matrix C, the keys of the t-subspaces C G of all
    codewords, in code order: equal keys are equal subspaces.

    For RREF generator G and RREF t x k matrix C, C G is already the RREF of
    a t-subspace, as G is the identity on its pivots.  Its rows are member
    vectors whose first nonzero coefficient is 1 (``_Lanes.points``), so a
    key is t of those points shifted into t row fields.  Each row of C is
    such a coefficient vector, a point of GF(q)^k, and its index among the
    points of the unit rows picks the codewords' point.  All codewords are
    keyed at once: row j of every codeword, ``code.rows[j::k]``, goes into
    one wide int (``linalg._side_by_side``), codeword i in lane i of w
    64-bit words, wide enough for t row fields.  The points recursion runs
    once on those k wide rows; lane sums and byte-table scaling keep the
    padding of every lane zero.  A memoryview cast of ``to_bytes`` then
    splits each wide key into the codewords' words, w to a key.
    """
    n, k, M, L = code.n, code.k, code.size, lanes(code.q)
    width = n * L.W
    w = -(-max(t, 1) * width // 64)  # words per lane
    wide = list(_side_by_side(code.rows, k, width, 8 * w))
    points = L.points(wide, M * 64 * w // L.W)
    units = [1 << (k - 1 - i) * L.W for i in range(k)]
    index = {v: i for i, v in enumerate(L.points(units, k))}  # C row -> point
    for C in _rref_rows(code.q, k, t):
        key = sum(points[index[row]] << r * width for r, row in enumerate(C))
        words = memoryview(key.to_bytes(8 * w * M, "little")).cast("Q").tolist()
        yield words if w == 1 else list(zip(*[iter(words)] * w))


def _repeats(code, t):
    """The key lists of ``_keys`` that repeat a key of an earlier codeword or
    C: one set holds every key, and a C whose keys do not all grow it
    repeats one."""
    seen = set()
    for keys in _keys(code, t):
        size = len(seen)
        seen.update(keys)
        if len(seen) - size < len(keys):
            yield keys


def _collisions(code, t):
    """Groups of codeword indices, ascending, sharing a t-dimensional
    subspace.

    The keys of all codewords come C by C from their wide rows
    (``_keys``).  A first pass only asks, with one set of every key, which
    C's repeat a key; a passing code ends there.  A second pass builds the
    keys again and groups owners only for the keys of those C's."""
    repeated = set()
    for keys in _repeats(code, t):
        repeated.update(keys)
    if not repeated:
        return []
    groups = {}
    for keys in _keys(code, t):
        for i in compress(range(len(keys)), map(repeated.__contains__, keys)):
            groups.setdefault(keys[i], []).append(i)
    return [sorted(g) for g in groups.values() if len(g) > 1]


def _key_level(k, declared):
    """t0 = k - ceil(declared / 2) + 1: two codewords are closer than
    ``declared`` exactly when they share a t0-dimensional subspace (k + 1,
    for distance above 2k, has no keys)."""
    return max(0, min(k + 1, k - (declared + 1) // 2 + 1))


def _table_entries(code):
    """Table entries hashing builds at most: per codeword and level
    t <= max(t0, 1), t row fields of the [k, 1]_q points the keys are read
    from, and [k, t]_q keys."""
    q, k, t0 = code.q, code.k, _key_level(code.k, code.d)
    points = gaussian_binomial(k, 1, q)
    return code.size * sum(t * points + gaussian_binomial(k, t, q)
                           for t in range(1, min(max(t0, 1), k) + 1))


def _certify(code, budget):
    """(minimum distance, violations) over all pairs.  Codewords meeting in
    dimension s share [s, t]_q t-subspaces, which grows with s for t >= 1:
    at t = max(t0, 1), the collision groups holding a pair give its s and
    distance 2 (k - s), and s < t for a pair in none.  Violations have
    s >= t0; without one, the largest t at which two codewords collide
    gives 2 (k - t).  Over ``budget`` table entries, every pair is ranked;
    over ``budget`` pairs listed by a failing code, it raises ``TooLarge``."""
    M, q, k = code.size, code.q, code.k
    t0 = _key_level(k, code.d)
    if _table_entries(code) > budget:
        return _scan_pairs(code, combinations(range(M), 2))
    t = max(t0, 1)
    groups = _collisions(code, t)
    listed = sum(len(g) * (len(g) - 1) // 2 for g in groups) if t0 else 0
    if listed > budget:
        raise TooLarge(f"failing certificate lists {listed} pairs, above cap {budget}")
    shared = Counter(pair for group in groups
                     for pair in combinations(group, 2))
    dim = {gaussian_binomial(s, t, q): s for s in range(t, k + 1)}
    violations = [(i, j, 2 * (k - dim.get(shared[i, j], 0))) for i, j
                  in (sorted(shared) if t0 else combinations(range(M), 2))]
    if violations:
        return min(d for _, _, d in violations), violations
    for t in range(t0 - 1, 0, -1):  # the first repeated key ends a level
        if next(_repeats(code, t), None) is not None:
            return 2 * (k - t), []
    return 2 * k, []


def _scan_pairs(code, pairs):
    """(minimum distance, violations) over the given (i, j) pairs, by the
    rank of each pair's 2k stacked rows."""
    q, n, k, rows = code.q, code.n, code.k, code.rows
    min_dist, violations = 2 * k, []
    for i, j in pairs:
        d = _pair_distance(q, n, rows[i * k:i * k + k], rows[j * k:j * k + k])
        min_dist = min(min_dist, d)
        if d < code.d:
            violations.append((i, j, d))
    return min_dist, violations


def _unrank_pair(r):
    """The pair (i, j), i < j, of rank r = j (j - 1) / 2 + i."""
    j = (math.isqrt(8 * r + 1) + 1) // 2
    return r - j * (j - 1) // 2, j


def check_cdc(code, mode: str = "exhaustive", seed: int = 2024,
              pairs: int = SAMPLED_PAIRS, max_pairs: int = EXHAUSTIVE_PAIR_CAP
              ) -> VerifyReport:
    """Certify the minimum pairwise subspace distance of a code.

    Exhaustive mode covers every pair: by hashing shared subspaces, whose
    counts give each violating pair's distance, or pair by pair where the
    hash tables would hold more than ``max_pairs`` entries.  ``max_pairs``
    caps that work, the smaller of the two counts; above distance 2k every
    pair is too close, so the work is every pair.
    Sampled mode checks a seed-deterministic set of distinct pairs.
    Both modes first refuse rows not in RREF blocks of rank k (``BadArguments``).
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if pairs < 0:
        raise BadArguments(f"pairs must be >= 0, got {pairs}")
    M, k, declared, rows = code.size, code.k, code.d, code.rows
    if rows and (min(rows) < 0 or max(rows) >> code.n * lanes(code.q).W
                 or _non_rref(code.q, code.n, k, rows)):
        raise BadArguments(f"rows are not RREF blocks of rank {k} in GF({code.q})^{code.n}")
    target = f"({code.n},{M},{code.d},{code.k})_{code.q}-CDC"
    label = mode if mode == "exhaustive" else f"sampled(seed={seed})"
    total_pairs = M * (M - 1) // 2
    checked = total_pairs if mode == "exhaustive" else min(pairs, total_pairs)
    min_dist, violations = None, []  # until a pair is checked
    if checked and mode == "exhaustive":
        work = (min(_table_entries(code), total_pairs)
                if _key_level(k, declared) else total_pairs)
        if work > max_pairs:
            raise TooLarge(f"certificate needs {work} table entries or "
                           f"pairs, above cap {max_pairs}")
        min_dist, violations = _certify(code, max_pairs)
    elif checked:
        drawn = random.Random(seed).sample(range(total_pairs), checked)
        min_dist, violations = _scan_pairs(code, map(_unrank_pair, drawn))
    return VerifyReport(target=target, mode=label, min_distance_found=min_dist,
                        declared=declared, violations=violations,
                        pairs_checked=checked)


def _max_clique(adj, roots, bound=math.inf) -> int:
    """The largest clique that extends one of ``roots``, by branch and bound
    with greedy colouring, or the first to reach ``bound``, a proven upper
    bound on the answer.  A root (size, P) stands for a clique of that size
    whose common neighbourhood is P.  The search starts from the greedy
    clique taken lowest vertex first, so it answers at least that size.

    This is the maximum clique of the graph only when roots are chosen by
    its automorphisms, as ``brute_force_optimum`` chooses them: every
    maximum clique must map to one that extends a root.  The search counts
    the vertices it colours and raises ``TooLarge`` above
    ``CLIQUE_WORK_CAP``."""
    best = work = 0
    P = (1 << len(adj)) - 1
    while P and best < bound:
        P &= adj[(P & -P).bit_length() - 1]
        best += 1

    def color_order(P):
        nonlocal work
        work += P.bit_count()
        if work > CLIQUE_WORK_CAP:
            raise TooLarge(f"clique search colours more than "
                           f"{CLIQUE_WORK_CAP} vertices")
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
            if size + bounds[idx] <= best or best >= bound:
                return
            v = order[idx]
            newP = P & adj[v]
            if newP:
                expand(size + 1, newP)
            elif size + 1 > best:
                best = size + 1
            P &= ~(1 << v)

    for size, P in roots:
        best = max(best, size)
        expand(size, P)
    return best


def brute_force_optimum(q: int, n: int, k: int, d: int) -> int:
    """Exact maximum size of a set of k-dim subspaces of GF(q)^n at pairwise
    distance >= d, by exhaustive clique search on the Grassmannian.
    Two points are adjacent unless they share a subspace of the certifier's
    key level (``_collisions``).  U -> U^perp keeps every distance, so the
    search runs on dimension min(k, n - k), where the keys are few.

    GL(n, q) acts on the graph, so the search starts from its symmetry:
    the group is transitive on points, so some maximum clique holds point
    0; and the stabiliser of point 0 is transitive on the points meeting it
    in each dimension, so the search extends {0, w} for one neighbour w per
    intersection dimension, leaving out the classes already searched.  It
    stops at the anticode bound [n, t]_q / [k, t]_q (no t-subspace, t =
    k - ceil(d/2) + 1, lies in two codewords) and raises ``TooLarge`` above
    ``GRASSMANNIAN_CAP`` points or ``CLIQUE_WORK_CAP`` coloured vertices."""
    G = gaussian_binomial(n, k, q)
    if G > GRASSMANNIAN_CAP:
        raise TooLarge(f"Grassmannian size {G} exceeds cap {GRASSMANNIAN_CAP}")
    if d <= 2 or G == 1:  # one point, or all points at least 2 apart
        return G
    k = min(k, n - k)
    t = _key_level(k, d)
    rows = [v for g in _rref_rows(q, n, k) for v in g]
    adj = [((1 << G) - 1) ^ (1 << i) for i in range(G)]
    for group in _collisions(Cdc(q, n, k, d, rows=rows), t):
        close = sum(1 << i for i in group)
        for i in group:
            adj[i] &= ~close
    classes = {}  # distance from point 0 -> its neighbours at that distance
    for w in range(1, G):
        if adj[0] >> w & 1:
            dist = _pair_distance(q, n, rows[:k], rows[w * k:w * k + k])
            classes[dist] = classes.get(dist, 0) | 1 << w
    roots, done = [], 0
    for members in classes.values():
        w = (members & -members).bit_length() - 1
        roots.append((2, adj[0] & adj[w] & ~done))
        done |= members
    return _max_clique(adj, roots or [(1, 0)],
                       gaussian_binomial(n, t, q) // gaussian_binomial(k, t, q))


def audit_fdrmc(code: FdrmCode) -> VerifyReport:
    """Audit support containment, the realized minimum rank distance
    (``min_nonzero_rank``), and dimension against the diagram's bound."""
    dia = code.diagram
    violations = [("support", *cell)
                  for cell in support_leaks(dia, code.code.basis)]
    min_rank = min_nonzero_rank(code.code) if code.dim else None
    if code.dim and min_rank < code.delta:
        violations.append(("distance", min_rank))
    bound = singleton_bound(dia, code.delta)
    if code.optimal and code.dim != bound:
        violations.append(("optimality", code.dim, bound))
    return VerifyReport(
        target=f"[{dia}, {code.dim}, {code.delta}]_{code.q} code",
        mode="exhaustive", min_distance_found=min_rank, declared=code.delta,
        violations=violations, pairs_checked=code.size - 1,
        details={"dim": code.dim, "bound": bound, "optimal": code.optimal})
