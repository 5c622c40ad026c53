"""Subspace-code containers and the assembly constructions: identifying
vectors, echelon layouts, one placement (``_place``) for every construction,
multilevel unions, block/coset assembly, parallel linkage and run-length
bookkeeping.

Every constructor works in two modes: exact big-integer counting (sizes
only), and materialization for desk-scale instances, which re-verifies the
claimed distances downstream.  A materialized code is its packed RREF rows
(``Cdc.rows``); ``Cdc.members`` makes its ``Subspace``s on every read.
A rank-metric filler is placed from its packed words, a ``MatrixSet``'s
``words`` or a linear code's spread basis, each row shifted straight into
its blocks, and no ``MatGF`` is made per codeword.  Each rule is checked at
one level only: ``_place`` refuses a filler that repeats a word,
``union_cdcs`` a subspace placed twice, once per build over all its
labelled parts (``thm32_build`` unions both halves' parts), and
``_check_block_params`` two block lists that miss a distance.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import (BadArguments, BadShape, DiagramMismatch,
                     DuplicateCodeword, LengthMismatch, NotACwc,
                     ParameterMismatch, VerificationFailed, record)
from .ferrers import (FdrmCode, FerrersDiagram, _off_mask, coset_list,
                      nested_pair, singleton_bound)
from .linalg import (MatGF, Subspace, _eliminate, _non_rref, echelon_pivots,
                     lanes, rank, rrief)
from .rankmetric import LinearMatrixCode, MatrixSet, _span


# ---------------------------------------------------------------------------
# identifying vectors and echelon layouts
# ---------------------------------------------------------------------------

@record
class IdVec:
    """Binary vector marking pivot columns; forward = RREF, inverse = RRIEF."""

    bits: tuple
    kind: str

    def __init__(self, bits, kind="forward"):
        bits = tuple(bits)
        if any(b not in (0, 1, "0", "1") for b in bits):
            raise BadArguments("identifying vectors are binary")
        if kind not in ("forward", "inverse"):
            raise BadArguments("kind must be 'forward' or 'inverse'")
        self.__dict__.update(bits=tuple(map(int, bits)), kind=kind)

    def __eq__(self, other):  # spelt out, faster than record's: ferrers_of's cache keys
        return (self.bits == other.bits and self.kind == other.kind
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.bits, self.kind))

    @classmethod
    def from_string(cls, s, kind="forward"):
        return cls(tuple(s.strip()), kind)

    @classmethod
    def from_pivots(cls, n, pivots, kind="forward"):
        """The vector of length n with ones at the pivot columns, which are
        distinct and in range(n)."""
        pivots = tuple(pivots)
        cols = set(pivots)
        if len(cols) < len(pivots) or not cols <= set(range(n)):
            raise BadArguments(f"pivots must be distinct columns in range({n})")
        return cls(tuple(int(c in cols) for c in range(n)), kind)

    @property
    def n(self):
        return len(self.bits)

    @property
    def weight(self):
        return sum(self.bits)

    def __str__(self):
        return "".join(str(b) for b in self.bits)


def identifying_vector(U: Subspace) -> IdVec:
    return IdVec.from_pivots(U.n, U.pivots)


def inverse_identifying_vector(U: Subspace) -> IdVec:
    return IdVec.from_pivots(U.n, rrief(U.gen)[1], "inverse")


def hamming_guard(u: IdVec, v: IdVec) -> int:
    """Hamming distance; a certified floor for the subspace distance across
    different identifying vectors."""
    if u.n != v.n:
        raise LengthMismatch(f"lengths {u.n} != {v.n}")
    return sum(a != b for a, b in zip(u.bits, v.bits))


def insertion_guard(x: int, k1: int, d: int) -> bool:
    """Distance guard for mixing block constructions with other codes: a
    subspace whose identifying vector has x ones on the first block keeps
    distance d from the block construction when d <= 2|x - k1|."""
    return d <= 2 * abs(x - k1)


@record
class EchelonLayout:
    """Where a diagram-supported matrix lands inside the echelon skeleton."""

    vec: IdVec
    pivots: tuple
    diagram: FerrersDiagram
    col_map: tuple  # display column -> ambient column


@lru_cache(maxsize=None)
def ferrers_of(v: IdVec) -> EchelonLayout:
    """Diagram and cell mapping of the echelon form with pivots at v's ones."""
    if v.weight < 1:
        raise BadArguments("identifying vector must have positive weight")
    pivots = tuple(i for i, b in enumerate(v.bits) if b)
    nonpivots = [i for i, b in enumerate(v.bits) if not b]
    forward = v.kind == "forward"  # column heights: pivots before (after) it
    seen = list(itertools.accumulate(v.bits if forward else v.bits[::-1]))
    heights = [seen[c if forward else -1 - c] for c in nonpivots]
    keep = [(c, h) for c, h in zip(nonpivots, heights) if h]
    dia = FerrersDiagram(tuple(sorted(h for _, h in keep)), inverted=not forward)
    return EchelonLayout(vec=v, pivots=pivots, diagram=dia,
                         col_map=tuple(c for c, _ in keep))


# ---------------------------------------------------------------------------
# subspace-code containers
# ---------------------------------------------------------------------------

@record
class Cdc:
    """A set of k-dimensional subspaces of GF(q)^n at pairwise distance >= d,
    stored as ``rows``, the k packed RREF rows of each codeword in turn, and
    nothing else.  ``members`` (``Subspace``s) may be given instead, and only
    their rows are kept; read, they are made from the rows each time."""

    q: int
    n: int
    k: int
    d: int
    rows: tuple
    provenance: str

    def __init__(self, q, n, k, d, members=None, provenance="", *, rows=()):
        if not 1 <= k <= n:
            raise ParameterMismatch(f"need 1 <= k <= n, got k={k}, n={n}")
        if members is not None:
            members = tuple(members)
            if any((U.q, U.n, U.k) != (q, n, k) for U in members):
                raise ParameterMismatch("member with wrong ambient or dimension")
            rows = [v for U in members for v in U.gen.packed]
        if len(rows := tuple(rows)) % k:
            raise ParameterMismatch(f"{len(rows)} rows do not make whole {k}-row codewords")
        self.__dict__.update(q=q, n=n, k=k, d=d, rows=rows, provenance=provenance)

    @property
    def members(self):
        q, n = self.q, self.n
        return tuple(Subspace(q, n, MatGF.from_packed(q, n, b)) for b in self.blocks())

    @property
    def size(self):
        return len(self.rows) // self.k

    def blocks(self):  # the codewords as tuples of their k rows, in order
        return list(zip(*[iter(self.rows)] * self.k))


def union_cdcs(parts, d, provenance=""):
    """Disjoint union of labelled codes; a collision is a bug, reported
    with the labels of the two parts that hold it."""
    parts = tuple(parts)
    shapes = {(code.q, code.n, code.k) for _, code in parts if code.size}
    if len(shapes) != 1:
        raise (ParameterMismatch("union of incompatible codes") if shapes
               else BadArguments("union of empty parts"))
    (q, n, k), = shapes
    rows = [v for _, code in parts for v in code.rows]
    if len(set(zip(*[iter(rows)] * k))) < len(rows) // k:
        seen = {}
        for label, code in parts:
            for b in code.blocks():
                if b in seen:
                    raise DuplicateCodeword(
                        f"subspace produced by both {seen[b]} and {label}")
                seen[b] = label
    return Cdc(q=q, n=n, k=k, d=d, rows=rows, provenance=provenance)


@record
class CwcSet:
    """Constant-weight binary vectors at a guaranteed pairwise distance."""

    vectors: tuple
    min_hd: int

    def __init__(self, vectors, min_hd):
        if not vectors:
            raise NotACwc("empty vector set")
        if len({(v.n, v.weight, v.kind) for v in vectors}) > 1:
            raise NotACwc("mixed lengths, weights, or kinds")
        for a, b in itertools.combinations(vectors, 2):
            if (hd := hamming_guard(a, b)) < min_hd:
                raise NotACwc(f"d_H({a}, {b}) = {hd} < {min_hd}")
        self.__dict__.update(vectors=vectors, min_hd=min_hd)

    @property
    def n(self):
        return self.vectors[0].n

    @property
    def weight(self):
        return self.vectors[0].weight


# ---------------------------------------------------------------------------
# lifting and the multilevel union
# ---------------------------------------------------------------------------

def _place(q, n, skeletons, cols, code):
    """The k RREF rows of each subspace spanned by a skeleton (k packed
    rows of n entries) with a codeword of ``code`` ORed into its top rows on
    ``cols``, skeleton by skeleton in ``codewords()`` order.  The flattened
    basis, or a ``MatrixSet``'s words, are spread in one pass, and row i of
    every block is shifted straight out of its word; one lane-wise test of
    all blocks at once (``_non_rref``) finds those outside RREF, and only
    they are eliminated, one ``_eliminate`` each.  Each skeleton has rank k
    off ``cols``, so only equal words place equal subspaces on it: repeated
    words are refused here, and repeated blocks by the caller's union."""
    linear, m, c = isinstance(code, LinearMatrixCode), code.m, len(cols)
    if (code.q, code.n) != (q, c) or linear and any(
            (M.q, M.rows, M.cols) != (q, m, c) for M in code.basis):
        raise BadShape(f"fillers must be {m}x{c} over GF({q})")
    words = MatGF.from_packed(q, m * c, [B.flatten() for B in code.basis] if linear
                              else code.words).spread(
        [i * n + j for i in range(m) for j in cols], m * n).packed
    if linear:  # every combination of the basis
        words = _span(q, words, m * n)
    if len(set(words)) < len(words):  # the only repeats one skeleton places
        raise VerificationFailed("placement produced duplicate subspaces")
    s, rows, k = n * lanes(q).W, [], m
    mask = (1 << s) - 1
    for skeleton in skeletons:  # a codeword's row i ORed into skeleton row i < m
        k = len(skeleton)
        block = [0] * (len(words) * k)
        for i, r in enumerate(skeleton):
            sh = (m - 1 - i) * s
            block[i::k] = [r | w >> sh & mask for w in words] if i < m else [r] * len(words)
        rows += block
    for i in _non_rref(q, n, k, rows):
        rows[i * k:i * k + k] = _eliminate(q, n, rows[i * k:i * k + k])[0]
    return rows


def lift_on_vector(v: IdVec, code) -> Cdc:
    """Fill the echelon skeleton of v with each codeword; one subspace per
    matrix, all sharing the identifying vector v.  A cell that is zero in
    every basis matrix of a linear code is zero in every codeword, so an
    ``FdrmCode``'s basis or a set's words are ANDed with ``_off_mask``."""
    layout = ferrers_of(v)
    dia, n = layout.diagram, v.n
    if isinstance(code, FdrmCode):
        if code.diagram != dia:
            raise DiagramMismatch(f"code diagram {code.diagram} vs vector diagram {dia}")
        filler, words = code.code, [B.flatten() for B in code.code.basis]
    elif isinstance(code, MatrixSet):
        filler, words = code, code.words
    else:
        raise BadArguments(f"cannot lift a {type(code).__name__}")
    if (filler.m, filler.n) != (dia.m, dia.n):  # _place checks the matrices
        raise DiagramMismatch(
            f"matrix shape {filler.m}x{filler.n} vs diagram {dia.m}x{dia.n}")
    if any(map(_off_mask(dia, lanes(code.q).W).__and__, words)):
        raise DiagramMismatch("matrix entry outside the diagram")
    # the unit rows at the pivots, in row order; col_map avoids the pivots
    units = MatGF.identity(code.q, n).packed
    skeleton = [units[p] for p in (layout.pivots[::-1] if v.kind == "inverse"
                                   else layout.pivots)]
    return Cdc(q=code.q, n=n, k=v.weight, d=2 * code.delta,
               rows=_place(code.q, n, [skeleton], layout.col_map, filler),
               provenance=f"lift[{v}]")


def multilevel(entries, delta: int) -> Cdc:
    """Union of per-vector lifts over a constant-weight vector set.

    Same-vector pairs inherit twice the rank distance; cross-vector pairs
    are separated by the Hamming distance of the vectors.
    """
    entries = tuple(entries)
    CwcSet(vectors=tuple(v for v, _ in entries), min_hd=2 * delta)
    for v, code in entries:  # every code's distance before any lift
        if code.delta < delta:
            raise BadArguments(f"code on {v} has distance {code.delta} < {delta}")
    return union_cdcs([(f"lift[{v}]", lift_on_vector(v, code)) for v, code in entries],
                      d=2 * delta, provenance="multilevel")


# ---------------------------------------------------------------------------
# block embedding and block constructions
# ---------------------------------------------------------------------------

def phi_embed(B: MatGF, F: MatGF) -> MatGF:
    """Spread F's columns over the non-pivot columns of B, zeros at pivots.

    Deleting the pivot columns recovers F exactly.
    """
    pivots = set(echelon_pivots(B))
    k, n = B.rows, B.cols
    if F.cols != n - k:
        raise BadShape(f"filler has {F.cols} columns, expected {n - k}")
    return F.spread([j for j in range(n) if j not in pivots], n)


# ---------------------------------------------------------------------------
# lists of codes with fixed distance (run-length counted)
# ---------------------------------------------------------------------------

@record
class CdcList:
    """Ordered list of codes sharing (q, n, k): within-code distance
    intra_d, across-code distance inter_d.  Sizes are run-length encoded
    (size, count) in list order; codes are materialized only at desk scale."""

    q: int
    n: int
    k: int
    intra_d: int
    inter_d: int
    sizes: tuple
    codes: tuple | None = None
    restricted_rank: int | None = None

    @property
    def length(self):
        return sum(c for _, c in self.sizes)

    def validate_codes(self):
        if self.codes is not None and [c.size for c in self.codes] != [
                s for s, c in self.sizes for _ in range(c)]:
            raise VerificationFailed("materialized sizes disagree with runs")


def zip_runs(a_runs, b_runs):
    """Pair i-th with i-th across two run-length lists, truncating at the
    shorter; returns (product runs, total)."""
    a, b = ([[s, c] for s, c in runs if c][::-1] for runs in (a_runs, b_runs))
    out = []
    while a and b:  # the current run of each list is its last
        take = min(a[-1][1], b[-1][1])
        out.append((a[-1][0] * b[-1][0], take))
        for runs in a, b:
            runs[-1][1] -= take
            if not runs[-1][1]:
                runs.pop()
    return tuple(out), sum(s * c for s, c in out)


def sort_runs_desc(runs):
    """(size, count) runs merged by size, largest first, zero counts dropped."""
    merged = {}
    for s, c in runs:
        merged[s] = merged.get(s, 0) + c
    return tuple(sorted(((s, c) for s, c in merged.items() if c), reverse=True))


def _largest_first(codes):
    """The codes stably sorted by size, largest first, and their
    (size, count) runs."""
    codes = tuple(sorted(codes, key=lambda c: c.size, reverse=True))
    return codes, sort_runs_desc((c.size, 1) for c in codes)


def pair_runs(a_runs, b_runs):
    """Greatest pairing total: sort both descending, pair index by index."""
    return zip_runs(sort_runs_desc(a_runs), sort_runs_desc(b_runs))


def reorder_pairing(sizes_a, sizes_b):
    """Pair i-th largest with i-th largest; returns (index pairs, total).

    Index pairs refer to positions in the inputs; inputs need not be sorted.
    """
    order_a, order_b = (sorted(range(len(s)), key=s.__getitem__, reverse=True)
                        for s in (sizes_a, sizes_b))
    pairing = tuple(zip(order_a, order_b))
    return pairing, sum(sizes_a[i] * sizes_b[j] for i, j in pairing)


def coset_cdc_sizes(v: IdVec, delta1: int, delta2: int, q: int):
    """Per-vector coset-list parameters (D, s): coset size q^vmin(F, delta1)
    and list length q^(vmin(F, delta2) - vmin(F, delta1))."""
    dia = ferrers_of(v).diagram  # an empty diagram's bound is 0
    a, b = singleton_bound(dia, delta1), singleton_bound(dia, delta2)
    return q ** a, q ** (b - a)


def build_coset_cdc_lists(cwc: CwcSet, delta1: int, delta2: int, q: int,
                          r: int | None = None, build: bool = False) -> CdcList:
    """List of codes from nested-code cosets, one coset column at a time.

    Count mode returns exact sizes only.  Build mode materializes every
    coset and builds column j as the multilevel code of the vectors' j-th
    cosets; cross-vector distance is covered by the vector set's Hamming
    distance, within-coset distance by the inner code.  Where count mode
    applies, build mode's codes must have count mode's sizes.
    """
    if not delta1 > delta2 > 0:
        raise BadArguments("need delta1 > delta2 > 0")
    if cwc.min_hd < 2 * delta1:
        raise NotACwc(f"vector set distance {cwc.min_hd} below {2 * delta1}")
    n, k = cwc.n, cwc.weight

    per = [(*coset_cdc_sizes(v, delta1, delta2, q)[::-1], v) for v in cwc.vectors]
    per.sort(key=lambda t: t[0], reverse=True)  # (s, D, v), longest list first

    if r is not None and not build:
        if r != 0:
            raise BadArguments("count mode supports only r=0 restriction")
        if len(per) != 1:
            raise BadArguments("r=0 count mode expects a single vector")
    sizes = None  # count mode's runs, where it applies
    if r is None:  # columns s_(i+1) .. s_i - 1 hold a coset of vectors 0..i
        ends = [s for s, _, _ in per] + [0]
        sizes = sort_runs_desc(zip(itertools.accumulate(D for _, D, _ in per),
                                   (a - b for a, b in zip(ends, ends[1:]))))
    elif r == 0 and len(per) == 1:
        sizes = sort_runs_desc([(1, 1), (0, per[0][0] - 1)])
    if not build:
        return CdcList(q=q, n=n, k=k, intra_d=2 * delta1, inter_d=2 * delta2,
                       sizes=sizes, restricted_rank=r)

    # build mode: column j is the multilevel code of each vector's j-th coset
    cosets = [(v, coset_list(nested_pair(ferrers_of(v).diagram, delta1, delta2, q), r=r))
              for _, _, v in per]
    codes = []
    for j in range(per[0][0]):
        entries = [(v, cs[j]) for v, cs in cosets if j < len(cs) and cs[j].size]
        codes.append(multilevel(entries, delta1) if entries
                     else Cdc(q=q, n=n, k=k, d=2 * delta1))
    codes, runs = _largest_first(codes)
    out = CdcList(q=q, n=n, k=k, intra_d=2 * delta1, inter_d=2 * delta2,
                  sizes=runs if sizes is None else sizes, codes=codes,
                  restricted_rank=r)
    out.validate_codes()  # count == build wherever count mode applies
    return out


def concat_cdc_lists(lists) -> CdcList:
    """Concatenate lists sharing parameters, reordered largest first."""
    if not lists:
        raise BadArguments("no lists to concatenate")
    first = lists[0]
    if len({(L.q, L.n, L.k, L.intra_d, L.inter_d) for L in lists}) > 1:
        raise ParameterMismatch("cannot concatenate mismatched lists")
    if len({L.codes is None for L in lists}) > 1:
        raise ParameterMismatch("cannot concatenate materialized and counted lists")
    if first.codes is not None:
        codes, runs = _largest_first(c for L in lists for c in L.codes)
        return CdcList(q=first.q, n=first.n, k=first.k, intra_d=first.intra_d,
                       inter_d=first.inter_d, sizes=runs, codes=codes)
    runs = sort_runs_desc([run for L in lists for run in L.sizes])
    return CdcList(q=first.q, n=first.n, k=first.k, intra_d=first.intra_d,
                   inter_d=first.inter_d, sizes=runs)


# ---------------------------------------------------------------------------
# block constructions
# ---------------------------------------------------------------------------

def _check_block_params(A: CdcList, B: CdcList, d: int):
    if A.intra_d != d or B.intra_d != d:
        raise ParameterMismatch(f"lists must have within-code distance {d}")
    if A.inter_d + B.inter_d != d:
        raise ParameterMismatch(f"across-list distances must sum to {d}")


def coset_construction(A: CdcList, B: CdcList, H: LinearMatrixCode) -> Cdc:
    """Block assembly [A phi_B(H); 0 B] over index-paired list entries."""
    if A.codes is None or B.codes is None:
        raise BadArguments("build mode needs materialized lists")
    d = A.intra_d
    _check_block_params(A, B, d)
    n, k = A.n + B.n, A.k + B.k
    if n < 2 * k:
        raise ParameterMismatch(f"need n >= 2k, got n={n}, k={k}")
    if (H.m, H.n) != (A.k, B.n - B.k) or 2 * H.delta != d:
        raise ParameterMismatch(
            f"filler must be {A.k}x{B.n - B.k} at distance {d // 2}")
    return union_cdcs(_coset_blocks(A, B, H, "block"), d=d,
                      provenance="coset-construction")


def _coset_blocks(A: CdcList, B: CdcList, H: LinearMatrixCode, label: str):
    """The labelled parts [Ua phi_Ub(W); 0 Ub] of index-paired list entries,
    Ua outer, Ub inner, W over H's codewords; the caller checks the shapes.
    Each run of consecutive pairs whose Ub share pivots, and so phi_Ub's
    columns, is placed by one ``_place`` call."""
    q, n, k, d, W = A.q, A.n + B.n, A.k + B.k, A.intra_d, lanes(A.q).W
    parts = []
    for i, (CA, CB) in enumerate(zip(A.codes, B.codes)):
        rows = []
        pairs = itertools.product(CA.blocks(), CB.blocks())
        for lengths, run in itertools.groupby(
                pairs, lambda p: tuple(map(int.bit_length, p[1]))):
            pivots = {B.n - 1 - (b - 1) // W for b in lengths}  # RREF rows
            cols = [A.n + j for j in range(B.n) if j not in pivots]  # phi_B's
            rows += _place(q, n, [[*(r << B.n * W for r in Ua), *Ub]
                                  for Ua, Ub in run], cols, H)
        parts.append((f"{label}[{i}]", Cdc(q=q, n=n, k=k, d=d, rows=rows)))
    return parts


def _check_linkage(U1: Cdc, U2: Cdc, left, right):
    """``parallel_linkage``'s shape checks, on its fillers' (m, n, delta)."""
    k, d = U1.k, U1.d
    if U2.k != k or U2.d < d or U1.q != U2.q:
        raise ParameterMismatch("component codes disagree on (q, k, d)")
    for side, (m, c, delta), n in (("left", left, U2.n), ("right", right, U1.n)):
        if (m, c) != (k, n) or 2 * delta < d:
            raise ParameterMismatch(f"{side} filler must be {k}x{n} at distance {d // 2}")


def _linkage_parts(U1: Cdc, U2: Cdc, M1: LinearMatrixCode, M2: MatrixSet):
    """The labelled left-lifted and right-lifted parts of ``parallel_linkage``."""
    _check_linkage(U1, U2, (M1.m, M1.n, M1.delta), (M2.m, M2.n, M2.delta))
    k, d, cap = U1.k, U1.d, U1.k - U1.d // 2
    ranks = M2.ranks if M2.ranks is not None else map(rank, M2.members)
    if max(ranks, default=0) > cap:
        raise ParameterMismatch(f"right filler rank exceeds {cap}")
    n, W = U1.n + U2.n, lanes(U1.q).W
    left = _place(U1.q, n, [[r << U2.n * W for r in Ua] for Ua in U1.blocks()],
                  range(U1.n, n), M1)
    right = _place(U1.q, n, U2.blocks(), range(U1.n), M2)
    return [("left-lifted", Cdc(q=U1.q, n=n, k=k, d=d, rows=left)),
            ("right-lifted", Cdc(q=U1.q, n=n, k=k, d=d, rows=right))]


def parallel_linkage(U1: Cdc, U2: Cdc, M1: LinearMatrixCode, M2: MatrixSet) -> Cdc:
    """Union of left-lifted and right-lifted blocks: {rs(U1|M1)} and
    {rs(M2|U2)} with a rank-capped right filler."""
    return union_cdcs(_linkage_parts(U1, U2, M1, M2), U1.d, "parallel-linkage")
