"""Ferrers diagrams and rank-metric codes supported on them.

A diagram is stored as its ascending column profile [g1..gn] (dots per
column, left to right, right- and top-aligned).  The inverse (mirrored,
left-aligned) convention is the same profile with a flag; codes on a
mirrored diagram are column reversals of codes on the standard one.  A
matrix is supported on a diagram when its packed word, a basis matrix's
``flatten()`` or a ``MatrixSet`` word alike, ANDs to zero with the mask of
the diagram's off cells (``_off_mask``, one per diagram and entry width).

Optimal diagram-supported codes are realized by intersecting the standard
MRD family with the support constraints; the dimension is checked against
the delete-rows/columns bound and any shortfall is an error, never a
silent downgrade.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (BadArguments, BadShape, ConditionNotMet,
                     DimensionMismatch, VerificationFailed, record)
from .linalg import MatGF, kernel_basis, lanes, span_rank
from .rankmetric import (LinearMatrixCode, MatrixSet, gabidulin,
                         grmc_lower_bound, restrict_ranks, verify_min_rank)


@record
class FerrersDiagram:
    """Column dot-count profile; `inverted` marks the mirrored convention."""

    cols: tuple
    inverted: bool

    def __init__(self, cols, inverted=False):
        cols = tuple(cols)
        if any(c < 1 for c in cols):
            raise BadArguments("empty columns are not stored")
        if any(cols[i] > cols[i + 1] for i in range(len(cols) - 1)):
            raise BadArguments(f"column profile {cols} is not ascending")
        self.__dict__.update(cols=cols, inverted=inverted)

    def __eq__(self, other):  # spelt out, faster than record's: singleton_bound's cache keys
        return (self.cols == other.cols and self.inverted == other.inverted
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.cols, self.inverted))

    @property
    def m(self) -> int:
        return self.cols[-1] if self.cols else 0

    @property
    def n(self) -> int:
        return len(self.cols)

    @property
    def dots(self) -> int:
        return sum(self.cols)

    def is_empty(self) -> bool:
        return not self.cols

    def row_profile(self):
        """Dots per row, top to bottom (non-increasing)."""
        return tuple(sum(1 for c in self.cols if c > i) for i in range(self.m))

    def cell_is_dot(self, i, j) -> bool:
        """Dot test in display coordinates of the m x n box."""
        col = self.cols[self.n - 1 - j] if self.inverted else self.cols[j]
        return i < col

    def cells(self):
        return [(i, j) for i in range(self.m) for j in range(self.n)
                if self.cell_is_dot(i, j)]

    def __str__(self):
        tag = "^" if self.inverted else ""
        return f"F{tag}={list(self.cols)}"


def transpose(F: FerrersDiagram) -> FerrersDiagram:
    """Swap rows and columns (standard convention only)."""
    if F.inverted:
        raise BadArguments("transpose is defined on the standard convention")
    return FerrersDiagram(tuple(reversed(F.row_profile())))


def inverse(F: FerrersDiagram) -> FerrersDiagram:
    """Mirrored convention: columns read right-to-left."""
    return FerrersDiagram(F.cols, inverted=not F.inverted)


def nu(F: FerrersDiagram, delta: int, i: int) -> int:
    """Dots left after deleting the first i rows and the rightmost
    delta-1-i columns (leftmost for the mirrored convention)."""
    if not 0 <= i <= delta - 1:
        raise BadArguments(f"need 0 <= i <= delta-1, got i={i}")
    drop = delta - 1 - i
    keep = F.cols[: max(0, F.n - drop)]
    return sum(max(0, c - i) for c in keep)


@lru_cache(maxsize=None)
def singleton_bound(F: FerrersDiagram, delta: int) -> int:
    """Upper bound on the dimension of a distance-delta code on F."""
    if delta < 1:
        raise BadArguments("delta must be positive")
    if F.is_empty():
        return 0
    return min(nu(F, delta, i) for i in range(delta))


@record
class FdrmCode:
    """Linear code of m x n matrices supported on a Ferrers diagram."""

    diagram: FerrersDiagram
    code: LinearMatrixCode
    delta: int
    optimal: bool

    @property
    def dim(self) -> int:
        return self.code.dim

    @property
    def q(self) -> int:
        return self.code.q

    @property
    def size(self) -> int:
        return self.code.size


@lru_cache(maxsize=None)
def _off_mask(diagram: FerrersDiagram, W: int) -> int:
    """The cells off the diagram as one flattened m x n word of W-bit
    entries, all ones there: ANDed with a flattened matrix, its leaks."""
    m, n = diagram.m, diagram.n
    return ~sum([(1 << W) - 1 << ((m - i) * n - 1 - j) * W
                 for i, j in diagram.cells()])


def support_leaks(diagram: FerrersDiagram, basis):
    """(t, i, j) for each nonzero entry (i, j) of basis matrix t that lies
    outside the diagram, in basis then row-major order; a matrix that is
    not m x n raises BadShape."""
    m, n = diagram.m, diagram.n
    basis = tuple(basis)
    if any((B.rows, B.cols) != (m, n) for B in basis):
        raise BadShape(f"basis matrices must be {m}x{n}, as the diagram")
    for t, B in enumerate(basis):
        W = lanes(B.q).W
        leak = B.flatten() & _off_mask(diagram, W)
        while leak:  # the highest entry first: row-major order
            e = (leak.bit_length() - 1) // W
            yield (t, *divmod(m * n - 1 - e, n))
            leak &= (1 << e * W) - 1


def _check_support(diagram: FerrersDiagram, basis) -> bool:
    return next(support_leaks(diagram, basis), None) is None


def _all_dots_basis(q, diagram):
    """Unit matrix per dot, row-major over display cells."""
    m, n = diagram.m, diagram.n
    units = MatGF.identity(q, n).packed
    return tuple(MatGF.from_packed(q, n, [units[j] if r == i else 0 for r in range(m)])
                 for i, j in diagram.cells())


def _zero_fdrm(diagram, delta, q) -> FdrmCode:
    code = LinearMatrixCode(q, diagram.m, diagram.n, (), delta)
    return FdrmCode(diagram=diagram, code=code, delta=delta, optimal=True)


def _intersect_mrd(q, diagram, delta):
    """Basis of the MRD subcode supported on a standard diagram with m >= n."""
    gab = gabidulin(q, diagram.m, diagram.n, delta, verify=False)
    # transposed, row i * n + j holds entry (i, j) of each basis matrix, 0 on a dot
    constraint = MatGF.from_packed(q, diagram.m * diagram.n, map(
        _off_mask(diagram, lanes(q).W).__and__, [B.flatten() for B in gab.basis]))
    return tuple(gab.combine(v) for v in kernel_basis(constraint.transpose()))


@lru_cache(maxsize=None)
def optimal_fdrmc(F: FerrersDiagram, delta: int, q: int) -> FdrmCode:
    """Construct a diagram-supported code meeting the dimension bound.

    Routes: the zero code when the bound vanishes, all dot positions when
    delta = 1, and the MRD support intersection otherwise.  The resulting
    dimension is checked against the bound; a shortfall raises
    ConditionNotMet (the nonconstructive square-diagram territory).  The
    code is immutable, so each argument tuple is built and verified once
    per process.
    """
    bound = singleton_bound(F, delta)
    if bound == 0:
        return _zero_fdrm(F, delta, q)
    if delta == 1:
        basis = _all_dots_basis(q, F)
        code = LinearMatrixCode(q, F.m, F.n, basis, delta)
        return FdrmCode(diagram=F, code=code, delta=delta, optimal=True)

    work = FerrersDiagram(F.cols)
    transposed = work.m < work.n
    if transposed:
        work = transpose(work)
    basis = _intersect_mrd(q, work, delta)
    if len(basis) != bound:
        raise ConditionNotMet(
            f"support intersection on {work} gives dimension {len(basis)}, "
            f"bound is {bound}; no constructive route applies")
    if transposed:
        # plain transposition lands bottom-left aligned; rotate back into
        # the top-right convention (rank is permutation-invariant)
        basis = tuple(B.transpose().reverse_rows().reverse_cols() for B in basis)
    if F.inverted:
        basis = tuple(B.reverse_cols() for B in basis)
    code = LinearMatrixCode(q, F.m, F.n, basis, delta)
    if not _check_support(F, basis):
        raise VerificationFailed("basis leaks outside the diagram support")
    verify_min_rank(code)
    return FdrmCode(diagram=F, code=code, delta=delta, optimal=True)


def compose_fdrmc(c1: FdrmCode, c2: FdrmCode, m3: int, n3: int) -> FdrmCode:
    """Block-assemble equal-dimension codes into one on the composite diagram

        [ F1  D ]
        [  0 F2 ]

    with D a full m3 x n3 block; the distance adds because any nonzero
    coefficient vector activates both diagonal blocks at once.
    """
    if c1.dim != c2.dim:
        raise DimensionMismatch(f"dims {c1.dim} != {c2.dim}")
    if c1.diagram.inverted or c2.diagram.inverted:
        raise BadArguments("compose expects standard-convention inputs")
    if c1.q != c2.q:
        raise BadArguments("codes over different fields")
    q = c1.q
    f1, f2 = c1.diagram, c2.diagram
    m1, n1 = f1.m, f1.n
    m2, n2 = f2.m, f2.n
    if m3 < m1 or n3 < n2:
        raise BadArguments(f"need m3 >= {m1} and n3 >= {n2}")
    cols = list(f1.cols) + [m3] * (n3 - n2) + [m3 + c for c in f2.cols]
    composite = FerrersDiagram(tuple(cols))
    m, n = composite.m, composite.n
    basis = []
    for B1, B2 in zip(c1.code.basis, c2.code.basis):  # F2 is not empty
        top = B1.hstack(MatGF.zeros(q, m1, n - n1)).vstack(MatGF.zeros(q, m3 - m1, n))
        basis.append(top.vstack(MatGF.zeros(q, m2, n - n2).hstack(B2)))
    delta = c1.delta + c2.delta
    code = LinearMatrixCode(q, m, n, tuple(basis), delta)
    if not _check_support(composite, basis):
        raise VerificationFailed("composite basis leaks outside the diagram")
    verify_min_rank(code)
    return FdrmCode(diagram=composite, code=code, delta=delta,
                    optimal=code.dim == singleton_bound(composite, delta))


def th43_optimal_fdrmc(n: int, k: int, q: int) -> FdrmCode:
    """Optimal distance-3 code on the hook-shaped diagram

        [1, ..., 1, 1+r, 1+2r]   with r = floor((k-1)/2)

    built by composing a distance-2 row code with a free column code.
    """
    if n < 2 * k or k < 2:
        raise BadArguments(f"need n >= 2k >= 4, got n={n}, k={k}")
    r = (k - 1) // 2
    cols = tuple([1] * (n - k - 2) + [1 + r, 1 + 2 * r])
    target = FerrersDiagram(cols)
    if r == 0:
        return _zero_fdrm(target, 3, q)
    bound = singleton_bound(target, 3)
    if bound != r:
        raise ConditionNotMet(
            f"target diagram bound {bound} != {r}; parameters too tight")
    f1 = FerrersDiagram(tuple([1] * (n - k - 2) + [1 + r]))
    c1 = optimal_fdrmc(f1, 2, q)
    f2 = FerrersDiagram((r,))
    c2 = optimal_fdrmc(f2, 1, q)
    out = compose_fdrmc(c1, c2, m3=1 + r, n3=1)
    if out.diagram != target or out.dim != r:
        raise VerificationFailed("composite does not match the target diagram")
    return FdrmCode(diagram=out.diagram, code=out.code, delta=3, optimal=True)


# ---------------------------------------------------------------------------
# nested pairs and coset lists
# ---------------------------------------------------------------------------

@record
class NestedPair:
    """Optimal codes c1 (distance d1) inside c2 (distance d2 < d1) on one
    diagram, with a deterministic completion of c1's basis to c2's."""

    c1: FdrmCode
    c2: FdrmCode
    quotient: tuple

    @property
    def q(self) -> int:
        return self.c2.q

    @property
    def diagram(self) -> FerrersDiagram:
        return self.c1.diagram

    @property
    def coset_count(self) -> int:
        return self.q ** len(self.quotient)


def nested_pair(F: FerrersDiagram, delta1: int, delta2: int, q: int) -> NestedPair:
    """Build nested optimal codes on F for distances delta1 > delta2."""
    if not delta1 > delta2 > 0:
        raise BadArguments(f"need delta1 > delta2 > 0, got {delta1}, {delta2}")
    c1 = optimal_fdrmc(F, delta1, q)
    c2 = optimal_fdrmc(F, delta2, q)
    # c2's basis is independent, so c1 lies in c2 iff stacking adds no rank
    if span_rank(q, c2.code.basis + c1.code.basis) != c2.dim:
        raise ConditionNotMet("inner code is not contained in the outer code")
    # deterministic completion of c1's basis to c2's
    quotient = []
    current = list(c1.code.basis)
    flat_rank = span_rank(q, current)
    for B in c2.code.basis:
        r = span_rank(q, current + [B])
        if r > flat_rank:
            current.append(B)
            quotient.append(B)
            flat_rank = r
    if flat_rank != c2.dim:
        raise VerificationFailed("basis completion failed")
    return NestedPair(c1=c1, c2=c2, quotient=tuple(quotient))


def coset_list(pair: NestedPair, r=None):
    """The cosets of c1 inside c2, each an explicit MatrixSet.

    Representatives are enumerated in lexicographic order of the quotient
    coefficients, so the first coset contains the zero matrix.  With a rank
    cap r, members above rank r are removed (``restrict_ranks``); emptied
    cosets stay in place.
    """
    q, inner = pair.q, pair.c1.code
    m, n, size = inner.m, inner.n, inner.size
    # with the quotient coefficients leading, the outer code's codewords
    # come coset by coset: q^dim(c1) runs of representative + inner codeword
    outer = LinearMatrixCode(q, m, n, pair.quotient + inner.basis, inner.delta)
    words = outer.words  # raises TooLargeToEnumerate beyond ENUM_CAP
    cosets = [MatrixSet(q, m, n, delta=inner.delta, words=words[i:i + size],
                        ranks=None if r is None else outer.ranks[i:i + size])
              for i in range(0, len(words), size)]
    return cosets if r is None else [restrict_ranks(c, r) for c in cosets]


def coset_list_inverse(pair: NestedPair, r=None):
    """Coset list on a mirrored diagram, optionally rank-restricted.

    Emptied cosets are kept in place so downstream pairing stays aligned;
    the returned report counts them.
    """
    if not pair.diagram.inverted:
        raise BadArguments("expected a mirrored (inverse-convention) diagram")
    cosets = coset_list(pair, r=r)
    empties = sum(1 for c in cosets if not c.size)
    return cosets, empties


def gfrmc_lower_bound(F: FerrersDiagram, delta: int, r: int, q: int,
                      with_index: bool = False):
    """Guaranteed size of a rank-at-most-r code on F: best column split.

    Each split i keeps a g_i x (n-i) box; boxes too small for the distance
    still admit the zero matrix, contributing 1.
    """
    if F.n < r:
        raise BadArguments(f"need n >= r, got n={F.n}, r={r}")
    if r == 0 or F.is_empty():
        return (1, 0) if with_index else 1
    best, best_i = 0, 0
    for i in range(1, F.n + 1):
        g = F.cols[i - 1]
        w = F.n - i
        if w == 0 or delta > min(g, w):
            val = 1
        else:
            val = grmc_lower_bound(q, g, w, delta, 0, min(r, g, w))
        if val > best:
            best, best_i = val, i
    return (best, best_i) if with_index else best
