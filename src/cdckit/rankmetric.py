"""Linear rank-metric codes: the standard MRD family, exact minimum ranks,
rank distributions, given-rank lower bounds, rank-restricted subsets, and
lifting to subspaces.

A codeword is one packed int, its ``MatGF.flatten()`` (rows one after
another): ``LinearMatrixCode.words`` for a linear code and
``MatrixSet.words`` for an explicit set, whose ``members`` are made on
every read.  Only this module turns a word into a ``MatGF``; ``ferrers``
tests a word's support with one AND (``ferrers._off_mask``).  The rank
census and the minimum-rank proof share one subcode step, ``_cuts``; it
and ``_span`` grow their spans by ``linalg._Lanes.span``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache

from .errors import (BadArguments, BadShape, TooLarge, TooLargeToEnumerate,
                     VerificationFailed, record)
from .gf import expand_rows, ext_new, frobenius
from .linalg import MatGF, _eliminate, gaussian_binomial, lanes, span_rank

ENUM_CAP = 2 ** 20  # codewords enumerated, or rows a min-rank proof eliminates


def _span(q, vs, n):
    """Every combination of the packed rows vs of n entries, the first
    coefficient slowest (``_Lanes.span``); above ``ENUM_CAP`` words it raises."""
    if q ** len(vs) > ENUM_CAP:
        raise TooLargeToEnumerate(f"{q ** len(vs)} codewords exceed cap {ENUM_CAP}")
    return lanes(q).span(vs, n)


def _cuts(q, s, t, sides, carry, p, free):
    """For each row y = e_p + the sum of a_c e_c over c in ``free`` (a_c read
    base q, the first slowest), the subcode {X : yX = 0} of the span of the
    s x t matrices ``sides`` (flattened), in words of ``carry``, one per
    matrix: one pass of lane sums gives every yX, and eliminating the rows
    [yX | word] leaves the subcode's basis in the rows leading in the word."""
    L, d, f = lanes(q), len(sides), t * lanes(q).W
    mask = (1 << f) - 1
    wide = [sum([(X >> (s - 1 - i) * f & mask) << j * f for j, X in enumerate(sides)])
            for i in range(s)]
    for v in L.span([wide[c] for c in free], d * t, wide[p]):
        rows = [(v >> j * f & mask) << s * f | w for j, w in enumerate(carry)]
        echelon, pivots = _eliminate(q, t + s * t, rows, reduced=False)
        yield [r for r, c in zip(echelon, pivots) if c >= t]


def _counted_ranks(code) -> tuple:
    """The rank of every codeword, in ``words`` order: a codeword of rank r
    lies in the subcodes of (q^(s-r) - 1) / (q - 1) points of GF(q)^s, cut
    by ``_cuts`` at each pivot p for the points that lead there."""
    q, (s, t), held = code.q, sorted((code.m, code.n)), Counter()
    sides = [(B if code.m <= code.n else B.transpose()).flatten() for B in code.basis]
    flats = [B.flatten() for B in code.basis]
    for p in range(s):
        for sub in _cuts(q, s, t, sides, flats, p, range(p + 1, s)):
            held.update(_span(q, sub, s * t))
    rank_of = {(q ** (s - r) - 1) // (q - 1): r for r in range(s + 1)}
    return tuple(map(rank_of.__getitem__, map(held.__getitem__, code.words)))


@record
class LinearMatrixCode:
    """GF(q)-linear space of m x n matrices given by a basis."""

    q: int
    m: int
    n: int
    basis: tuple
    delta: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.q ** self.dim

    def codewords(self):
        """All codewords, in lexicographic order of coefficient vectors."""
        q, m, n = self.q, self.m, self.n
        for w in self.words:
            yield MatGF.unflatten(q, m, n, w)

    @cached_property
    def words(self) -> tuple:
        """Every codeword's packed ``flatten()``, in ``codewords()`` order.

        The span grows one basis matrix at a time (``_span``), so the first
        coefficient runs slowest.  Cached on the code, so each code is
        enumerated once.
        """
        return tuple(_span(self.q, [B.flatten() for B in self.basis], self.m * self.n))

    @cached_property
    def ranks(self) -> tuple:
        """The rank of every codeword, in ``codewords()`` order (the zero
        matrix first).  Cached on the code, so each code is ranked once.

        A code with at least three codewords per point of its shorter side
        is ranked by counting the points that annihilate each codeword
        (``_counted_ranks``).  Counting takes one elimination per point and
        holds a pivot's points at once, however few codewords there are, so a
        smaller code, such as a small code in a tall matrix, is ranked by
        one elimination of each codeword's rows, which is then as cheap or
        cheaper.
        """
        q, m, n, words = self.q, self.m, self.n, self.words
        if len(words) >= 3 * ((q ** min(m, n) - 1) // (q - 1)):
            return _counted_ranks(self)
        f = n * lanes(q).W
        mask = (1 << f) - 1
        return tuple([len(_eliminate(q, n, [w >> i * f & mask for i in range(m)],
                                     reduced=False)[1]) for w in words])

    def is_independent(self) -> bool:
        """Whether the basis matrices are linearly independent, so that
        ``size`` counts distinct codewords."""
        return span_rank(self.q, self.basis) == self.dim

    def combine(self, coeffs) -> MatGF:
        L, v = lanes(self.q), [0]
        for c, B in zip(coeffs, self.basis):
            v = L.sums(v, [L.scale(c, B.flatten())], self.m * self.n)
        return MatGF.unflatten(self.q, self.m, self.n, v[0])

    def transpose(self) -> "LinearMatrixCode":
        code = LinearMatrixCode(self.q, self.n, self.m,
                                tuple(B.transpose() for B in self.basis), self.delta)
        if "ranks" in self.__dict__:  # rank is invariant under transposition
            code.__dict__["ranks"] = self.ranks
        return code


@record
class MatrixSet:
    """Explicit set of m x n matrices with a claimed minimum rank distance,
    stored as ``words``, the packed ``flatten()`` of each member in turn, as
    ``LinearMatrixCode.words``; ``ranks``, not a field, holds the members'
    ranks in order when known.  ``members`` (``MatGF``s) may be given
    instead, checked for shape and field, and only their words are kept;
    read, they are made from the words each time."""

    q: int
    m: int
    n: int
    words: tuple
    delta: int

    def __init__(self, q, m, n, members=None, delta=None, ranks=None, *, words=()):
        if delta is None:
            raise TypeError("MatrixSet needs its claimed distance delta")
        if members is not None:
            members = tuple(members)
            if any((M.q, M.rows, M.cols) != (q, m, n) for M in members):
                raise BadShape(f"members must be {m}x{n} over GF({q})")
            words = [M.flatten() for M in members]
        self.__dict__.update(q=q, m=m, n=n, words=tuple(words), delta=delta,
                             ranks=ranks)

    @property
    def members(self) -> tuple:
        q, m, n = self.q, self.m, self.n
        return tuple(MatGF.unflatten(q, m, n, w) for w in self.words)

    @property
    def size(self) -> int:
        return len(self.words)


def min_nonzero_rank(code: LinearMatrixCode, upto=None) -> int:
    """The least rank of a nonzero codeword of a linear code if it is at
    most ``upto`` (default min(m, n)), else upto + 1: from ``ranks`` if the
    code has at most ``ENUM_CAP`` codewords and fewer than the proof has
    systems or its proof could pass ``ENUM_CAP`` rows, else proven."""
    q, s, d = code.q, min(code.m, code.n), code.dim
    upto = s if upto is None else min(upto, s)
    if upto < 1:
        return upto + 1
    systems = sum(gaussian_binomial(s, u, q) for u in range(s - upto, s))
    rows = d * (gaussian_binomial(s, 1, q) + systems)
    if code.size <= ENUM_CAP and (code.size < systems or rows > ENUM_CAP):
        return min([*filter(None, code.ranks), upto + 1])
    return _proven_min_rank(code, upto)


def _proven_min_rank(code, upto):
    """``min_nonzero_rank`` with no codeword ranked.  A u-subspace Y
    annihilates a matrix of rank r (YX = 0) iff u <= s - r (Delsarte 1978),
    so the least rank is s - u + 1 for the first level u = s - upto, s -
    upto + 1, ... where no Y annihilates a nonzero codeword (Ravagnani
    2016).  Y is cut row by row, pivot set first (``_cuts``), and a zero
    subcode prunes every extension.  It raises ``TooLarge`` past
    ``ENUM_CAP`` rows eliminated."""
    q, (s, t), work = code.q, sorted((code.m, code.n)), 0

    def held(words, pivots):  # whether rows on these pivots leave a nonzero subcode
        nonlocal work
        if not pivots or not any(words):
            return any(words)
        p, rest = pivots[0], pivots[1:]
        free = [c for c in range(p + 1, s) if c not in rest]
        work += len(words) * q ** len(free)
        if work > ENUM_CAP:
            raise TooLarge(f"{code.size} codewords, and a min-rank proof's rows, "
                           f"exceed cap {ENUM_CAP}")
        return any(held(sub, rest) for sub in _cuts(q, s, t, words, words, p, free))

    flats = [(B if code.m <= code.n else B.transpose()).flatten() for B in code.basis]
    for u in range(s - upto, s):
        if not any(held(flats, P) for P in itertools.combinations(range(s), u)):
            return s - u + 1
    return 1


def verify_min_rank(code: LinearMatrixCode):
    """Check that the basis is independent and that no nonzero codeword has
    rank below the claimed distance (``min_nonzero_rank``)."""
    if not code.is_independent():
        raise VerificationFailed("basis not linearly independent")
    got = min_nonzero_rank(code, code.delta - 1)
    if got < code.delta:
        raise VerificationFailed(f"min nonzero rank {got} below claimed {code.delta}")


def gabidulin(q: int, m: int, n: int, delta: int, verify: bool = True) -> LinearMatrixCode:
    """Linear MRD code of m x n matrices with min rank distance delta.

    Codewords expand evaluations of the degree-restricted q-power polynomials
    at the fixed polynomial basis points, so the code is deterministic and the
    families for different delta at the same (q, m, n) are nested.  The code
    is immutable, so each (q, m, n, delta) is built and verified once per
    process, however a call spells it.
    """
    return _gabidulin(q, m, n, delta, bool(verify))


@lru_cache(maxsize=None)
def _gabidulin(q, m, n, delta, verified):
    if delta < 1 or delta > min(m, n):
        raise BadShape(f"need 1 <= delta <= min(m, n), got delta={delta}, m={m}, n={n}")
    if m < n:
        return _gabidulin(q, n, m, delta, verified).transpose()
    if verified:  # the unverified build, verified
        verify_min_rank(code := _gabidulin(q, m, n, delta, False))
        return code
    ext = ext_new(q, m)
    points = ext.basis()[:n]
    basis = []
    for i in range(n - delta + 1):
        frob_pts = [frobenius(ext, p, i) for p in points]
        for b in ext.basis():
            word = [ext.mul(b, fp) for fp in frob_pts]
            basis.append(expand_rows(ext, word))
    code = LinearMatrixCode(q, m, n, tuple(basis), delta)
    if not code.is_independent():
        raise VerificationFailed("basis not linearly independent")
    return code


gabidulin.cache_clear = _gabidulin.cache_clear


def rank_distribution(q: int, m: int, n: int, delta: int, r: int) -> int:
    """Number of rank-r codewords in the (q, m, n, delta) MRD family.

    By convention r = 0 counts the zero matrix (1) and 0 < r < delta counts
    nothing, which makes the size identity a testable invariant.
    """
    mn, mx = min(m, n), max(m, n)
    if delta < 1 or delta > mn:
        raise BadArguments("delta outside 1..min(m,n)")
    if r < 0 or r > mn:
        raise BadArguments(f"rank r={r} outside 0..min(m,n)={mn}")
    if r == 0:
        return 1
    if r < delta:
        return 0
    total = 0
    for i in range(r - delta + 1):
        term = q ** (i * (i - 1) // 2) * gaussian_binomial(r, i, q) \
            * (q ** (mx * (r - i - delta + 1)) - 1)
        total += -term if i % 2 else term
    result = gaussian_binomial(mn, r, q) * total
    if result < 0:
        raise VerificationFailed("negative rank distribution value")
    return result


def grmc_lower_bound(q: int, m: int, n: int, delta: int, t1: int, t2: int) -> int:
    """Guaranteed size of a rank-metric code whose codeword ranks lie in
    [t1, t2]: the full rank census when t2 >= delta, otherwise the best
    coset-packing quotient (exact ceiling division)."""
    mn, mx = min(m, n), max(m, n)
    if delta < 1 or delta > mn:
        raise BadArguments("delta outside 1..min(m,n)")
    if not 0 <= t1 <= t2 or t2 > mn:
        raise BadArguments(f"need 0 <= t1 <= t2 <= min(m,n), got {t1}, {t2}")
    if t2 == 0:
        return 1
    if t2 >= delta:
        return sum(rank_distribution(q, m, n, delta, i) for i in range(t1, t2 + 1))
    best = 0
    for a in range(max(1, t1), delta):
        num = sum(rank_distribution(q, m, n, a, i) for i in range(max(1, t1), t2 + 1))
        den = q ** (mx * (delta - a)) - 1
        best = max(best, -(-num // den))
    return best


def restrict_ranks(code, t2: int) -> MatrixSet:
    """The codewords of rank at most t2 (the zero matrix included) of a
    linear code, or of a ``MatrixSet`` whose ranks are known, in order."""
    if code.ranks is None:
        raise BadArguments("restrict_ranks needs the members' ranks")
    keep = [r <= t2 for r in code.ranks]
    return MatrixSet(code.q, code.m, code.n, delta=code.delta,
                     words=itertools.compress(code.words, keep),
                     ranks=tuple(itertools.compress(code.ranks, keep)))


def lift(code, side: str = "left"):
    """Attach an identity block to every codeword and take row spaces.

    A code of m x n matrices becomes m-dimensional subspaces of GF(q)^(m+n)
    at distance 2*delta, in ``codewords()`` order, by ``cdc._place``.
    """
    from .cdc import Cdc, _place

    if side not in ("left", "right"):
        raise BadArguments("side must be 'left' or 'right'")
    q, m, n, delta = code.q, code.m, code.n, code.delta
    units = MatGF.identity(q, m + n).packed
    # a code beyond ENUM_CAP raises TooLargeToEnumerate in _place (_span)
    rows = (_place(q, m + n, [units[:m]], range(m, m + n), code) if side == "left"
            else _place(q, m + n, [units[n:]], range(n), code))
    return Cdc(q=q, n=m + n, k=m, d=2 * delta, rows=rows, provenance=f"lifted[{side}]")
