"""Dense matrices over GF(q): echelon forms, rank, subspaces, Gaussian binomials
(cached per (n, k, q) for the life of the process).

Every matrix row is one packed int.  An entry x of GF(q), q = p^e, is e
lanes holding the base-p digits of x, digit i in lane i: 1-bit lanes added
by XOR for p = 2, 4-bit lanes for odd p, added by one integer add after
which p is taken off each lane that reached p (adding 8 - p sets its guard
bit 8).  Entries are padded to 1, 2, 4 or 8 bits and column 0 is the most
significant, so comparing packed rows as ints is the lexicographic order of
their digits.  Scaling maps a row's bytes through a 256-entry table.  A row
of decimal digits is packed by one ``str.translate`` to its text in base 16
(base 2 below 4-bit entries) and one ``int``.

A code of k-dimensional subspaces is packed rows too, from construction to
file to certificate: the k RREF rows of every codeword, codeword after
codeword (``cdc.Cdc.rows``).  ``_non_rref`` tests all its k-row blocks for
RREF of rank k at once: row i of every block side by side in one wide int,
a block to a lane (``_side_by_side``, which also lays out the certifier's
wide rows), and a fixed number of whole-int operations per row position.
One step, ``_Lanes.span``, grows every span:
``_Lanes.points`` (the certifier's keys), ``rankmetric``'s codewords and
subcode images, and the packed rows of each RREF generator of the
Grassmannian (``_rref_rows``).
Distances are taken from rows (``_pair_distance``), so a
``Subspace`` is made only on request: ``Subspace``, ``from_matrix``,
``enumerate_subspaces``, ``cdc.Cdc.members``.  A rank-metric code is
packed words too, one ``MatGF.flatten()`` per codeword
(``rankmetric.MatrixSet.words``), and ``MatrixSet.members`` makes its
``MatGF``s on every read.  One Gauss-Jordan kernel, ``_eliminate``, serves
``rref``, ``rank``, the blocks ``_non_rref`` rejects, pair distances,
``rankmetric.LinearMatrixCode.ranks`` and ``rankmetric.min_nonzero_rank``.
``MatGF.spread`` moves whole columns by masks and shifts.  Rows become
digits only in ``_Lanes.lines``, many rows per call, each distinct row once.

Subspaces are always stored by their RREF generator, so equality and hashing
are entrywise and the pivots are read off it.  A ``MatGF`` or ``Subspace``
holds only its packed rows and shape: hashes and member masks are computed
on each call.  Column indices are 0-based internally; file formats and CLI
output are 1-based.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from functools import lru_cache

from .errors import AmbientMismatch, BadArguments, BadShape, NotRref
from .gf import field_new


@lru_cache(maxsize=32)
def _swar(p, bits):
    """For odd p and rows of ``bits`` bits in 4-bit lanes: 8 - p and the
    guard bit 8 in every lane, and the subtraction of rows.  The cache is
    bounded, as the certifier's rows of all codewords side by side can take
    hundreds of kilobytes."""
    ones = int("1" * (bits // 4) or "0", 16)
    K, G, P = (8 - p) * ones, 8 * ones, p * ones

    def minus(a, b):  # P - b has lanes 1..p, which sums reduce like digits
        s = a + P - b
        return s - ((s + K & G) >> 3) * p
    return K, G, minus


class _Lanes:
    """Lane constants of GF(q), derived from q = p^e, and row arithmetic."""

    def __init__(self, q):
        self.field = f = field_new(q)
        self.p, w = f.p, 1 if f.p == 2 else 4  # lane width
        self.W = 1 << (f.e * w - 1).bit_length()  # entry width
        self.emask = (1 << self.W) - 1
        self.code = code = [sum(x // f.p ** i % f.p << i * w for i in range(f.e))
                            for x in range(q)]
        self.elem = [code.index(c) if c in code else 0 for c in range(1 << self.W)]
        self.inv = [f.inv(x) if x else 0 for x in self.elem]  # code -> 1 / x
        self._tables = {}
        # as text a row is its int in base 16, or base 2 below 4-bit
        # entries; ``text`` maps a decimal digit to its entry's text there,
        # and entries other than of 1 or 4 bits are read back byte by byte
        self.base, self.fmt = (16, "x") if self.W >= 4 else (2, "b")
        self.digit_chars = "0123456789"[:q]
        self.text = str.maketrans({
            str(x): format(c, f"0{self.W // 4 or self.W}{self.fmt}")
            for x, c in enumerate(code)})
        self.byte_digits = None if self.W in (1, 4) else [
            "".join(str(self.elem[b >> s & self.emask])
                    for s in range(8 - self.W, -1, -self.W)) for b in range(256)]

    def pack(self, row):
        """The packed int of a row given as a string of decimal digits
        below q; the caller checks the digits."""
        return int(row.translate(self.text) or "0", self.base)

    def lines(self, rows, n):
        """The packed rows of n entries as strings of decimal digits: their
        text in base 2 or 16 for 1- and 4-bit entries, else their bytes
        through ``byte_digits``.  Each distinct row is formatted once."""
        if not n:
            return [""] * len(rows)
        distinct = dict.fromkeys(rows)  # first-occurrence order
        if self.byte_digits is None:
            text = list(map(format, distinct, itertools.repeat(f"0{n}{self.fmt}")))
        else:
            tab, size = self.byte_digits.__getitem__, (n * self.W + 7) // 8
            text = ["".join(map(tab, v.to_bytes(size, "big")))[-n:] for v in distinct]
        return text if len(text) == len(rows) else list(  # some row repeats
            map(dict(zip(distinct, text)).__getitem__, rows))

    def scale(self, c, v):
        """The packed row v times the field element c."""
        if c <= 1:
            return v if c else 0
        if c not in self._tables:
            mul, code, elem = self.field._mul[c], self.code, self.elem
            self._tables[c] = bytes(
                sum(code[mul[elem[b >> s & self.emask]]] << s
                    for s in range(0, 8, self.W)) for b in range(256))
        return int.from_bytes(v.to_bytes((v.bit_length() + 7) // 8, "big")
                              .translate(self._tables[c]), "big")

    def sums(self, xs, ys, n):
        """[x + y for x in xs for y in ys] on packed rows of n entries."""
        if self.p == 2:
            return [x ^ y for x in xs for y in ys]
        p, (K, G, _) = self.p, _swar(self.p, n * self.W)
        return [s - ((s + K & G) >> 3) * p for s in [x + y for x in xs for y in ys]]

    def minus(self, n):
        """Subtraction of packed rows of n entries."""
        return operator.xor if self.p == 2 else _swar(self.p, n * self.W)[2]

    def span(self, rows, n, base=0):
        """base plus every combination of the packed rows of n entries: each
        sum so far plus every multiple of the next row, so the first
        coefficient runs slowest.  Only lane arithmetic is used, so a row
        may be many rows side by side in zero-padded fields of whole bytes,
        n then counting the entries of all of them."""
        out, q = [base], len(self.code)
        for v in rows:
            out = self.sums(out, [self.scale(c, v) for c in range(q)], n)
        return out

    def points(self, rows, n):
        """The combinations of packed rows whose first nonzero coefficient
        is 1: by that coefficient's row, then by the later coefficients
        read base q (``span``)."""
        return [x for i, v in enumerate(rows) for x in self.span(rows[i + 1:], n, v)]


@lru_cache(maxsize=None)
def lanes(q) -> _Lanes:
    """The lane constants of GF(q), built once, on first use."""
    return _Lanes(q)


class MatGF:
    """Immutable dense matrix over GF(q), one packed int per row."""

    __slots__ = ("q", "rows", "cols", "packed")

    def __init__(self, q, rows_data):
        data = tuple(map(tuple, rows_data))
        if len(set(map(len, data))) > 1:
            raise BadShape("ragged rows")
        L, cols = lanes(q), len(data[0]) if data else 0
        lines = ["".join(map(str, r)) for r in data]
        # one digit below q per entry: stripping those digits leaves nothing
        if any(len(s) != cols or s.strip(L.digit_chars) for s in lines):
            raise BadArguments("entry outside field range")
        self.packed = tuple(map(L.pack, lines))
        self.q, self.rows, self.cols = q, len(data), cols

    @classmethod
    def from_packed(cls, q, cols, packed):
        """The matrix with these packed rows of ``cols`` entries each."""
        M = object.__new__(cls)
        M.q, M.cols, M.packed = q, cols, tuple(packed)
        M.rows = len(M.packed)
        return M

    @classmethod
    def zeros(cls, q, rows, cols):
        return cls.from_packed(q, cols, (0,) * rows)

    @classmethod
    def identity(cls, q, n):
        return cls.from_packed(q, n, [1 << i * lanes(q).W for i in range(n)][::-1])

    def lines(self):
        """The rows as strings of decimal digits."""
        return lanes(self.q).lines(self.packed, self.cols)

    @property
    def data(self):
        """The entries as a tuple of row tuples, unpacked on each read."""
        return tuple(tuple(map(int, s)) for s in self.lines())

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.q == other.q
                and self.cols == other.cols and self.packed == other.packed)

    def __hash__(self):
        return hash((self.q, self.cols, self.packed))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"MatGF(q={self.q}, [{body}])"

    def __add__(self, other):  # a + b = a - (p - 1) b
        L = lanes(self.q)
        return self - MatGF.from_packed(self.q, other.cols,
                                        [L.scale(L.p - 1, v) for v in other.packed])

    def __sub__(self, other):
        self._check_same_shape(other)
        sub = lanes(self.q).minus(self.cols)
        return MatGF.from_packed(self.q, self.cols, map(sub, self.packed, other.packed))

    def transpose(self):
        L, n = lanes(self.q), self.cols
        out = [0] * n
        for r in self.packed:
            out = [v << L.W | r >> (n - 1 - j) * L.W & L.emask
                   for j, v in enumerate(out)]
        return MatGF.from_packed(self.q, self.rows, out)

    def hstack(self, other):
        if self.rows != other.rows or self.q != other.q:
            raise BadShape("hstack shape mismatch")
        s = other.cols * lanes(self.q).W
        return MatGF.from_packed(self.q, self.cols + other.cols,
                                 [a << s | b for a, b in zip(self.packed, other.packed)])

    def vstack(self, other):
        if self.cols != other.cols or self.q != other.q:
            raise BadShape("vstack shape mismatch")
        return MatGF.from_packed(self.q, self.cols, self.packed + other.packed)

    def spread(self, cols, n):
        """The rows x n matrix with column j of this one at column cols[j]
        and zeros elsewhere.  Columns that move the same distance move
        together: one mask and one shift per distance and row."""
        L, m, moves = lanes(self.q), self.cols, {}
        for j, c in enumerate(cols):
            s = (m - 1 - j) * L.W  # bit offset of column j
            d = (n - 1 - c) * L.W - s
            moves[d] = moves.get(d, 0) | L.emask << s
        up = [(a, d) for d, a in moves.items() if d >= 0]
        down = [(a, -d) for d, a in moves.items() if d < 0]
        return MatGF.from_packed(self.q, n, [
            sum([(r & a) << d for a, d in up]) + sum([(r & a) >> d for a, d in down])
            for r in self.packed])

    def reverse_cols(self):
        return self.spread(range(self.cols - 1, -1, -1), self.cols)

    def reverse_rows(self):
        return MatGF.from_packed(self.q, self.cols, self.packed[::-1])

    def is_zero(self):
        return not any(self.packed)

    def flatten(self):
        """All entries, row after row, as one packed int."""
        s = self.cols * lanes(self.q).W
        return sum(r << (self.rows - 1 - i) * s for i, r in enumerate(self.packed))

    @classmethod
    def unflatten(cls, q, rows, cols, v):
        """The rows x cols matrix whose ``flatten()`` is v."""
        s = cols * lanes(q).W
        return cls.from_packed(q, cols, [v >> (rows - 1 - i) * s & (1 << s) - 1
                                         for i in range(rows)])

    def _check_same_shape(self, other):
        if (self.q, self.rows, self.cols) != (other.q, other.rows, other.cols):
            raise BadShape("shape/field mismatch")


def _eliminate(q, n, rows, reduced=True):
    """Gauss-Jordan over GF(q) on packed rows of n entries; returns (rows,
    pivot columns), echelon rows first and zero rows last.  Without
    ``reduced``, entries above the pivots are left as they fall.

    Each row in turn loses its leading entry to the pivot row leading at
    the same column, until it leads at a new column and becomes a pivot row
    there; a row's leading column is read off its bit length.
    """
    L = lanes(q)
    W, emask, elem, scale, sub = L.W, L.emask, L.elem, L.scale, L.minus(n)
    piv = {}  # bit offset of a pivot entry -> its row, the pivot entry 1
    for v in rows:
        while v:
            s = (v.bit_length() - 1) // W * W
            c = v >> s & emask
            if s not in piv:
                piv[s] = v if c == 1 else scale(L.inv[c], v)
                break
            v = sub(v, piv[s] if c == 1 else scale(elem[c], piv[s]))
    shifts = sorted(piv, reverse=True)
    for i in range(len(shifts) - 1, 0, -1) if reduced else ():  # rightmost first
        s = shifts[i]
        for t in shifts[:i]:
            c = piv[t] >> s & emask
            if c:
                piv[t] = sub(piv[t], piv[s] if c == 1 else scale(elem[c], piv[s]))
    return ([piv[s] for s in shifts] + [0] * (len(rows) - len(piv)),
            tuple([n - 1 - s // W for s in shifts]))


def _side_by_side(rows, k, bits, size):
    """For each row position i < k, the packed rows i, i + k, i + 2k, ...
    of at most ``bits`` bits side by side in one int, row i + b k in lane b
    of ``size`` bytes (1, 2, 4 or a multiple of 8, holding ``bits``).  All
    rows become one ``array`` of little-endian 64-bit words at once (through
    ``to_bytes`` above 64 bits); each lane word, or below 8 bytes each lane
    byte holding row bits, is then one strided slice of them."""
    u = max(1, -(-bits // 64))  # words per row
    units = array("Q", rows if u == 1 else b"".join(
        map(int.to_bytes, rows, itertools.repeat(8 * u), itertools.repeat("little"))))
    if u == 1 and sys.byteorder == "big":
        units.byteswap()
    per, used, step = u, u, size // 8  # units per row, copied, per lane
    if size < 8:
        units, per, used, step = array("B", units.tobytes()), 8, (bits + 7) // 8, size
    lane = array(units.typecode, bytes(size * (len(rows) // k if k else 0)))
    for i in range(k):
        for o in range(used):
            lane[o::step] = units[i * per + o::k * per]
        yield int.from_bytes(lane, "little")


def _non_rref(q, n, k, rows):
    """The indices of the blocks of k consecutive packed rows of n entries
    that are not in RREF of rank k, tested all at once.

    Row i of every block goes into one int, block b in lane b
    (``_side_by_side``), of the narrowest lane holding the r = n W row bits
    and a spare bit r.  A masked smear sets every bit below a lane's leading
    bit, masks keeping each shift inside its lane, and gives every lead.  A
    block is in RREF of rank k exactly when each lead sits on an entry
    boundary (so its entry is 1), each lead is strictly below the one of
    the row above, the last row is nonzero, and each row ANDed with the
    block's pivot entries is its own lead.  The lanes failing a test are
    flagged in their spare bits, and one ``to_bytes`` and a strided slice
    of its bytes give them.  The per-block cost is a fixed number of
    whole-int operations per row position, with no Python work per block."""
    M = len(rows) // k if k else 0
    if not M:
        return []
    W = lanes(q).W
    r = n * W
    size = 1 << max(r, 7).bit_length() - 3 if r < 64 else 8 * (r // 64 + 1)  # bytes
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * M, "little")  # 1 in each lane
    low, spare = ((1 << r) - 1) * ones, (1 << r) * ones
    grid = int(("0" * (W - 1) + "1") * n or "0", 2) * ones  # entry boundaries
    smears = [(1 << j, ((1 << min(r, 8 * size - (1 << j))) - 1) * ones)
              for j in range(max(r - 1, 0).bit_length())]  # shifts below r
    fails, piv, above = 0, 0, low  # above: the bits below the last lead
    packed, leads = [], []
    for x in _side_by_side(rows, k, r, size):
        lit = x  # every bit up to the lead
        for s, keep in smears:
            lit |= lit >> s & keep
        below = lit >> 1 & low
        lead = lit ^ below
        fails |= lead & ~above  # not strictly below the lead above
        above, piv = below, piv | lead
        packed.append(x)
        leads.append(lead)
    fails |= piv & (low ^ grid)  # a lead inside an entry
    piv &= grid
    mask = (piv << W) - piv  # the block's pivot entries
    for x, lead in zip(packed, leads):
        fails |= x & mask ^ lead
    # a lane with fails below its spare bit, or a zero last row, keeps it
    flags = (fails + low | spare - lit) & spare
    return list(itertools.compress(itertools.count(),
                                   flags.to_bytes(M * size, "little")[r // 8::size]))


def rref(M: MatGF):
    """Reduced row echelon form; row space preserved, pivots ascending."""
    rows, pivots = _eliminate(M.q, M.cols, M.packed)
    return MatGF.from_packed(M.q, M.cols, rows), pivots


def rrief(M: MatGF):
    """Reduced row inverse echelon form: pivot of each row strictly left of
    the row above; pivot columns are unit vectors; row space preserved."""
    rev, pivots = rref(M.reverse_cols())
    n = M.cols
    return rev.reverse_cols(), tuple(n - 1 - p for p in pivots)


def echelon_pivots(M: MatGF):
    """The leading column of each row of a matrix in row echelon form: no
    zero row, and leading entries strictly left to right."""
    if not all(M.packed):
        raise NotRref("zero row in echelon matrix")
    W, n = lanes(M.q).W, M.cols
    pivots = [n - 1 - (v.bit_length() - 1) // W for v in M.packed]
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise NotRref("leading entries are not strictly increasing")
    return pivots


def rank(M: MatGF) -> int:
    return len(_eliminate(M.q, M.cols, M.packed, reduced=False)[1])


def span_rank(q, matrices) -> int:
    """Dimension of the span of equal-shape matrices, taken as vectors."""
    n = matrices[0].rows * matrices[0].cols if matrices else 0
    return rank(MatGF.from_packed(q, n, [B.flatten() for B in matrices]))


def kernel_basis(M: MatGF):
    """Basis of the right null space {x : M x = 0}, deterministic order."""
    L, n = lanes(M.q), M.cols
    R, pivots = rref(M)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(R.packed, pivots):
            vec[pc] = L.field.neg(L.elem[row >> (n - 1 - fc) * L.W & L.emask])
        basis.append(tuple(vec))
    return basis


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical RREF form."""

    __slots__ = ("q", "n", "k", "gen")

    def __init__(self, q, n, generator_rows):
        M = generator_rows if isinstance(generator_rows, MatGF) else MatGF(q, generator_rows)
        if M.cols != n:
            raise AmbientMismatch(f"generator has {M.cols} columns, ambient is {n}")
        R, pivots = rref(M)
        if len(pivots) != M.rows:
            raise BadArguments("generator rows are linearly dependent")
        self.q, self.n, self.k, self.gen = q, n, R.rows, R

    @classmethod
    def from_matrix(cls, M: MatGF):
        return cls(M.q, M.cols, M)

    @property
    def pivots(self):
        """The pivot columns of the RREF generator, ascending."""
        return tuple(echelon_pivots(self.gen))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.q == other.q
                and self.n == other.n and self.gen.packed == other.gen.packed)

    def __hash__(self):
        return hash((self.q, self.n, self.gen.packed))

    def __repr__(self):
        return f"Subspace(q={self.q}, n={self.n}, k={self.k}, pivots={self.pivots})"

    def vectors(self):
        """All q^k member vectors, as packed rows: 0, then c times each of
        ``points()`` for c = 1 .. q - 1."""
        scale, points = lanes(self.q).scale, self.points()
        return [0] + [scale(c, v) for c in range(1, self.q) for v in points]

    def points(self):
        """The members whose first nonzero coefficient on the generator rows
        is 1, one per 1-dimensional subspace (``_Lanes.points``)."""
        return lanes(self.q).points(self.gen.packed, self.n)

    def member_mask(self) -> int:
        """Bitmask over vector indices of GF(q)^n marking the q^k members.
        Public API and the tests' oracle for the brute-force clique graph."""
        return sum(1 << int(s, self.q) for s in lanes(self.q).lines(self.vectors(), self.n))


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """dim(U) + dim(V) - 2 dim(U intersect V), via the rank of the stack."""
    if U.n != V.n or U.q != V.q:
        raise AmbientMismatch("subspaces in different ambient spaces")
    return _pair_distance(U.q, U.n, U.gen.packed, V.gen.packed)


def _pair_distance(q, n, a, b):
    """``subspace_distance`` of the spans of independent packed rows a, b."""
    return 2 * len(_eliminate(q, n, [*a, *b], reduced=False)[1]) - len(a) - len(b)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, exact."""
    if k < 0 or k > n:
        raise BadArguments(f"need 0 <= k <= n, got n={n}, k={k}")
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(q, n, k):
    """All k-dimensional subspaces of GF(q)^n, in ``_rref_rows`` order."""
    for g in _rref_rows(q, n, k):
        yield Subspace(q, n, MatGF.from_packed(q, n, g))


def _rref_rows(q, n, k):
    """The k packed rows of the RREF generator of every k-dimensional
    subspace of GF(q)^n: pivot columns in lexicographic order, then the
    free entries read base q, row after row, the first slowest: a pivot's
    unit row plus the ``_Lanes.span`` of the free columns' unit rows after it."""
    L, units = lanes(q), [1 << (n - 1 - c) * lanes(q).W for c in range(n)]
    for pivots in itertools.combinations(range(n), k):
        yield from itertools.product(*[
            L.span([units[c] for c in range(p + 1, n) if c not in pivots], n, units[p])
            for p in pivots])
