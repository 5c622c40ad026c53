"""Dense matrices over GF(q): echelon forms, rank, subspaces, Gaussian binomials.

Subspaces are always stored by their RREF generator, so equality and hashing
are entrywise.  Column indices are 0-based internally; file formats and CLI
output are 1-based.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import AmbientMismatch, BadArguments, BadShape
from .gf import field_new


@lru_cache(maxsize=None)
def _entries(q):
    """The valid entries 0..q-1 of a matrix over GF(q)."""
    return frozenset(range(q))


class MatGF:
    """Immutable dense matrix over GF(q)."""

    __slots__ = ("q", "rows", "cols", "data", "_hash")

    def __init__(self, q, rows_data):
        self.q = q
        data = tuple(map(tuple, rows_data))
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if len(set(map(len, data))) > 1:
            raise BadShape("ragged rows")
        if not _entries(q).issuperset(itertools.chain.from_iterable(data)):
            raise BadArguments("entry outside field range")
        self._hash = None

    @classmethod
    def zeros(cls, q, rows, cols):
        return cls(q, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, q, n):
        return cls(q, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.q == other.q
                and self.data == other.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.q, self.data))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"MatGF(q={self.q}, [{body}])"

    def _ctx(self):
        return field_new(self.q)

    def __add__(self, other):
        self._check_same_shape(other)
        f = self._ctx()
        return MatGF(self.q, [[f.add(a, b) for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        f = self._ctx()
        return MatGF(self.q, [[f.sub(a, b) for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.data, other.data)])

    def transpose(self):
        return MatGF(self.q, list(zip(*self.data)) if self.data else [])

    def hstack(self, other):
        if self.rows != other.rows or self.q != other.q:
            raise BadShape("hstack shape mismatch")
        return MatGF(self.q, [ra + rb for ra, rb in zip(self.data, other.data)])

    def vstack(self, other):
        if self.cols != other.cols or self.q != other.q:
            raise BadShape("vstack shape mismatch")
        return MatGF(self.q, self.data + other.data)

    def reverse_cols(self):
        return MatGF(self.q, [tuple(reversed(r)) for r in self.data])

    def reverse_rows(self):
        return MatGF(self.q, list(reversed(self.data)))

    def is_zero(self):
        return all(x == 0 for r in self.data for x in r)

    def flatten(self):
        return tuple(x for r in self.data for x in r)

    def _check_same_shape(self, other):
        if (self.q, self.rows, self.cols) != (other.q, other.rows, other.cols):
            raise BadShape("shape/field mismatch")


def _eliminate(q, rows_data, reduced=True):
    """Gauss-Jordan over GF(q); returns (rows, pivot columns)."""
    f = field_new(q)
    rows = list(rows_data)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        if inv != 1:
            rows[r] = f.scale_vec(inv, rows[r])
        lo = 0 if reduced else r + 1
        for i in range(lo, nrows):
            if i != r and rows[i][c]:
                rows[i] = f.add_vec(rows[i], f.scale_vec(f.neg(rows[i][c]), rows[r]))
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def rref(M: MatGF):
    """Reduced row echelon form; row space preserved, pivots ascending."""
    rows, pivots = _eliminate(M.q, M.data)
    return MatGF(M.q, rows), pivots


def rrief(M: MatGF):
    """Reduced row inverse echelon form: pivot of each row strictly left of
    the row above; pivot columns are unit vectors; row space preserved."""
    rev, pivots = _eliminate(M.q, [tuple(reversed(r)) for r in M.data])
    n = M.cols
    return MatGF(M.q, [tuple(reversed(r)) for r in rev]), tuple(n - 1 - p for p in pivots)


def rank(M: MatGF) -> int:
    if M.q == 2:
        return _rank2([_pack2(r) for r in M.data])
    _, pivots = _eliminate(M.q, M.data, reduced=False)
    return len(pivots)


def _pack2(row):
    v = 0
    for i, x in enumerate(row):
        if x:
            v |= 1 << i
    return v


def _rank2(packed):
    rank_ = 0
    rows = [v for v in packed if v]
    while rows:
        pivot = rows[0]
        low = pivot & -pivot
        rank_ += 1
        rows = [v ^ pivot if v & low else v for v in rows[1:]]
        rows = [v for v in rows if v]
    return rank_


def kernel_basis(M: MatGF):
    """Basis of the right null space {x : M x = 0}, deterministic order."""
    f = field_new(M.q)
    R, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * M.cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = f.neg(R.data[i][fc])
        basis.append(tuple(vec))
    return basis


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical RREF form."""

    __slots__ = ("q", "n", "k", "gen", "pivots", "_hash", "_mask")

    def __init__(self, q, n, generator_rows):
        M = generator_rows if isinstance(generator_rows, MatGF) else MatGF(q, generator_rows)
        if M.cols != n:
            raise AmbientMismatch(f"generator has {M.cols} columns, ambient is {n}")
        R, pivots = rref(M)
        if len(pivots) != M.rows:
            raise BadArguments("generator rows are linearly dependent")
        self.q = q
        self.n = n
        self.k = R.rows
        self.gen = R
        self.pivots = pivots
        self._hash = None
        self._mask = None

    @classmethod
    def from_matrix(cls, M: MatGF):
        return cls(M.q, M.cols, M)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.q == other.q
                and self.n == other.n and self.gen.data == other.gen.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.q, self.n, self.gen.data))
        return self._hash

    def __repr__(self):
        return f"Subspace(q={self.q}, n={self.n}, k={self.k}, pivots={self.pivots})"

    def vectors(self):
        """All q^k member vectors, as tuples."""
        f = field_new(self.q)
        acc = [(0,) * self.n]
        for row in self.gen.data:
            scaled = [f.scale_vec(c, row) for c in range(self.q)]
            acc = [f.add_vec(v, s) for v in acc for s in scaled]
        return acc

    def member_mask(self) -> int:
        """Bitmask over vector indices of GF(q)^n marking the q^k members."""
        if self._mask is None:
            m = 0
            for v in self.vectors():
                m |= 1 << vector_index(v, self.q)
            self._mask = m
        return self._mask


def vector_index(v, q) -> int:
    idx = 0
    for x in reversed(v):
        idx = idx * q + x
    return idx


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """dim(U) + dim(V) - 2 dim(U intersect V), via the rank of the stack."""
    if U.n != V.n or U.q != V.q:
        raise AmbientMismatch("subspaces in different ambient spaces")
    stacked = U.gen.vstack(V.gen)
    return 2 * rank(stacked) - U.k - V.k


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
    """All k-dimensional subspaces of GF(q)^n, by RREF generator."""
    if k == 0:
        yield _empty_subspace(q, n)
        return
    for pivots in itertools.combinations(range(n), k):
        free_cells = []
        for i, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free_cells.append((i, c))
        for fill in itertools.product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), val in zip(free_cells, fill):
                rows[i][c] = val
            yield Subspace(q, n, rows)


def _empty_subspace(q, n):
    s = object.__new__(Subspace)
    s.q, s.n, s.k = q, n, 0
    s.gen = MatGF(q, [])
    s.pivots = ()
    s._hash = None
    s._mask = None
    return s
