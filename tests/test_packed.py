"""The packed-row kernel against a brute-force oracle, for every q.

The oracle works on digit tuples with the ``FieldCtx`` tables only: it
enumerates the row span of a small matrix by trying every coefficient
vector.  ``rank``, ``rref``, ``rrief``, ``kernel_basis``, matrix addition
and subtraction, ``Subspace.vectors`` and ``points`` and the packed
reshaping methods are compared with it; their results are read back
through ``MatGF.data``.  ``rref`` on input already in RREF is compared
with the digit-level definition of RREF, on echelon forms and on
near misses of them, and so is ``_non_rref``'s test of many blocks at once,
at row widths on both sides of every lane size it packs rows into.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cdckit.errors import BadArguments
from cdckit.gf import SUPPORTED_ORDERS, field_new
from cdckit.linalg import (MatGF, Subspace, _non_rref, kernel_basis, lanes,
                           rank, rref, rrief)

EXAMPLES = settings(max_examples=15, derandomize=True, deadline=None)


@st.composite
def matrices(draw, q, max_rows=3, max_cols=4):
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    entry = st.integers(0, q - 1)
    # biased towards 0 and q - 1, the lane values where carries happen
    entry = st.one_of(st.sampled_from((0, q - 1)), entry)
    return [draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(rows)]


def span(f, rows):
    """Every combination of the rows, as a set of digit tuples."""
    return {combine(f, coeffs, rows)
            for coeffs in product(range(f.q), repeat=len(rows))}


def nonzero(rows):
    """The nonzero rows, or one zero row: the same span from fewer rows."""
    return [row for row in rows if any(row)] or rows[:1]


def lead(row, reverse=False):
    """Column of the first (or last) nonzero entry, None for a zero row."""
    cols = [j for j, x in enumerate(row) if x]
    return (cols[-1] if reverse else cols[0]) if cols else None


def check_echelon(R, pivots, reverse=False):
    """R's first len(pivots) rows lead (trail, with ``reverse``) at their
    pivot with entry 1, pivot columns are unit vectors, the rest is zero."""
    k = len(pivots)
    assert all(not any(row) for row in R[k:])
    for i, (row, p) in enumerate(zip(R, pivots)):
        assert lead(row, reverse) == p and row[p] == 1
        assert all(R[j][p] == 0 for j in range(len(R)) if j != i)
    steps = list(zip(pivots, pivots[1:]))
    assert all(a > b if reverse else a < b for a, b in steps)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_kernel_matches_span_oracle(q):
    f = field_new(q)

    @EXAMPLES
    @given(matrices(q))
    def check(rows):
        M = MatGF(q, rows)
        assert M.data == tuple(map(tuple, rows))
        members = span(f, rows)
        r = rank(M)
        assert q ** r == len(members)
        for echelon, reverse in ((rref, False), (rrief, True)):
            R, pivots = echelon(M)
            assert len(pivots) == r
            assert (R.rows, R.cols) == (M.rows, M.cols)
            assert span(f, R.data) == members
            check_echelon(R.data, pivots, reverse)
        basis = kernel_basis(M)
        assert len(basis) == M.cols - r
        for x in basis:
            assert all(dot(f, row, x) == 0 for row in rows)
        if basis:
            assert len(span(f, basis)) == q ** len(basis)
        if r == M.rows:
            U = Subspace.from_matrix(M)
            unpack = [MatGF.from_packed(q, M.cols, [v]).data[0]
                      for v in U.vectors()]
            assert len(unpack) == q ** r and set(unpack) == members
            gen = U.gen.data
            monic = [combine(f, (0,) * i + (1,) + tail, gen) for i in range(r)
                     for tail in product(range(q), repeat=r - 1 - i)]
            assert [MatGF.from_packed(q, M.cols, [v]).data[0]
                    for v in U.points()] == monic
    check()


def is_rref(rows):
    """RREF by definition: zero rows last, each other row leading with 1
    strictly right of the row above, pivot columns zero off their pivot."""
    k = sum(1 for row in rows if any(row))
    pivots = [lead(row) for row in rows[:k]]
    return (not any(map(any, rows[k:]))
            and all(row[p] == 1 for row, p in zip(rows, pivots))
            and all(a < b for a, b in zip(pivots, pivots[1:]))
            and all(rows[j][p] == 0 for i, p in enumerate(pivots)
                    for j in range(len(rows)) if j != i))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_rref_shortcut_matches_the_definition(q):
    """``rref`` returns its input unchanged exactly when it is in RREF,
    agrees with the span oracle either way, and ``Subspace.from_matrix``
    keeps a generator exactly when it is in RREF with full rank."""
    f = field_new(q)

    @EXAMPLES
    @given(st.data())
    def check(data):
        rows = data.draw(matrices(q))
        R = [list(row) for row in rref(MatGF(q, rows))[0].data]
        k = rank(MatGF(q, rows))
        cases = [rows, R, R + [[0] * len(R[0])] * data.draw(st.integers(1, 2))]
        if k:  # a pivot entry other than 1 (only 0 at q = 2)
            i = data.draw(st.integers(0, k - 1))
            c = data.draw(st.sampled_from([0, *range(2, q)]))
            cases.append(R[:i] + [[f.mul(c, x) for x in R[i]]] + R[i + 1:])
        if k > 1:  # a nonzero entry above a pivot, and two rows swapped
            i, j = sorted(data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                             max_size=2, unique=True)))
            above = [list(row) for row in R]
            above[i][lead(R[j])] = data.draw(st.integers(1, q - 1))
            cases += [above, R[:i] + [R[j]] + R[i + 1:j] + [R[i]] + R[j + 1:]]
        for rows in cases:
            M = MatGF(q, rows)
            E, pivots = rref(M)
            assert span(f, nonzero(E.data)) == span(f, nonzero(rows))
            check_echelon(E.data, pivots)
            assert (E == M) == is_rref(rows)
            if len(pivots) == M.rows:
                assert (Subspace.from_matrix(M).gen == M) == is_rref(rows)
            else:
                with pytest.raises(BadArguments):
                    Subspace.from_matrix(M)
    check()


def dot(f, row, x):
    out = 0
    for a, b in zip(row, x):
        out = f.add(out, f.mul(a, b))
    return out


def combine(f, coeffs, rows):
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        v = [f.add(a, f.mul(c, b)) for a, b in zip(v, row)]
    return tuple(v)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_subspace_repr_reads_the_pivots_of_the_reduced_generator(q):
    """The generator is not in RREF and its rows' leading columns are not
    the pivots; at q = 2 the first two rows sum to a row leading at column
    2, at every other q their difference leads at column 1."""
    U = Subspace(q, 5, [[1, 1, 0, 1, 0], [1, q - 1, 1, 0, 0], [0, 0, 0, 1, 1]])
    pivots = "(0, 2, 3)" if q == 2 else "(0, 1, 3)"
    assert repr(U) == f"Subspace(q={q}, n=5, k=3, pivots={pivots})"


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_span_matches_the_field_tables(q):
    """``_Lanes.span(rows, n, base)`` is base plus every combination of the
    rows, coefficients in ``product`` order (the first slowest), on random
    rows of one field and on rows of several n-entry fields side by side,
    each field padded with zero entries to whole bytes."""
    f, L, rng = field_new(q), lanes(q), random.Random(q)
    for n, fields in ((5, 1), (3, 3), (1, 4)):
        pad = -n * L.W % 8 // L.W  # zero entries that fill a field's last byte
        width = fields * (n + pad)
        for k in range(4 if q < 5 else 3):
            def draw():  # a random row of every field, zero in the padding
                return sum([[rng.randrange(q) for _ in range(n)] + [0] * pad
                            for _ in range(fields)], [])
            rows, base = [draw() for _ in range(k)], draw()
            want = [combine(f, (1, *a), [base, *rows])
                    for a in product(range(q), repeat=k)]
            got = L.span([L.pack("".join(map(str, r))) for r in rows], width,
                         L.pack("".join(map(str, base))))
            assert [MatGF.from_packed(q, width, [v]).data[0] for v in got] == want


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_add_sub_and_reshaping_match_the_field_tables(q):
    f = field_new(q)

    @settings(EXAMPLES, max_examples=10)
    @given(st.data())
    def check(data):
        a = data.draw(matrices(q))
        b = [data.draw(st.lists(st.integers(0, q - 1), min_size=len(row),
                                max_size=len(row))) for row in a]
        A, B = MatGF(q, a), MatGF(q, b)
        assert (A + B).data == tuple(tuple(map(f.add, ra, rb))
                                     for ra, rb in zip(a, b))
        assert (A - B).data == tuple(tuple(map(f.sub, ra, rb))
                                     for ra, rb in zip(a, b))
        assert A.transpose().data == tuple(zip(*a))
        assert A.hstack(B).data == tuple(tuple(ra + rb) for ra, rb in zip(a, b))
        assert A.vstack(B).data == tuple(map(tuple, a + b))
        assert A.reverse_cols().data == tuple(tuple(r[::-1]) for r in a)
        assert A.reverse_cols().reverse_cols() == A
        n = A.cols + data.draw(st.integers(0, 3))
        cols = data.draw(st.permutations(range(n)))[:A.cols]
        placed = [[0] * n for _ in a]
        for row, r in zip(placed, a):
            for j, x in zip(cols, r):
                row[j] = x
        assert A.spread(cols, n).data == tuple(map(tuple, placed))
        assert MatGF.unflatten(q, A.rows, A.cols, A.flatten()) == A
        assert A.lines() == ["".join(map(str, r)) for r in a]
        assert MatGF(q, A.lines()) == A
    check()


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_from_blocks_keeps_exactly_the_full_rank_rref_blocks(q):
    """``_non_rref`` on many k x n blocks at once: random ones, their RREF
    (zero rows last where the rank is below k) and near misses of it.  A
    block is kept, and ``Subspace.from_matrix`` builds it with its own rows
    as generator, exactly when it is in RREF with rank k."""
    f = field_new(q)

    @EXAMPLES
    @given(st.data())
    def check(data):
        k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        entry = st.one_of(st.sampled_from((0, 1, q - 1)), st.integers(0, q - 1))
        row = st.lists(entry, min_size=n, max_size=n)
        blocks = []
        for rows in data.draw(st.lists(st.lists(row, min_size=k, max_size=k),
                                       min_size=1, max_size=4)):
            R = [list(r) for r in rref(MatGF(q, rows))[0].data]
            blocks += [rows, R, R[::-1]]
            pivots = [lead(r) for r in R if any(r)]
            if pivots:  # a pivot entry other than 1, an entry above a pivot
                i = data.draw(st.integers(0, len(pivots) - 1))
                c = data.draw(st.sampled_from([0, *range(2, q)]))
                blocks.append(R[:i] + [[f.mul(c, x) for x in R[i]]] + R[i + 1:])
                above = [list(r) for r in R]
                above[0][pivots[i]] = data.draw(st.integers(1, q - 1))
                blocks.append(above)
        rows = [v for b in blocks for v in MatGF(q, b).packed]
        bad = _non_rref(q, n, k, rows)
        subs = [None if i in bad else Subspace.from_matrix(MatGF(q, b))
                for i, b in enumerate(blocks)]
        assert len(subs) == len(blocks)
        assert bad == [i for i, U in enumerate(subs) if U is None]
        for b, U in zip(blocks, subs):
            M = MatGF(q, b)
            assert (U is not None) == (is_rref(b) and rank(M) == k)
            if U is not None:
                V = Subspace.from_matrix(M)
                assert U.gen.packed == M.packed == V.gen.packed
                assert (U.q, U.n, U.k, U.pivots) == (V.q, V.n, V.k, V.pivots)
                assert U == V and hash(U) == hash(V)
    check()


def rref_block(rng, q, n, k):
    """A random k x n matrix in RREF of rank k, biased towards 0 and q - 1."""
    pivots = sorted(rng.sample(range(n), k))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = rng.choice((0, q - 1, rng.randrange(q)))
        rows.append(row)
    return rows, pivots


def near_misses(rng, q, n, k):
    """An RREF block of rank k and blocks one change away from it: a zero
    row, a row of q - 1, a repeated row, two rows swapped, a pivot entry
    other than 1, a nonzero entry in another row's pivot column; and a
    random block."""
    R, pivots = rref_block(rng, q, n, k)
    i, j = rng.randrange(k), rng.randrange(k)
    out = [R]
    for row in [0] * n, [q - 1] * n, R[j]:
        out.append(R[:i] + [list(row)] + R[i + 1:])
    out.append(R[:i] + [R[j]] + R[i + 1:j] + [R[i]] + R[j + 1:] if i < j else R[::-1])
    scaled = [list(row) for row in R]
    scaled[i][pivots[i]] = rng.choice([0, *range(2, q)])
    out.append(scaled)
    if k > 1:
        other = [list(row) for row in R]
        other[i][pivots[(i + 1) % k]] = rng.randrange(1, q)
        out.append(other)
    out.append([[rng.randrange(q) for _ in range(n)] for _ in range(k)])
    return out


def lane_edge_lengths(q):
    """Row lengths n whose n W bits fall on and beside each lane edge, 8, 16,
    32, 64 and 128 bits (the lanes hold the row bits and one spare bit)."""
    W = lanes(q).W
    return sorted({max(1, e // W + d) for e in (8, 16, 32, 64, 128) for d in (-1, 0, 1)}
                  | {1, 2, 3, 136 // W})


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_non_rref_matches_the_definition_at_every_lane_width(q):
    """``_non_rref`` on shuffled blocks, each packed between neighbours that
    a lane leaking into the next would trip, against ``is_rref`` and rank k
    block by block, with k = 1, 2, 3 and k = n (n <= 17); and no blocks."""
    rng = random.Random(q)
    for n in lane_edge_lengths(q):
        for k in sorted({1, min(2, n), min(3, n)} | ({n} if n <= 17 else set())):
            blocks = [b for _ in range(3) for b in near_misses(rng, q, n, k)]
            rng.shuffle(blocks)
            rows = [v for b in blocks for v in MatGF(q, b).packed]
            want = [i for i, b in enumerate(blocks)
                    if not (is_rref(b) and rank(MatGF(q, b)) == k)]
            assert _non_rref(q, n, k, rows) == want, (n, k)
            assert want and len(want) < len(blocks)
            assert _non_rref(q, n, k, []) == []
