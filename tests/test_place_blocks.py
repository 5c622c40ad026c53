"""``cdc._place`` block by block against its definition, at every q.

Each block is a skeleton (k rows, zero on the filled columns, rank k off
them) with one codeword written entry by entry onto the filled columns of
its top rows, eliminated on its own with ``_eliminate``.  ``_place`` must
give exactly those rows, skeleton by skeleton in codeword order, for linear
and ``MatrixSet`` fillers and for one or several skeletons.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cdckit.cdc import _place
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.linalg import MatGF, _eliminate, rank
from cdckit.rankmetric import LinearMatrixCode

from test_placement import linear_code, matrix_set


def skeleton(rnd, q, n, k, cols):
    """k rows of n entries, zero on ``cols`` and of rank k off them; in
    RREF half of the time, so that some placed blocks need no elimination."""
    while True:
        S = MatGF(q, [[0 if j in cols else rnd.randrange(q) for j in range(n)]
                      for _ in range(k)])
        if rank(S) == k:
            return _eliminate(q, n, S.packed)[0] if rnd.random() < 0.5 else S.packed


def defined(q, n, skeletons, cols, code):
    """The rows of every block, each built from entries and eliminated."""
    words = code.codewords() if isinstance(code, LinearMatrixCode) else code.members
    fillers = [C.data for C in words]
    rows = []
    for S in skeletons:
        entries = MatGF.from_packed(q, n, S).data
        for C in fillers:
            block = [list(r) for r in entries]
            for i, row in enumerate(C):
                for j, x in zip(cols, row):
                    block[i][j] = x
            rows += _eliminate(q, n, MatGF(q, block).packed)[0]
    return rows


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_place_is_each_block_eliminated_on_its_own(q):
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        rnd = random.Random(seed)
        m, c = rnd.randint(1, 2), rnd.randint(1, 3)
        k = rnd.randint(m, 3)
        n = c + k + rnd.randint(0, 2)
        cols = rnd.sample(range(n), c)  # in any order
        for filler in (linear_code(rnd, q, m, c, False),
                       matrix_set(rnd, q, m, c, False)):
            for count in (1, rnd.randint(2, 3)):
                skeletons = [skeleton(rnd, q, n, k, cols) for _ in range(count)]
                assert (_place(q, n, skeletons, cols, filler)
                        == defined(q, n, skeletons, cols, filler))
    check()
