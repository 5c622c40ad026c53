"""Host-speed probe: scales stage times to a fixed reference speed.

On a shared host, other tenants slow a process down by up to 2x, in bursts
of a fraction of a second and in spells lasting minutes, and the best pass
of a 50 s run may still come from a slow spell.  Each benchmark stage is
therefore bracketed by two runs of ``probe``, a fixed pure-Python workload
that touches nothing of cdckit, and its time is reported as

    raw time * (REF_S / mean of the probes before and after) ** EXPONENT

that is, in seconds at the speed where the probe takes REF_S.  A change to
cdckit cannot move the probe, so it moves the scaled time as it moves the
raw one; the host's slow spells move both and largely cancel.

The exponent is below 1 because cdckit's stages slow down less than the
probe does: in a slow spell the probe took 1.75x as long and the stages
between 1.2x (the numpy pairwise check) and 1.6x (the file round trip).
With 0.8 (1.75 ** 0.8 = 1.56) the run-to-run spread of the worst
end-to-end metric was smallest (perfbench/README.md, "Noise").

The three kernels mirror what cdckit's hot paths do: ints and tuples as
dict keys (codeword sets, caches), row reduction of bit masks over GF(2)
(``linalg``), and hashing small objects into a set (``Subspace`` members).
The kernels keep their data small (a few hundred KB), so the probe adds
little to the pass's peak memory, and the garbage collector is off while
the probe runs, so the size of the workload's own heap does not change the
probe's time.
"""

from __future__ import annotations

import gc
import random
import time

# The probe's time on a quiet core of the two-core host the benchmark was
# written on (the 10th percentile of 447 probes); only a scale.
REF_S = 0.04
EXPONENT = 0.8

_RNG = random.Random(0)
_MASKS = [[_RNG.getrandbits(12) for _ in range(8)] for _ in range(1500)]


def _dict_kernel():
    d = {}
    acc = 0
    for i in range(40_000):
        if not i & 4095:
            acc += len(d)
            d = {}
        x = (i * 2654435761) & 0xFFFFF
        t = (x ^ (x >> 3), i & 255)
        d[x] = t
        acc += t[0] & 7
    return acc


def _rank_kernel():
    total = 0
    for mat in _MASKS:
        rows = list(mat)
        rank = 0
        for bit in range(11, -1, -1):
            m = 1 << bit
            piv = next((j for j in range(rank, len(rows)) if rows[j] & m),
                       None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for j in range(len(rows)):
                if j != rank and rows[j] & m:
                    rows[j] ^= rows[rank]
            rank += 1
        total += rank
    return total


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def _set_kernel():
    s = set()
    total = 0
    for i in range(15_000):
        if not i & 2047:
            total += len(s)
            s = set()
        s.add(_Pair(i & 1023, (i * 7) & 511))
    return total


def probe():
    """Seconds the three kernels take now, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _dict_kernel()
        _rank_kernel()
        _set_kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
