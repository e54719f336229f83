"""Machine-speed reference: a fixed computation timed right after every op.

Other tenants of a shared machine slow it down and speed it up again within
seconds, by a fifth or more.  The reference mixes the three kinds of work
spinrad does (interpreted scalar code, small numpy and AMOS Bessel calls, and
streaming over an array larger than a cache share) and never allocates large
arrays, so its time tracks the machine's speed at that moment, not the
program's.  The first pass after an op also pays for caches the op evicted,
so the slowdown is the median of three passes.  An op's scaled latency is
its wall time divided by the slowdown measured right after it: the latency
it would have had on a machine running the reference in NOMINAL_S.
"""

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.special as sc

NOMINAL_S = 0.004
PASSES = 3

_X = np.linspace(0.1, 10.0, 64)
_BIG = np.ones(1 << 20)  # 8 MiB
_OUT = np.empty_like(_BIG)


def slowdown():
    """How many times slower than nominal the machine runs right now."""
    return statistics.median(reference_seconds() for _ in range(PASSES)) / NOMINAL_S


def reference_seconds():
    """Wall time of one pass of the fixed reference computation."""
    t0 = perf_counter()
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i + 0.5)
    for _ in range(30):
        s += float(sc.jv(1, _X).sum() + np.exp(-_X).sum())
    np.multiply(_BIG, 0.5, out=_OUT)
    s += float(_OUT.sum())
    if not math.isfinite(s):
        raise ArithmeticError("reference computation overflowed")
    return perf_counter() - t0
