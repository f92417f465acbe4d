"""Host-speed probes: fixed computations timed next to every timing.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-30 % for minutes at a time (the same `isoladder pdo --w 1` took 1.4 s and
2.4 s a few minutes apart, with its CPU time tracking its wall time).  Runs
of the same code then differ by more than any bound a regression check could
use, whatever their length.  So the benchmark runs a probe before and after
each operation and each set-up start.  A probe returns the host's slowness,
its wall time over its time on the reference host; a timing's slowness is the
mean of the two probes around it, and the timing is reported at the
reference speed:

    scaled = wall / slowness

probe() is exact rational arithmetic on dicts in pure Python, the kind of
work that dominates set-up and isoladder's CLI operations.  numeric_probe()
is dense matrix products on the default BLAS pool, the kind of work that
dominates lambda_sweep.  Neither calls isoladder, so no change to it moves
them.  Unscaled figures go into each run's metadata.

Standard library only at import, like workloads.py; numeric_probe() imports
numpy when called.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# what probe() and numeric_probe() take on the 2-vCPU Xeon (2.1 GHz) on which
# the benchmark was defined
REFERENCE_S = 0.25
NUMERIC_REFERENCE_S = 0.12

_TERMS = 90
_NUMERIC_N = 384
_NUMERIC_PRODUCTS = 100
_NUMERIC: dict = {}


def _kernel() -> dict:
    """Multiply two fixed sparse series with Fraction coefficients."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(_TERMS) for j in range(3)}
    b = {(i, j): Fraction(j + 1, i + 3) for i in range(_TERMS) for j in range(3)}
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


def probe() -> float:
    """Host slowness: wall time of the fixed computation over REFERENCE_S."""
    t0 = perf_counter()
    _kernel()
    return (perf_counter() - t0) / REFERENCE_S


def numeric_probe() -> float:
    """Host slowness for numpy work: fixed matrix products over NUMERIC_REFERENCE_S."""
    import numpy as np

    if not _NUMERIC:
        # 2.4 MB allocated once, products written in place and no numpy.random
        # import: the probe must not move the peak RSS the benchmark reports
        n = _NUMERIC_N
        _NUMERIC["a"] = np.sin(np.arange(n * n, dtype=float)).reshape(n, n)
        _NUMERIC["out"] = np.empty((n, n))
    a, out = _NUMERIC["a"], _NUMERIC["out"]
    t0 = perf_counter()
    for _ in range(_NUMERIC_PRODUCTS):
        np.matmul(a, a.T, out=out)
    return (perf_counter() - t0) / NUMERIC_REFERENCE_S


def scaled(wall_s: float, slowness: float) -> float:
    """`wall_s`, measured when a probe read `slowness`, at the reference host speed."""
    return wall_s / slowness
