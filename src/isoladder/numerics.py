"""Special functions and quadrature primitives for position-space work.

Everything in this module is pure and deterministic: fixed composite-trapezoid
grids mirrored exactly about 0, the error function (the standard library's,
elementwise over arrays), and the numerically stable Hermite-function
recurrence.  No adaptivity anywhere, so results are reproducible run to run.

The grid, its Hermite table and the table's norm defects depend only on N
and the node count, so build_grid keeps the last grid it built and hands it
to every caller that asks for it again, read-only: a lambda sweep at one N
builds one table.  The table zeroes its entries below 2^-500, the tails that
would otherwise be subnormal and run on the CPU's slow path, and starts the
recurrence scaled by 2^k at nodes where psi_0 itself would be subnormal or
zero, scaling such a node down again on the way where its rows would pass
2^1024, so the default grids carry psi up to N = 1200 at least (see
hermite_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_PSI_FLOOR = 2.0**-500  # hermite_table's zero floor
_SCALED_BELOW = 960  # hermite_table's scaled start where e^{-x^2/2} < 2^-960, and its step down past 2^960

__all__ = [
    "QuadratureGrid",
    "erf",
    "build_grid",
    "hermite_table",
    "grid_norm",
]


def erf(x):
    """Error function (2/sqrt(pi)) * integral of exp(-t^2) from 0 to x, by math.erf.

    x is a number (the result is a float) or an array (the result has its
    shape); non-finite input raises ValueError.
    """
    values = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"erf requires finite x, got {x!r}")
    if values.ndim == 0:
        return math.erf(values)
    return np.fromiter(map(math.erf, values.flat), float, values.size).reshape(values.shape)


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite-trapezoid grid on [-L, L], mirrored exactly about 0, for truncation N; owns the table psi."""

    points: np.ndarray
    weights: np.ndarray
    half_width: float
    node_count: int
    truncation: int

    def __post_init__(self):
        x = self.points
        if np.any(np.diff(x) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("grid weights must be strictly positive")
        if not (np.array_equal(x, -x[::-1]) and np.array_equal(self.weights, self.weights[::-1])):
            raise ValueError("grid points and weights must mirror exactly about 0")

    @cached_property
    def psi(self) -> np.ndarray:
        """psi_0 .. psi_{N-1} on the points (row n holds psi_n), built once; read-only, as bases share it."""
        table = hermite_table(self.points, self.truncation - 1)
        table.flags.writeable = False
        return table

    @cached_property
    def norm_defects(self) -> np.ndarray:
        """|sum_i w_i psi_n(x_i)^2 - 1| for each row n, built once; large on a grid that cannot carry psi."""
        defects = np.abs(np.einsum("ni,i,ni->n", self.psi, self.weights, self.psi) - 1.0)
        defects.flags.writeable = False
        return defects


def build_grid(N: int, nodes: int | None = None) -> QuadratureGrid:
    """Trapezoid grid for truncation N: L = sqrt(2N) + 8, max(4000, 8N) nodes; it records N.

    The last grid built is kept and returned again for the same N and node
    count, however given, so its Hermite table (floored at 2^-500, see
    hermite_table) and norm defects are built once for any number of lambdas;
    building another grid frees them.  Callers share it, so points and
    weights are read-only.

    The integrands are smooth and decay like Gaussians, so trapezoid sums
    converge geometrically once the spacing resolves frequency ~sqrt(2N)
    (Trefethen & Weideman, SIAM Rev. 56, 2014); 8N nodes do.  The 4000 floor
    resolves phi's steep front near |lambda| = sqrt(pi)/2 at small N.  An
    explicit node count may be supplied for refinement studies; N >= 8.  The
    x >= 0 half is negated for the other, so the grid mirrors exactly about 0.
    """
    if N < 8:
        raise ValueError(f"build_grid requires N >= 8, got {N}")
    count = int(nodes) if nodes is not None else max(4000, 8 * N)
    if count < 2:
        raise ValueError("node count must be >= 2")
    return _build_grid(N, count)


@lru_cache(maxsize=1)
def _build_grid(N: int, count: int) -> QuadratureGrid:
    """build_grid's one-entry memo, keyed by the resolved (N, count)."""
    half_width = math.sqrt(2.0 * N) + 8.0
    h = 2.0 * half_width / (count - 1)
    right = np.linspace(0.0 if count % 2 else 0.5 * h, half_width, (count + 1) // 2)
    x = np.concatenate((-right[count % 2:][::-1], right))
    w = np.full(count, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    x.flags.writeable = w.flags.writeable = False
    return QuadratureGrid(points=x, weights=w, half_width=half_width, node_count=count, truncation=N)


def hermite_table(points: np.ndarray, max_index: int) -> np.ndarray:
    """psi_0 .. psi_{max_index} on the points, by the stable recurrence, with |psi| < 2^-500 set to 0.

    psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1}; row n of the
    result holds psi_n.  Where e^{-x^2/2} < 2^-960 (|x| > 36.48, so from N =
    406 on the default grid) psi_0 would start subnormal or zero and spoil the
    high rows, which are not small there; so such a node starts from psi_0
    2^k in [2^-960, 2^-959), and as the recurrence is linear the table is
    scaled back by 2^-k per node after it, exactly and in place.  Where k >
    960 (from N = 951 on) the rows, bounded only by 2^k |psi_n| <= 2^k
    pi^-1/4 (Cramer), could pass 2^1024 before that, so a row that passes
    2^960 scales its node's rows so far by 2^-960 and lowers its k by 960,
    exactly for every entry that ends above the floor.  The floor
    is applied last, so every kept entry of a node that starts unscaled is
    the recurrence's value bit for bit, and no subnormal entry
    reaches what reads the table: the overlaps' P operands (which floor their
    own products too), column 0's psi (w theta_0) and theta.  What it drops is
    negligible: a zeroed entry enters <psi_m, theta_n> through psi_m w phi
    psi_{n-1} or psi_m w theta_0, with |psi| < 1 and |phi|, |theta_0| < 8, so
    each node moves it by less than 8 w 2^-500 and all of them, with weights
    summing to 2L (80 at N = 512), by less than 2^-490 (~3e-148), while the
    smallest N = 512 overlap is ~4e-31.  Up to N = 160 no entry on the default
    grid is that small, so the floor changes nothing there.
    """
    if max_index < 0:
        raise ValueError(f"max_index must be >= 0, got {max_index}")
    x = np.asarray(points, dtype=float)
    bits = 0.5 * x * x / math.log(2.0)  # e^{-x^2/2} = 2^-bits
    shift = np.where(bits > _SCALED_BELOW, np.ceil(bits) - _SCALED_BELOW, 0.0).astype(int)
    scaled = shift > 0
    table = np.zeros((max_index + 1, x.size))
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    table[0, scaled] = math.pi ** -0.25 * np.exp(shift[scaled] * math.log(2.0) - 0.5 * x[scaled] * x[scaled])
    if max_index >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    watched = np.flatnonzero(shift > _SCALED_BELOW)  # the only nodes whose rows can pass 2^960
    for n in range(1, max_index):
        table[n + 1] = x * math.sqrt(2.0 / (n + 1)) * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
        if watched.size:
            over = watched[np.abs(table[n + 1, watched]) > 2.0**_SCALED_BELOW]
            if over.size:
                table[: n + 2, over] = np.ldexp(table[: n + 2, over], -_SCALED_BELOW)
                shift[over] -= _SCALED_BELOW
    if scaled.any():
        np.ldexp(table, -shift, out=table)  # exact, and the identity where shift is 0
    table[np.abs(table) < _PSI_FLOOR] = 0.0
    return table


def grid_norm(f: np.ndarray, grid: QuadratureGrid) -> float:
    """L2 norm of a sampled (possibly complex) function under the grid."""
    f = np.asarray(f)
    if f.shape != (grid.node_count,):
        raise ValueError(f"sample length mismatch: {f.shape} vs {grid.node_count} nodes")
    return math.sqrt(abs(float(np.sum(grid.weights * np.abs(f) ** 2))))
