"""Special functions and quadrature primitives for position-space work.

Everything in this module is pure and deterministic: fixed composite-trapezoid
grids mirrored exactly about 0, the error function (the standard library's,
elementwise over arrays), and the numerically stable Hermite-function
recurrence.  No adaptivity anywhere, so results are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT_PI = math.sqrt(math.pi)

__all__ = [
    "SQRT_PI",
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


def build_grid(N: int, nodes: int | None = None) -> QuadratureGrid:
    """Trapezoid grid for truncation N: L = sqrt(2N) + 8, max(4000, 8N) nodes; it records N.

    The integrands are smooth and decay like Gaussians, so trapezoid sums
    converge geometrically once the spacing resolves frequency ~sqrt(2N)
    (Trefethen & Weideman, SIAM Rev. 56, 2014); 8N nodes do.  The 4000 floor
    resolves phi's steep front near |lambda| = sqrt(pi)/2 at small N.  An
    explicit node count may be supplied for refinement studies; N >= 8.  The
    x >= 0 half is negated for the other, so the grid mirrors exactly about 0.
    """
    if N < 8:
        raise ValueError(f"build_grid requires N >= 8, got {N}")
    half_width = math.sqrt(2.0 * N) + 8.0
    count = int(nodes) if nodes is not None else max(4000, 8 * N)
    if count < 2:
        raise ValueError("node count must be >= 2")
    h = 2.0 * half_width / (count - 1)
    right = np.linspace(0.0 if count % 2 else 0.5 * h, half_width, (count + 1) // 2)
    x = np.concatenate((-right[count % 2:][::-1], right))
    w = np.full(count, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadratureGrid(points=x, weights=w, half_width=half_width, node_count=count, truncation=N)


def hermite_table(points: np.ndarray, max_index: int) -> np.ndarray:
    """psi_0 .. psi_{max_index} on the points, by the stable recurrence.

    psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1}; row n of the
    result holds psi_n.
    """
    if max_index < 0:
        raise ValueError(f"max_index must be >= 0, got {max_index}")
    x = np.asarray(points, dtype=float)
    table = np.zeros((max_index + 1, x.size))
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if max_index >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, max_index):
        table[n + 1] = x * math.sqrt(2.0 / (n + 1)) * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
    return table


def grid_norm(f: np.ndarray, grid: QuadratureGrid) -> float:
    """L2 norm of a sampled (possibly complex) function under the grid."""
    f = np.asarray(f)
    if f.shape != (grid.node_count,):
        raise ValueError(f"sample length mismatch: {f.shape} vs {grid.node_count} nodes")
    return math.sqrt(abs(float(np.sum(grid.weights * np.abs(f) ** 2))))
