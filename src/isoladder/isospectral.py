"""The one-parameter isospectral family.

For each admissible lambda the Riccati solution phi deforms the oscillator
ladder pair into b = (x + d + phi)/sqrt(2), b^dagger = (x - d + phi)/sqrt(2).
This module builds the theta eigenbasis of b^dagger b in position space, the
unitary intertwiner U between the Fock and theta families, and the matrices
of b, b^dagger and b^dagger b; b^dagger a b, on the theta indices the
weighted shift W_n = n^2 (n+1) from theta_1, is c12's one band.

The lambda-free Hermite table psi and its norm defects belong to the grid
(QuadratureGrid.psi, .norm_defects).  A ThetaBasis holds one lambda's phi and
theta_0; its theta table is built only when something samples it, as the
overlaps take <psi_m, psi_n> = delta_mn plus phi-weighted psi products.  U,
b^dagger and b are built at most once per basis and kept on it; the raw
overlaps (u_matrix's input) and H~ are not kept, as each has one reader.

The overlap matrix <psi_m, theta_n> computed at finite truncation is not
exactly unitary (theta_n keeps a small psi-tail beyond the truncation), so
u_matrix returns its polar factor (symmetric Lowdin orthonormalization) by
Newton-Schulz iteration; unitarity_defect reports how far the raw overlaps
are from unitary.  b and b^dagger are scaled shifts of U.

phi's denominator takes numerics.erf over a whole grid in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FOCK,
    TruncatedOperator,
    adjoint,
    op_norm_inf,
    theta_tag,
    times_one_diagonal,
)
from .numerics import QuadratureGrid, erf, grid_norm
from .params import SQRT_PI, IsospectralParams, ParameterError, Refusal

__all__ = [
    "ParameterError",
    "ConstructionError",
    "IsospectralParams",
    "PhiFunction",
    "riccati_residual",
    "ThetaBasis",
    "u_matrix",
    "unitarity_defect",
    "b_matrix",
    "b_dagger_matrix",
    "h_tilde_matrix",
    "theta_curvature_table",
]

_RICCATI_FD_STEP = 1e-5  # central-difference step of riccati_residual
_NODE_CUT, _OPERAND_FLOOR = 2.0**-500, 2.0**-511  # ThetaBasis._overlaps' node cut and operand floor
_GRID_DEFECT_BOUND = 1e-12  # the largest grid.norm_defects entry ThetaBasis._overlaps accepts


class ConstructionError(Refusal):
    """U cannot be built: the grid cannot carry psi, or Newton-Schulz cannot reach the polar factor."""

    exit_code = 1  # the CLI's failed check, as the report fails the criterion


@dataclass(frozen=True)
class PhiFunction:
    """phi(x) = exp(-x^2) / (lambda + (sqrt(pi)/2) erf(x))."""

    params: IsospectralParams

    def denominator(self, x):
        return self.params.lam + (SQRT_PI / 2.0) * erf(x)

    def value(self, x):
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        return np.exp(-(x**2)) / self.denominator(x)

    __call__ = value


def riccati_residual(p: IsospectralParams, grid: QuadratureGrid) -> float:
    """max over the grid of |phi' + 2 x phi + phi^2| with phi' by central differencing.

    The derivative is finite-differenced (never the Riccati identity itself),
    so this is an independent check that PhiFunction(p) actually solves the equation.
    """
    fn = PhiFunction(p).value
    x = grid.points
    fwd = np.asarray(fn(x + _RICCATI_FD_STEP), dtype=float)
    bwd = np.asarray(fn(x - _RICCATI_FD_STEP), dtype=float)
    mid = np.asarray(fn(x), dtype=float)
    deriv = (fwd - bwd) / (2.0 * _RICCATI_FD_STEP)
    return float(np.max(np.abs(deriv + 2.0 * x * mid + mid * mid)))


def _once(build):
    """build(basis) on the first call for a basis; later calls return that result, kept on the basis."""
    key = "_once_" + build.__name__

    @functools.wraps(build)
    def cached(basis):
        memo = vars(basis)
        if key not in memo:
            memo[key] = build(basis)
        return memo[key]

    return cached


class ThetaBasis:
    """Wavefunction table of the theta family at one lambda over a quadrature grid.

    theta_0 is the annihilated-by-b ground state, normalized by quadrature;
    theta_n = psi_n + phi psi_{n-1} / sqrt(2n) for n >= 1 (apply b^dagger to
    psi_{n-1} and use (x - d) psi_{n-1} = sqrt(2n) psi_n).  psi is the first
    N rows of the grid's Hermite table, so N may not exceed its truncation.
    """

    def __init__(self, params: IsospectralParams, grid: QuadratureGrid, N: int):
        if not 2 <= N <= grid.truncation:
            raise ValueError(f"theta basis needs 2 <= N <= the grid's truncation {grid.truncation}, got {N}")
        self.params = params
        self.grid = grid
        self.N = int(N)
        self.tag = theta_tag(params.lam)

        x = grid.points
        self.psi = grid.psi[:N]
        g = PhiFunction(params).denominator(x)
        self.phi_values = np.exp(-x * x) / g
        self.phi_prime_values = -2.0 * x * self.phi_values - self.phi_values**2

        raw0 = np.exp(-0.5 * x * x) / g
        norm0 = grid_norm(raw0, grid)
        self.theta0 = raw0 / norm0
        self.theta0_norm = 1.0 / norm0  # the N_0 multiplying e^{-x^2/2}/g

    @functools.cached_property
    def theta(self) -> np.ndarray:
        """theta_0 .. theta_{N-1} on the grid (row n holds theta_n), built on first read; the overlaps skip it."""
        theta = np.empty((self.N, self.grid.node_count))
        theta[0] = self.theta0
        np.multiply(self.phi_values, self.psi[:-1], out=theta[1:])
        theta[1:] /= np.sqrt(2.0 * np.arange(1, self.N))[:, None]
        theta[1:] += self.psi[1:]
        return theta

    def _overlaps(self) -> np.ndarray:
        """<psi_m, theta_n> = delta_mn + P_{m,n-1} / sqrt(2n) for n >= 1; column 0 is one GEMV.

        delta_mn = <psi_m, psi_n> holds only on a grid that carries psi: one whose norm defect is not at most
        1e-12 (NaN included), the accuracy U is held to against a 40N-node grid, is refused with a
        ConstructionError.
        P = psi W diag(phi) psi^T is summed over x >= 0 on the exact mirror, psi_m(-x) = (-1)^m psi_m(x),
        with weights w (an odd count's centre, its own mirror, at half): its even-even and odd-odd blocks
        weigh by w (phi(x) + phi(-x)), of lambda's sign, so are +-A A^T with A = psi sqrt|w (phi(x) +
        phi(-x))|; the mixed blocks weigh by w (phi(x) - phi(-x)), one product and its transpose.  Only
        nodes up to the last with |w (phi(x) + phi(-x))| >= 2^-500 enter (929-965 of 2048 at N = 512), and
        operand entries below 2^-511 are zeroed, so every product is normal.  With |psi| < 1, |phi| < 8 and
        w < 1/32 each node then moves an entry of P by less than 2^-500, and the at most 2^11 nodes at
        N = 512 by less than 2^-488 (~1e-147); the smallest N = 512 overlap is ~4e-31.
        """
        grid, N = self.grid, self.N
        if not (defect := np.max(grid.norm_defects[:N])) <= _GRID_DEFECT_BOUND:  # a NaN defect is refused too
            raise ConstructionError(f"grid of {grid.node_count} nodes cannot carry psi_0 .. psi_{N - 1}: "
                                    f"max_n |sum_i w_i psi_n(x_i)^2 - 1| = {defect:.3e} > {_GRID_DEFECT_BOUND:g}")
        half, centre = divmod(grid.node_count, 2)
        w = np.concatenate((0.5 * grid.weights[half:half + centre], grid.weights[half + centre:]))
        right, left = self.phi_values[half:], self.phi_values[half - 1 + centre::-1]
        even = w * (right + left)
        keep = np.max(np.flatnonzero(np.abs(even) >= _NODE_CUT), initial=-1) + 1
        psi, odd = self.psi[:, half:half + keep], (w * (right - left))[:keep]
        a, root = _floored(psi * np.sqrt(np.abs(even[:keep]))), np.sqrt(np.abs(odd))
        p = np.empty((N, N))
        for parity in (0, 1):
            np.multiply(a[parity::2] @ a[parity::2].T, math.copysign(1.0, self.params.lam), out=p[parity::2, parity::2])
        mixed = _floored(psi[0::2] * root) @ _floored(psi[1::2] * np.copysign(root, odd)).T
        p[0::2, 1::2], p[1::2, 0::2] = mixed, mixed.T
        p[:, :-1] /= np.sqrt(2.0 * np.arange(1, N))
        overlaps = np.eye(N)
        overlaps[:, 0] = self.psi @ (grid.weights * self.theta0)
        overlaps[:, 1:] += p[:, :-1]
        return overlaps


def _floored(operand: np.ndarray) -> np.ndarray:
    operand[np.abs(operand) < _OPERAND_FLOOR] = 0.0
    return operand


def unitarity_defect(basis: ThetaBasis) -> float:
    """max |U~^dagger U~ - I| of the raw overlap matrix (truncation-tail size)."""
    raw = basis._overlaps()
    return float(np.max(np.abs(raw.T @ raw - np.eye(basis.N))))


@_once
def u_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """Unitary intertwiner taking |n> to |theta_n>, as a Fock-basis matrix kept on the basis (_once).

    Polar factor of the overlap matrix X by Newton-Schulz from X itself:
    X <- X - X E / 2, E = X^T X - I, until ||E||_inf <= N eps.  ||E||_inf
    bounds ||E||_2 for symmetric E, and the iteration converges while that is
    below 1 and shrinking (Higham, ch. 8); otherwise ConstructionError, never a non-unitary U.
    """
    x, bound = basis._overlaps(), 1.0
    while True:
        e = x.T @ x
        e.flat[::basis.N + 1] -= 1.0
        defect = op_norm_inf(e)
        if defect <= basis.N * np.finfo(float).eps:
            return TruncatedOperator(x, FOCK)
        if defect >= bound:
            raise ConstructionError(f"polar factor: ||X^T X - I||_inf = {defect:.3e}, Newton-Schulz needs < 1")
        step = x @ e
        x, bound = np.subtract(x, np.multiply(step, 0.5, out=step), out=step), defect


@_once
def b_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """b = a U^dagger = (U a^dagger)^dagger in the Fock basis; maps theta_{n+1} to sqrt(n+1) |n>."""
    return adjoint(b_dagger_matrix(basis))


@_once
def b_dagger_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """b^dagger = U a^dagger in the Fock basis: column n is sqrt(n+1) times column n+1 of U (a column shift)."""
    return TruncatedOperator(times_one_diagonal(u_matrix(basis).mat, np.sqrt(np.arange(1.0, basis.N)), -1), FOCK)


def h_tilde_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """The deformed Hamiltonian b^dagger b (Fock basis, Hermitian), not kept on the basis."""
    return b_dagger_matrix(basis) @ b_matrix(basis)


def theta_curvature_table(basis: ThetaBasis) -> np.ndarray:
    """theta_n'' sampled on the grid, from exact derivative identities.

    psi_n'' = (x^2 - 2n - 1) psi_n, psi_n' = (sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1})/sqrt(2),
    and the Riccati relation for phi', phi''.  Nothing here uses finite
    differences, so position-space operator checks are quadrature-limited.
    """
    x = basis.grid.points
    psi = basis.psi
    phi = basis.phi_values
    phi_p = basis.phi_prime_values
    phi_pp = -2.0 * phi - 2.0 * x * phi_p - 2.0 * phi * phi_p
    N = basis.N

    out = np.zeros_like(basis.theta)
    th0 = basis.theta[0]
    out[0] = ((x + phi) ** 2 - 1.0 - phi_p) * th0
    for n in range(1, N):
        k = n - 1  # theta_n = psi_n + phi psi_k / sqrt(2n)
        psi_k = psi[k]
        lower = math.sqrt(k) * psi[k - 1] if k >= 1 else 0.0
        upper = math.sqrt(k + 1) * psi[k + 1]
        psi_k_prime = (lower - upper) / math.sqrt(2.0)
        psi_k_second = (x * x - 2 * k - 1) * psi_k
        bundle = phi_pp * psi_k + 2.0 * phi_p * psi_k_prime + phi * psi_k_second
        out[n] = (x * x - 2 * n - 1) * psi[n] + bundle / math.sqrt(2.0 * n)
    return out
