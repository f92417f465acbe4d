"""The one-parameter isospectral family.

For each admissible lambda the Riccati solution phi deforms the oscillator
ladder pair into b = (x + d + phi)/sqrt(2), b^dagger = (x - d + phi)/sqrt(2).
This module builds the theta eigenbasis of b^dagger b in position space, the
unitary intertwiner U between the Fock and theta families, the matrices of
b, b^dagger, b^dagger b and the earlier lowering operator b^dagger a b, and
the two coherent-state families attached to them.  Both families are built
by the same weighted-shift eigenvector routine as coherent.cs_vector, with
the same 1e-24 relative tail guard.

The lambda-free Hermite table psi belongs to the grid (QuadratureGrid.psi).
A ThetaBasis holds one lambda's phi and theta; the overlaps, U, b^dagger, b
and H~ are built at most once per basis and kept on it (_once).

The overlap matrix <psi_m, theta_n> computed at finite truncation is not
exactly unitary (theta_n keeps a small psi-tail beyond the truncation), so
u_matrix returns its polar factor (symmetric Lowdin orthonormalization) by
Newton-Schulz iteration; the raw overlaps and their unitarity defect stay
available for diagnostics.  b and b^dagger are scaled shifts of U.

phi's denominator takes numerics.erf over a whole grid in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coherent import _shift_eigenvector
from .fock import (
    FOCK,
    StateVector,
    TruncatedOperator,
    adjoint,
    annihilation_matrix,
    op_norm_inf,
    theta_tag,
)
from .numerics import SQRT_PI, QuadratureGrid, erf, grid_norm

__all__ = [
    "LAMBDA_GUARD",
    "ParameterError",
    "IsospectralParams",
    "PhiFunction",
    "riccati_residual",
    "ThetaBasis",
    "u_matrix",
    "u_overlap_raw",
    "unitarity_defect",
    "b_matrix",
    "b_dagger_matrix",
    "h_tilde_matrix",
    "b_dagger_a_b_matrix",
    "b_dagger_a_b_fill",
    "b_dagger_a_b_cs",
    "unitary_image_cs",
    "theta_curvature_table",
]

LAMBDA_GUARD = 1e-6
_RICCATI_FD_STEP = 1e-5  # central-difference step of riccati_residual


class ParameterError(ValueError):
    """Parameter outside the admissible region |lambda| > sqrt(pi)/2."""


@dataclass(frozen=True)
class IsospectralParams:
    """The family parameter; |lambda| must clear sqrt(pi)/2 by a guard band."""

    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam) or abs(self.lam) <= SQRT_PI / 2 + LAMBDA_GUARD:
            raise ParameterError(
                f"|lambda| must exceed sqrt(pi)/2 + {LAMBDA_GUARD:g} to keep phi regular, got {self.lam!r}"
            )


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


def riccati_residual(p: IsospectralParams, grid: QuadratureGrid, phi_override=None) -> float:
    """max over the grid of |phi' + 2 x phi + phi^2| with phi' by central differencing.

    The derivative is finite-differenced (never the Riccati identity itself),
    so this is an independent check that phi actually solves the equation.
    phi_override lets tests feed a perturbed candidate.
    """
    fn = phi_override if phi_override is not None else PhiFunction(p).value
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
        self.phi_fn = PhiFunction(params)

        x = grid.points
        self.psi = grid.psi[:N]
        self.g_values = self.phi_fn.denominator(x)
        self.phi_values = np.exp(-x * x) / self.g_values
        self.phi_prime_values = -2.0 * x * self.phi_values - self.phi_values**2

        theta = np.empty((N, grid.node_count))
        raw0 = np.exp(-0.5 * x * x) / self.g_values
        norm0 = grid_norm(raw0, grid)
        theta[0] = raw0 / norm0
        self.theta0_norm = 1.0 / norm0  # the N_0 multiplying e^{-x^2/2}/g
        np.multiply(self.phi_values, self.psi[:-1], out=theta[1:])
        theta[1:] /= np.sqrt(2.0 * np.arange(1, N))[:, None]
        theta[1:] += self.psi[1:]
        self.theta = theta

    @_once
    def _overlaps(self) -> np.ndarray:
        """<psi_m, theta_n>: the trapezoid sum folded on the grid's exact mirror, as psi_m(-x) = (-1)^m psi_m(x).

        Even rows take w (theta(x) + theta(-x)) over x >= 0, odd rows the difference, in one buffer; an
        odd count's centre is its own mirror, so it enters at half weight twice, in the even rows only.
        """
        count, half = self.grid.node_count, self.grid.node_count // 2
        right, left = self.theta[:, half:], self.theta[:, (count - 1) // 2::-1]
        w = self.grid.weights[half:].copy()
        w[: count % 2] *= 0.5
        out, fold = np.empty((self.N, self.N)), np.empty_like(right)
        out[0::2] = self.psi[0::2, half:] @ np.multiply(np.add(right, left, out=fold), w, out=fold).T
        out[1::2] = self.psi[1::2, half:] @ np.multiply(np.subtract(right, left, out=fold), w, out=fold).T
        return out


def u_overlap_raw(basis: ThetaBasis) -> TruncatedOperator:
    """Raw quadrature overlaps U~[m, n] = <psi_m, theta_n>, Fock tag."""
    return TruncatedOperator(basis._overlaps(), FOCK)


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
    below 1 and shrinking (Higham, ch. 8); otherwise ValueError, never a non-unitary U.
    """
    x, bound = basis._overlaps(), 1.0
    while True:
        e = x.T @ x - np.eye(basis.N)
        defect = op_norm_inf(e)
        if defect <= basis.N * np.finfo(float).eps:
            return TruncatedOperator(x, FOCK)
        if defect >= bound:
            raise ValueError(f"polar factor: ||X^T X - I||_inf = {defect:.3e}, Newton-Schulz needs < 1")
        x, bound = x - 0.5 * (x @ e), defect


@_once
def b_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """b = a U^dagger = (U a^dagger)^dagger in the Fock basis; maps theta_{n+1} to sqrt(n+1) |n>."""
    return adjoint(b_dagger_matrix(basis))


@_once
def b_dagger_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """b^dagger = U a^dagger in the Fock basis: column n is sqrt(n+1) times column n+1 of U."""
    u = u_matrix(basis).mat
    out = np.zeros_like(u)
    out[:, :-1] = u[:, 1:] * np.sqrt(np.arange(1.0, basis.N))
    return TruncatedOperator(out, FOCK)


@_once
def h_tilde_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """The deformed Hamiltonian b^dagger b (Fock basis, Hermitian)."""
    b = b_matrix(basis)
    return adjoint(b) @ b


def b_dagger_a_b_matrix(basis: ThetaBasis) -> TruncatedOperator:
    """The lowering operator b^dagger a b expressed in the theta basis.

    Its entries reproduce (n-1) sqrt(n) on the superdiagonal: it annihilates
    both theta_0 and theta_1.
    """
    u = u_matrix(basis)
    b = b_matrix(basis)
    a = annihilation_matrix(basis.N)
    a_fock = adjoint(b) @ a @ b
    return TruncatedOperator(u.mat.conj().T @ a_fock.mat @ u.mat, basis.tag)


def b_dagger_a_b_fill(N: int, tag) -> TruncatedOperator:
    """Structural matrix of the same operator: (n-1) sqrt(n) at (n-1, n)."""
    n = np.arange(1.0, N)
    return TruncatedOperator(np.diag((n - 1.0) * np.sqrt(n), 1), tag)


def b_dagger_a_b_cs(z: complex, basis: ThetaBasis, N: int | None = None) -> StateVector:
    """Normalized eigenstate of b^dagger a b built on theta_1.

    The operator maps theta_{n+1} to n sqrt(n+1) theta_n, a weighted shift with
    W_n = n^2 (n+1): coefficients proportional to z^n / (n! sqrt((n+1)!)) on
    theta_{n+1}.
    """
    N = basis.N if N is None else int(N)
    n = np.arange(1.0, N + 1)
    log_d = np.concatenate(([0.0], -np.cumsum(np.log(n * n * (n + 1.0)))))
    return StateVector(_shift_eigenvector(log_d, z, 1), basis.tag)


def unitary_image_cs(alpha: complex, basis: ThetaBasis, N: int | None = None) -> StateVector:
    """exp(-|alpha|^2/2) sum_n alpha^n / sqrt(n!) theta_n: the unitary image U|alpha>.

    On the theta indices U a U^dagger is the weighted shift with W_n = n.
    """
    N = basis.N if N is None else int(N)
    log_d = np.concatenate(([0.0], -np.cumsum(np.log(np.arange(1.0, N + 1)))))
    return StateVector(_shift_eigenvector(log_d, alpha, 0), basis.tag)


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
