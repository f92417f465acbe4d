"""Truncated Fock-space linear algebra.

Dense N x N matrices tagged with the orthonormal family that indexes them
(the oscillator Fock states, or the theta states of one lambda).  A matrix
keeps the dtype of its input, widened to at least float64: the shift, U, b,
b^dagger and H~ are real for real lambda and stay float64, so their products
and eigensystems run real LAPACK and BLAS.  An operator is complex128 only
where a complex number enters: a complex input matrix, a complex scalar
factor, or the coherent displacement exp(zeta a1+ - conj(zeta) a1).  State
vectors are always complex128.

All identities involving truncated operators are only asserted on the
interior window n < N - INTERIOR_MARGIN; the margin of 5 is enough to isolate
edge corruption for the banded operators used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "INTERIOR_MARGIN",
    "BasisTag",
    "FOCK",
    "theta_tag",
    "BasisMismatchError",
    "TruncatedOperator",
    "StateVector",
    "annihilation_matrix",
    "times_one_diagonal",
    "number_matrix",
    "identity_matrix",
    "adjoint",
    "commutator",
    "op_norm_inf",
    "interior_block",
    "require_hermitian",
    "hermitian_eigensystem",
    "apply_spectral_function",
]

INTERIOR_MARGIN = 5


@dataclass(frozen=True)
class BasisTag:
    """Which orthonormal family indexes a matrix or coefficient vector."""

    kind: str  # "fock" or "theta"
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in ("fock", "theta"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "theta" and self.lam is None:
            raise ValueError("theta basis tag needs its lambda")

    def __str__(self):
        return "Fock" if self.kind == "fock" else f"Theta(lambda={self.lam:g})"


FOCK = BasisTag("fock")


def theta_tag(lam: float) -> BasisTag:
    return BasisTag("theta", float(lam))


class BasisMismatchError(ValueError):
    """Raised when operators with different tags or dims are combined."""


def _check_compatible(a, b):
    if a.basis != b.basis:
        raise BasisMismatchError(f"basis mismatch: {a.basis} vs {b.basis}")
    if a.dim != b.dim:
        raise BasisMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _check_truncation(N: int):
    if N < 2:
        raise ValueError(f"truncation size must be >= 2, got {N}")


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense matrix with its basis tag and truncation size: the input's dtype, at least float64.

    The matrix never changes after construction.  The input is copied only to widen its dtype, or when it is
    a view whose memory another array could still write; otherwise (a fresh product, or a view of a read-only
    array such as a real adjoint) it is kept and marked read-only, so a later write through it raises.
    """

    mat: np.ndarray
    basis: BasisTag = FOCK
    __array_ufunc__ = None  # `array * op` and `array + op` raise TypeError instead of broadcasting

    def __post_init__(self):
        m = owner = np.asarray(self.mat)
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        shared = not owner.flags.owndata or (owner is not m and owner.flags.writeable)
        if shared or m.dtype != np.result_type(m, float):
            m = np.array(m, dtype=np.result_type(m, float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        _check_truncation(m.shape[0])
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        _check_compatible(self, other)
        return TruncatedOperator(self.mat @ other.mat, self.basis)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        _check_compatible(self, other)
        return TruncatedOperator(self.mat + other.mat, self.basis)



@dataclass(frozen=True)
class StateVector:
    """Complex coefficient vector in a tagged basis."""

    coeffs: np.ndarray
    basis: BasisTag = FOCK

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1:
            raise ValueError(f"state coefficients must be a vector, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def annihilation_matrix(N: int) -> TruncatedOperator:
    """Superdiagonal sqrt(1) .. sqrt(N-1): the standard lowering operator."""
    _check_truncation(N)
    return TruncatedOperator(np.diag(np.sqrt(np.arange(1.0, N)), 1))


def times_one_diagonal(x: np.ndarray, band: np.ndarray, k: int) -> np.ndarray:
    """x @ np.diag(band, k) as a scaled column shift: column j is band[j - lo] times column j - k of x for the
    columns lo <= j < hi the band reaches, zero elsewhere; each entry of the dense product is that one
    product plus exact zeros, so this is it bit for bit.  a is the band sqrt(1) .. sqrt(N-1) at k = 1."""
    lo, hi = max(k, 0), x.shape[1] + min(k, 0)
    out = np.empty(x.shape, np.result_type(x, band))
    out[:, :lo], out[:, hi:] = 0.0, 0.0
    np.multiply(x[:, lo - k:hi - k], band, out=out[:, lo:hi])
    return out


def number_matrix(N: int) -> TruncatedOperator:
    """diag(0, 1, ..., N-1)."""
    _check_truncation(N)
    return TruncatedOperator(np.diag(np.arange(float(N))))


def identity_matrix(N: int) -> TruncatedOperator:
    _check_truncation(N)
    return TruncatedOperator(np.eye(N))


def adjoint(x: TruncatedOperator) -> TruncatedOperator:
    return TruncatedOperator(x.mat.conj().T, x.basis)


def commutator(x: TruncatedOperator, y: TruncatedOperator) -> TruncatedOperator:
    _check_compatible(x, y)
    out = x.mat @ y.mat
    out -= y.mat @ x.mat
    return TruncatedOperator(out, x.basis)


def op_norm_inf(mat: np.ndarray) -> float:
    """Max absolute row sum of a matrix."""
    return float(np.max(np.sum(np.abs(mat), axis=1)))


def interior_block(mat: np.ndarray) -> np.ndarray:
    """Leading (N-margin) x (N-margin) block, where edge corruption cannot reach."""
    n = mat.shape[0] - INTERIOR_MARGIN
    if n < 1:
        raise ValueError(f"margin {INTERIOR_MARGIN} leaves no interior for size {mat.shape[0]}")
    return mat[:n, :n]


def require_hermitian(m: np.ndarray):
    """ValueError unless m is finite and equals its conjugate transpose to 1e-10 of its largest entry (or of 1);
    an exactly Hermitian m passes on 64-row blocks of its upper triangle, before any scaled deviation."""
    if (bad := m.size - np.count_nonzero(np.isfinite(m))) != 0:
        raise ValueError(f"matrix is not finite: {bad} entries are NaN or infinite")
    if all(np.array_equal(m[i:i + 64, i:], m[i:, i:i + 64].conj().T) for i in range(0, m.shape[0], 64)):
        return
    scale = max(1.0, float(np.max(np.abs(m))))
    diff = m - m.conj().T
    dev = float(np.max(np.abs(diff, out=None if np.iscomplexobj(diff) else diff)))
    if dev > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian: max |X - X^dagger| = {dev:.3e}")


def hermitian_eigensystem(x: TruncatedOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and the dense eigensolver's unitary V (real for a float64 X), X = V diag(mu) V^dagger."""
    require_hermitian(x.mat)
    return np.linalg.eigh(x.mat)


def apply_spectral_function(x: TruncatedOperator, g: Callable[[float], complex]) -> TruncatedOperator:
    """g(X) = (V diag(g(mu))) V^dagger for Hermitian X: each column of V enters once and once conjugated, so
    any phase the eigensolver gives it cancels, and negating a real column keeps every bit."""
    evals, v = hermitian_eigensystem(x)
    gvals = np.array([g(float(mu)) for mu in evals])
    if not np.all(np.isfinite(gvals)):
        bad = evals[~np.isfinite(gvals)]
        raise ValueError(f"spectral function undefined at eigenvalue(s) {bad}")
    return TruncatedOperator((v * gvals[None, :]) @ v.conj().T, x.basis)
