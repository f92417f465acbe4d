"""Coherent states of the generalized ladder algebra and their growth data.

Eigenstates of the lowering operator built on theta_1 with coefficients
d_n^{1/2} zeta^n, d_n = (W_1 ... W_n)^{-1}; the Fock-Bargmann map; entire-
function order / radius-of-convergence estimation from the growth of the
partial-sum products; and, for unit weights, the unitary displacement
operator D, whose columns D theta_k are the Perelomov-type generalized
coherent states.  Each lowering operator is a weighted shift, applied as its
one band at (n, n+1); the displacement builds the unit-weight band, the only
one it admits, itself.  d_theta1_deviation, c09's check, holds D theta_1
against cs_vector.

log_d_coefficients is the one home of log d_n: shift_eigenstate (these states
and isospectral's b+ a b family, under one tail guard), normalization_h, the
Bargmann map and the order fit read it, from log W_n accumulated as sums of
logarithms so q > 1 sequences survive out to n = 10^4 without overflow.  The
growth questions read that 10^4-term log W_n once per weights object, from
_growth_window, and one rule, _check_convergence, refuses the radius.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    FOCK,
    StateVector,
    TruncatedOperator,
    apply_spectral_function,
    times_one_diagonal,
)
from .ladder import WeightSequence, constant_weights, ladder_band
from .params import Refusal, WeightError

__all__ = [
    "DivergenceError",
    "TruncationError",
    "WeightSequenceTooShort",
    "OrderEstimate",
    "log_d_coefficients",
    "normalization_h",
    "CS_RESIDUAL_BOUND",
    "shift_eigenstate",
    "cs_vector",
    "band_residual",
    "cs_residual",
    "bargmann_transform",
    "order_estimate",
    "radius_of_convergence",
    "displacement_operator",
    "d_theta1_deviation",
]

_FIT_LO = 1_000
_FIT_HI = 10_000
# Power weights' W_n = n^{1+nu}/(1+nu) + zeta(-nu) + ..., fitted by the first term: the omitted zeta(-nu) moves rho
# by about 2 |zeta(-nu)| n^{-(1+nu)}, most at the window's n = 10^3, past c10's 0.05 below nu = -0.4353
_FIT_NU_MIN = -0.435
_H_REL_TOL = 1e-12  # relative tail bound normalization_h certifies
CS_RESIDUAL_BOUND = 1e-6  # the largest cs_residual that passes, in c08 and `isoladder coherent`


class DivergenceError(Refusal):
    """|zeta|^2 at or beyond the radius of convergence of h."""

    def __init__(self, t, radius):
        self.radius = radius
        super().__init__(
            f"normalization series diverges: |zeta|^2 = {t:g} vs radius^2 = {radius**2:g} "
            f"(|zeta| radius {radius:g})"
        )


class TruncationError(Refusal):
    """The first dropped coefficient term would exceed 1e-24 of h, or h overflows a float."""


class WeightSequenceTooShort(Refusal):
    """A finite custom list is too short for the requested growth analysis."""


def log_d_coefficients(log_w: np.ndarray) -> np.ndarray:
    """log d_0 .. log d_m from log_w = log W_1 .. log W_m, d_n = (W_1 ... W_n)^{-1}; log-space throughout.

    The one place log d_n is accumulated.  When some W_n = 0 the family is finite: the
    maximal valid prefix is returned (shorter than m + 1), so W_1 = 0 leaves d_0 = 1 alone.
    """
    finite = np.isfinite(log_w)
    if not np.all(finite):
        log_w = log_w[: int(np.argmin(finite))]
    return np.concatenate(([0.0], -np.cumsum(log_w)))


def _modulus_squared(zeta: complex) -> float:
    """|zeta|^2, inf where it passes the float range (abs and ** raise OverflowError there)."""
    try:
        return abs(complex(zeta)) ** 2
    except OverflowError:
        return math.inf


def _check_convergence(t: float, radius: float) -> None:
    """DivergenceError when t = |zeta|^2 sits at or beyond radius^2 (1 - 1e-12): the one radius rule."""
    if math.isfinite(radius) and t >= radius * radius * (1.0 - 1e-12):
        raise DivergenceError(t, radius)


def normalization_h(t: float, weights: WeightSequence) -> float:
    """h(t) = sum_n d_n t^n, d_n from log_d_coefficients, with a tail certified below 1e-12 relative.

    It stops at the first n >= 1 where the tail bound d_n t^n r / (1 - r), r = t / W_{n+1} < 1, is
    below 1e-12 of the partial sum (W_n never decreases); a finite family sums exactly, so W_1 = 0
    gives h = 1.  The prefix read doubles from 256 terms: WeightSequenceTooShort when a custom list
    runs out first, RuntimeError past 4M terms; DivergenceError at or beyond the squared radius, and
    TruncationError when a term or a partial sum overflows a float.
    """
    if t < 0:
        raise ValueError(f"h is defined for t >= 0, got {t}")
    _check_convergence(t, radius_of_convergence(weights))
    if t == 0.0:
        return 1.0
    limit = weights.max_index
    m = 256 if limit is None else min(256, limit)
    while True:
        log_w = weights.log_partial_sum_array(m)
        log_d = log_d_coefficients(log_w)
        with np.errstate(over="raise"):
            try:
                terms = np.exp(log_d + np.arange(len(log_d)) * math.log(t))  # d_n t^n
                total = np.cumsum(terms)
            except FloatingPointError:
                raise TruncationError(f"h({t:g}) overflows a float") from None
        if len(log_d) <= m:
            return float(total[-1])
        r = np.exp(math.log(t) - log_w)  # t / W_{n+1} at n = 0 .. m - 1
        certified = np.flatnonzero(terms[1:m] * r[1:] < _H_REL_TOL * total[1:m] * (1.0 - r[1:]))
        if len(certified):
            return float(total[certified[0] + 1])
        if limit is not None and m >= limit:
            raise WeightSequenceTooShort(f"custom list of {limit} weights cannot certify "
                                         f"the tail of h at t = {t:g}")
        m = 2 * m if limit is None else min(2 * m, limit)
        if m > 4_000_000:
            raise RuntimeError("normalization series failed to certify its tail")


def shift_eigenstate(log_w: np.ndarray, zeta: complex, start: int, tag) -> StateVector:
    """Unit eigenvector, eigenvalue zeta, of the weighted shift e_{start+n} -> sqrt(W_n) e_{start+n-1}.

    log_w is log W_1 .. log W_N; the vector, of length N, holds h^{-1/2} d_n^{1/2} zeta^n at
    index start + n for the kept n = 0 .. N - start - 1 (d_n from log_d_coefficients, 0 past
    a finite family's prefix), h the fsum of the kept d_n |zeta|^{2n}.  Refuses (TruncationError)
    when the first dropped term, n = N - start, exceeds 1e-24 of h rather than truncating silently,
    and when h overflows a float.
    """
    N = len(log_w)
    log_d = log_d_coefficients(log_w)
    log_d = np.concatenate((log_d, np.full(N + 1 - len(log_d), -math.inf)))
    kept = N - start
    zeta = complex(zeta)
    t = _modulus_squared(zeta)
    if t == math.inf:
        raise TruncationError(f"h overflows a float for |zeta|^2 = inf at N = {N}")
    h = 1.0
    if t > 0:
        log_terms = log_d[: kept + 1] + np.arange(kept + 1) * math.log(t)
        try:
            h = math.fsum(math.exp(v) for v in log_terms[:kept])
        except OverflowError:
            raise TruncationError(f"h overflows a float for |zeta| = {abs(zeta):g} at N = {N}") from None
        if log_terms[kept] - math.log(h) >= math.log(1e-24):
            raise TruncationError(
                f"first dropped term exp({log_terms[kept] - math.log(h):.1f}) of h exceeds 1e-24; "
                f"increase N beyond {N} for |zeta| = {abs(zeta):g}"
            )
    coeffs = np.zeros(N, dtype=complex)
    pref = 1.0 / math.sqrt(h)
    log_d = log_d.tolist()
    for n in range(kept):
        if zeta == 0 and n > 0:
            break
        mag = math.exp(0.5 * log_d[n] + (n * math.log(abs(zeta)) if n else 0.0))
        phase = (zeta / abs(zeta)) ** n if n else 1.0
        coeffs[start + n] = pref * mag * phase
    return StateVector(coeffs, tag)


def cs_vector(zeta: complex, weights: WeightSequence, N: int, tag) -> StateVector:
    """h^{-1/2} sum_n d_n^{1/2} zeta^n theta_{n+1} as a tagged vector of length N >= 4.

    Built by shift_eigenstate, which refuses a first dropped term beyond
    1e-24 of h; DivergenceError when |zeta| is at or beyond the radius.
    """
    if N < 4:
        raise ValueError(f"truncation N must be >= 4, got {N}")
    _check_convergence(_modulus_squared(zeta), radius_of_convergence(weights))
    return shift_eigenstate(weights.log_partial_sum_array(N), zeta, 1, tag)


def band_residual(band: np.ndarray, state: StateVector, zeta: complex) -> float:
    """|A c - zeta c|, c = state.coeffs, for the A whose one band is band at (n, n+1): A c = (c^T A^T)^T is
    fock.times_one_diagonal's column shift by A^T's band at (n+1, n), the dense A @ c bit for bit."""
    moved = times_one_diagonal(state.coeffs[None, :], band, -1)[0]
    return float(np.linalg.norm(moved - zeta * state.coeffs))


def cs_residual(weights: WeightSequence, zeta: complex, N: int) -> float:
    """|a1 cs - zeta cs| at truncation N, a1 read from ladder_band; inf when the tail guard refuses N."""
    band = ladder_band(weights, N)
    try:
        cs = cs_vector(zeta, weights, N, FOCK)
    except TruncationError:
        return math.inf
    return band_residual(band, cs, zeta)


def bargmann_transform(psi: StateVector, weights: WeightSequence, samples) -> list:
    """Psi(zeta) = sum_n d_n^{1/2} <theta_{n+1}|Psi> zeta^n at the sample points; DivergenceError,
    as for h and cs_vector, when a sample sits at or beyond the radius, read once for all samples."""
    if psi.basis.kind != "theta":
        raise ValueError("Bargmann transform expects a theta-basis state")
    N = psi.dim
    radius = radius_of_convergence(weights)
    half_d = np.exp(0.5 * log_d_coefficients(weights.log_partial_sum_array(N - 1)))[: N - 1]
    inner = psi.coeffs[1 : len(half_d) + 1]  # <theta_{n+1}|Psi> is the stored coefficient
    out = []
    for z in samples:
        z = complex(z)
        _check_convergence(_modulus_squared(z), radius)
        powers = z ** np.arange(len(half_d))
        out.append(complex(np.sum(half_d * inner * powers)))
    return out


@dataclass(frozen=True)
class OrderEstimate:
    """Fitted entire-function order, or the finite radius when not entire."""

    entire: bool
    rho: float | None
    radius: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.entire:
            if self.rho is None or not self.rho >= 0 or math.isfinite(self.radius):
                raise ValueError("entire estimate needs rho >= 0 and infinite radius")
        else:
            if self.rho is not None or not math.isfinite(self.radius) or self.radius <= 0:
                raise ValueError("non-entire estimate needs a finite positive radius")


def _growth_window(weights: WeightSequence) -> tuple[np.ndarray, float]:
    """log W_1 .. log W_n over the growth window and the radius read from it, kept read-only on the weights.

    n is 10^4, or the length of a custom list (at least 16); the radius is
    the one radius_of_convergence describes.  An all-zero prefix makes the
    growth from n/2 to n NaN, which reads as unbounded.
    """
    memo = vars(weights)
    if "_growth_window" in memo:
        return memo["_growth_window"]
    nmax = weights.max_index if weights.max_index is not None else _FIT_HI
    if nmax < 16:
        raise WeightSequenceTooShort(
            f"need at least 16 weights to classify growth, have {nmax}"
        )
    logW = weights.log_partial_sum_array(min(nmax, _FIT_HI))
    logW.setflags(write=False)
    n = len(logW)
    radius = math.inf
    # Python floats: -inf - -inf is NaN without a numpy RuntimeWarning
    if float(logW[n - 1]) - float(logW[n // 2 - 1]) < 1e-9:
        w_q = math.exp(logW[n // 4 - 1])
        w_h = math.exp(logW[n // 2 - 1])
        w_f = math.exp(logW[n - 1])
        d1 = w_h - w_q
        d2 = w_f - w_h
        limit = math.inf if 0 < d1 <= d2 else w_f  # increments that do not shrink: W_n grows, however flat log W_n
        if 0 < d2 < d1:
            r = d2 / d1
            limit = w_f + d2 * r / (1.0 - r)
        radius = math.sqrt(limit)
    memo["_growth_window"] = logW, radius
    return logW, radius


def order_estimate(weights: WeightSequence) -> OrderEstimate:
    """Classify the Bargmann-space growth for the weight rule.

    Bounded partial sums: not entire, radius from the ratio test.  Otherwise
    least squares of log(W_1...W_n) on {n^2, n log n, n, 1} over
    n in [1e3, 1e4]; a practically significant n^2 term means order 0
    (Gaussian-type coefficient decay), else rho = 2 / (n log n coefficient).
    WeightError when w_1 = 0 (a finite family, no growth to fit), and outside
    the fit's domain: power weights below nu = -0.435, and any slope s of log W_n
    in log n, over [1e3, 2e3] and [5e3, 1e4], whose drift moves rho = 2/s by over 0.05.
    """
    if weights.kind == "power" and weights.param < _FIT_NU_MIN:
        raise WeightError(f"order fit needs power weights with nu >= {_FIT_NU_MIN}, got {weights.param:g}: "
                          "W_n's zeta(-nu) term would move rho by more than 0.05")
    logW, radius = _growth_window(weights)
    if logW[0] == -math.inf:
        raise WeightError("order estimate needs w_1 > 0, got 0.0")
    if math.isfinite(radius):
        diag = {"bounded_weight_sums": True}
        if weights.kind == "geometric" and weights.param < 1:
            # the bare sqrt(q) convention is recorded alongside the ratio-test radius
            diag["alternative_sqrt_q"] = math.sqrt(weights.param)
        return OrderEstimate(entire=False, rho=None, radius=radius, diagnostics=diag)
    if len(logW) < _FIT_HI:
        raise WeightSequenceTooShort(
            f"order fit needs weights out to n = {_FIT_HI}, custom list has {weights.max_index}"
        )
    s_lo, s_hi = ((logW[2 * k - 1] - logW[k - 1]) / math.log(2) for k in (_FIT_LO, _FIT_HI // 2))
    drift = 2.0 * abs(s_hi - s_lo) / s_hi**2 if s_hi > 0 else math.inf
    if not drift <= 0.05:
        raise WeightError(f"order fit needs a steady slope of log W_n in log n over n in [{_FIT_LO}, {_FIT_HI}], "
                          f"got {s_lo:.4g} to {s_hi:.4g}: rho would move by about {drift:.3g}, more than 0.05")
    L = -log_d_coefficients(logW)[_FIT_LO : _FIT_HI + 1]
    n = np.arange(_FIT_LO, _FIT_HI + 1, dtype=float)
    X = np.column_stack([n * n, n * np.log(n), n, np.ones_like(n)])
    beta, _, _, _ = np.linalg.lstsq(X, L, rcond=None)
    contrib_sq = abs(beta[0]) * n[-1] ** 2
    contrib_nlogn = abs(beta[1]) * n[-1] * math.log(n[-1])
    ratio = contrib_sq / max(contrib_nlogn, 1e-300)
    diag = {
        "beta": tuple(float(b) for b in beta),
        "n_squared_contribution_ratio": float(ratio),
        "fit_window": (_FIT_LO, _FIT_HI),
    }
    if ratio > 1e-2:
        return OrderEstimate(entire=True, rho=0.0, radius=math.inf, diagnostics=diag)
    rho = 2.0 / float(beta[1])
    return OrderEstimate(entire=True, rho=max(rho, 0.0), radius=math.inf, diagnostics=diag)


def radius_of_convergence(weights: WeightSequence) -> float:
    """Ratio-test radius in |zeta|: sqrt(lim W_n), infinity when unbounded.

    The limit is estimated at the end n of the growth window (10^4 unless a
    custom list is shorter) with an Aitken/Richardson consistency step over
    n/4, n/2 and n.
    """
    return _growth_window(weights)[1]


def displacement_operator(zeta: complex, N: int, tag) -> TruncatedOperator:
    """D = exp(zeta a1+ - conj(zeta) a1) for the unit-weight pair, built here at truncation N >= 64.

    With zeta = |zeta| e^{i alpha}, D = P exp(i |zeta| (a1 + a1+)) P^dagger for P = R J^dagger, R = diag(e^{i alpha n})
    and J = diag(i^n); the exponential is the spectral calculus on the real tridiagonal |zeta| (a1 + a1+), a Jacobi
    matrix of the Hermite polynomials (Golub & Welsch), so D is one real eigensolve, unitary to solver precision.
    """
    zeta = complex(zeta)
    if abs(zeta) > 2.0:
        raise ValueError(f"|zeta| <= 2 required, got {abs(zeta):g}")
    if N < 64:
        raise ValueError(f"N >= 64 required for the displacement window, got {N}")
    band = ladder_band(constant_weights(1.0), N)
    jacobi = TruncatedOperator(abs(zeta) * (np.diag(band, 1) + np.diag(band, -1)), tag)
    p = np.exp(1j * cmath.phase(zeta) * np.arange(N)) * np.resize([1, -1j, -1, 1j], N)  # R J^dagger's diagonal
    d = p[:, None] * apply_spectral_function(jacobi, lambda t: cmath.exp(1j * t)).mat * p.conj()
    return TruncatedOperator(d, tag)


def d_theta1_deviation(zeta: complex, d: TruncatedOperator) -> tuple[float, float]:
    """|D theta_1 - cs_vector(zeta)| for the unit weights and the bound 1e-6 it must stay below: more means
    D = displacement_operator(zeta, N, tag) or the state is wrong, or D was built for another zeta."""
    cs = cs_vector(zeta, constant_weights(1.0), d.dim, d.basis)
    return float(np.linalg.norm(d.mat[:, 1] - cs.coeffs)), 1e-6
