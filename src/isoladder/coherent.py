"""Coherent states of the generalized ladder algebra and their growth data.

Eigenstates of the lowering operator built on theta_1 with coefficients
d_n^{1/2} zeta^n, d_n = (W_1 ... W_n)^{-1}; the Fock-Bargmann map; entire-
function order / radius-of-convergence estimation from the growth of the
partial-sum products; and, for unit weights, the unitary displacement
operator and the Perelomov-type generalized coherent states.

One weighted-shift routine, _shift_eigenvector, builds these states and the
two coherent-state families of isospectral, all under one tail guard.  All
W products are accumulated as sums of logarithms so q > 1 sequences survive
out to n = 10^4 without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    StateVector,
    TruncatedOperator,
    adjoint,
    apply_operator,
    commutator,
    hermitian_eigensystem,
    interior_max_abs,
)
from .ladder import WeightSequence

__all__ = [
    "DivergenceError",
    "TruncationError",
    "WeightSequenceTooShort",
    "CSSpec",
    "OrderEstimate",
    "QFactorialCheck",
    "d_coefficients",
    "log_d_coefficients",
    "normalization_h",
    "cs_vector",
    "bargmann_transform",
    "order_estimate",
    "q_factorial",
    "radius_of_convergence",
    "displacement_operator",
    "generalized_cs",
    "h_tilde_1",
]

_FIT_LO = 1_000
_FIT_HI = 10_000


class DivergenceError(ValueError):
    """|zeta|^2 at or beyond the radius of convergence of h."""

    def __init__(self, t, radius):
        self.radius = radius
        super().__init__(
            f"normalization series diverges: |zeta|^2 = {t:g} vs radius^2 = {radius**2:g} "
            f"(|zeta| radius {radius:g})"
        )


class TruncationError(ValueError):
    """Dropped tail would exceed the 1e-24 relative guard."""


class WeightSequenceTooShort(ValueError):
    """A finite custom list is too short for the requested growth analysis."""


@dataclass(frozen=True)
class CSSpec:
    """Eigenvalue zeta, weight rule and truncation for one coherent state."""

    zeta: complex
    weights: WeightSequence
    N: int

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"truncation N must be >= 4, got {self.N}")


def log_d_coefficients(weights: WeightSequence, N: int) -> np.ndarray:
    """log d_n for n = 0 .. N-1, d_n = (W_1 ... W_n)^{-1}; log-space throughout."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if N == 1:
        return np.zeros(1)
    logW = weights.log_partial_sum_array(N - 1)
    finite = np.isfinite(logW)
    if not np.all(finite):
        first_bad = int(np.argmin(finite))
        logW = logW[:first_bad]
    out = np.concatenate(([0.0], -np.cumsum(logW)))
    return out


def d_coefficients(weights: WeightSequence, N: int) -> np.ndarray:
    """d_0 = 1, d_n = (W_1 ... W_n)^{-1}.

    When some W_n = 0 the family is finite: the maximal valid prefix is
    returned (shorter than N).
    """
    return np.exp(log_d_coefficients(weights, N))


def normalization_h(t: float, weights: WeightSequence, rel_tol: float = 1e-12) -> float:
    """h(t) = sum_n d_n t^n with a certified geometric tail bound below rel_tol.

    Raises DivergenceError when t sits at or beyond the squared radius of
    convergence for bounded weight sums.
    """
    if t < 0:
        raise ValueError(f"h is defined for t >= 0, got {t}")
    radius = radius_of_convergence(weights)
    if math.isfinite(radius) and t >= radius * radius * (1.0 - 1e-12):
        raise DivergenceError(t, radius)
    if t == 0.0:
        return 1.0
    total = 1.0
    term = 1.0
    n = 0
    chunk = 256
    limit = weights.max_index
    if limit is not None:
        chunk = min(chunk, limit)
    W = weights.partial_sum_array(chunk)
    while True:
        if n + 2 >= len(W):
            if limit is not None and len(W) >= limit:
                raise WeightSequenceTooShort(
                    f"custom list of {limit} weights cannot certify the tail of h at t = {t:g}"
                )
            chunk *= 2
            if chunk > 4_000_000:
                raise RuntimeError("normalization series failed to certify its tail")
            if limit is not None:
                chunk = min(chunk, limit)
            W = weights.partial_sum_array(chunk)
        term *= t / W[n]  # term now d_{n+1} t^{n+1}
        n += 1
        total += term
        ratio_next = t / W[n] if W[n] > 0 else math.inf
        if ratio_next < 1.0:
            tail_bound = term * ratio_next / (1.0 - ratio_next)
            if tail_bound < rel_tol * total:
                return total


def _shift_eigenvector(log_d: np.ndarray, zeta: complex, start: int,
                       h: float | None = None) -> np.ndarray:
    """Normalized eigenvector, eigenvalue zeta, of a one-superdiagonal weighted shift.

    The shift maps basis vector start + n to sqrt(W_n) times vector
    start + n - 1; log_d[n] = -log(W_1 ... W_n) for n = 0 .. N, and the
    result has length N with h^{-1/2} d_n^{1/2} zeta^n at index start + n.
    h = sum_n d_n |zeta|^{2n} is the squared norm of the untruncated vector;
    when it is not given it is summed over n = 0 .. N, which suffices for
    weights W_n that grow without bound.  Refuses (TruncationError) when the
    dropped tail d_N |zeta|^{2N} exceeds 1e-24 of h rather than silently
    truncating.
    """
    N = len(log_d) - 1
    zeta = complex(zeta)
    t = abs(zeta) ** 2
    if h is None:
        h = math.fsum(math.exp(v) for v in log_d + np.arange(N + 1) * math.log(t)) if t else 1.0
    if t > 0:
        log_tail = log_d[N] + N * math.log(t)
        if log_tail - math.log(h) >= math.log(1e-24):
            raise TruncationError(
                f"dropped tail exp({log_tail - math.log(h):.1f}) of h exceeds 1e-24; "
                f"increase N beyond {N} for |zeta| = {abs(zeta):g}"
            )
    coeffs = np.zeros(N, dtype=complex)
    pref = 1.0 / math.sqrt(h)
    for n in range(N - start):
        if zeta == 0 and n > 0:
            break
        mag = math.exp(0.5 * log_d[n] + (n * math.log(abs(zeta)) if n else 0.0))
        phase = (zeta / abs(zeta)) ** n if n else 1.0
        coeffs[start + n] = pref * mag * phase
    return coeffs


def cs_vector(spec: CSSpec, tag) -> StateVector:
    """h^{-1/2} sum_n d_n^{1/2} zeta^n theta_{n+1} as a theta-tagged vector.

    Built by _shift_eigenvector, which refuses a dropped tail beyond 1e-24 of h.
    """
    N = spec.N
    h = normalization_h(abs(complex(spec.zeta)) ** 2, spec.weights)
    logd = log_d_coefficients(spec.weights, N + 1)
    if len(logd) < N + 1:
        logd = np.concatenate((logd, np.full(N + 1 - len(logd), -math.inf)))
    return StateVector(_shift_eigenvector(logd, spec.zeta, 1, h), tag)


def bargmann_transform(psi: StateVector, weights: WeightSequence, samples) -> list:
    """Psi(zeta) = sum_n d_n^{1/2} <theta_{n+1}|Psi> zeta^n at the sample points."""
    if psi.basis.kind != "theta":
        raise ValueError("Bargmann transform expects a theta-basis state")
    N = psi.dim
    radius = radius_of_convergence(weights)
    half_d = np.exp(0.5 * log_d_coefficients(weights, N))[: N - 1]
    inner = psi.coeffs[1 : len(half_d) + 1]  # <theta_{n+1}|Psi> is the stored coefficient
    out = []
    for z in samples:
        z = complex(z)
        if math.isfinite(radius) and abs(z) >= radius:
            raise ValueError(f"sample |zeta| = {abs(z):g} at/beyond radius {radius:g}")
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
            if self.rho is None or self.rho < 0 or math.isfinite(self.radius):
                raise ValueError("entire estimate needs rho >= 0 and infinite radius")
        else:
            if self.rho is not None or not math.isfinite(self.radius) or self.radius <= 0:
                raise ValueError("non-entire estimate needs a finite positive radius")


def _probe_length(weights: WeightSequence) -> int:
    nmax = weights.max_index if weights.max_index is not None else _FIT_HI
    if nmax < 16:
        raise WeightSequenceTooShort(
            f"need at least 16 weights to classify growth, have {nmax}"
        )
    return min(nmax, _FIT_HI)


def _bounded_weight_sums(weights: WeightSequence) -> bool:
    n = _probe_length(weights)
    logW = weights.log_partial_sum_array(n)
    return bool(logW[n - 1] - logW[n // 2 - 1] < 1e-9)


def order_estimate(weights: WeightSequence) -> OrderEstimate:
    """Classify the Bargmann-space growth for the weight rule.

    Bounded partial sums: not entire, radius from the ratio test.  Otherwise
    least squares of log(W_1...W_n) on {n^2, n log n, n, 1} over
    n in [1e3, 1e4]; a practically significant n^2 term means order 0
    (Gaussian-type coefficient decay), else rho = 2 / (n log n coefficient).
    """
    if _bounded_weight_sums(weights):
        radius = radius_of_convergence(weights)
        diag = {"bounded_weight_sums": True}
        if weights.kind == "geometric" and weights.q < 1:
            # the bare sqrt(q) convention is recorded alongside the ratio-test radius
            diag["alternative_sqrt_q"] = math.sqrt(weights.q)
        return OrderEstimate(entire=False, rho=None, radius=radius, diagnostics=diag)
    if weights.max_index is not None and weights.max_index < _FIT_HI:
        raise WeightSequenceTooShort(
            f"order fit needs weights out to n = {_FIT_HI}, custom list has {weights.max_index}"
        )
    logW = weights.log_partial_sum_array(_FIT_HI)
    L = np.cumsum(logW)[_FIT_LO - 1 : _FIT_HI]
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


@dataclass(frozen=True)
class QFactorialCheck:
    """Both sides of the q-factorial product identity and their mismatch."""

    product_side: float
    closed_side: float
    log_product: float
    relative_difference: float


def q_factorial(q: float, n: int) -> QFactorialCheck:
    """W_1 ... W_n for W_k = q + ... + q^k, against q^n (q-1)^{1-n} (q^2-1)...(q^n-1).

    Both sides are accumulated in log space (q > 1 overflows double precision
    near n ~ 10^3 otherwise); at q = 1 both sides are n!.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q == 1.0:
        log_fact = math.lgamma(n + 1)
        val = float(math.factorial(n)) if n <= 170 else math.inf
        return QFactorialCheck(val, val, log_fact, 0.0)
    lq = math.log(q)

    def log_abs_qk_minus_1(k):
        # log |q^k - 1|, stable on both sides of q = 1
        if q > 1:
            return k * lq + math.log1p(-math.exp(-k * lq))
        down = math.exp(k * lq) if k * lq > -700 else 0.0
        return math.log1p(-down)

    log_product = 0.0
    for k in range(1, n + 1):
        log_product += lq + log_abs_qk_minus_1(k) - math.log(abs(q - 1.0))
    log_closed = n * lq + (1 - n) * math.log(abs(q - 1.0))
    for k in range(2, n + 1):
        log_closed += log_abs_qk_minus_1(k)
    rel = abs(math.expm1(log_product - log_closed))
    to_val = lambda lg: math.exp(lg) if lg < 700 else math.inf
    return QFactorialCheck(to_val(log_product), to_val(log_closed), log_product, rel)


def radius_of_convergence(weights: WeightSequence) -> float:
    """Ratio-test radius in |zeta|: sqrt(lim W_n), infinity when unbounded.

    The limit is estimated at n = 10^4 with an Aitken/Richardson consistency
    step over n = 2500, 5000, 10000.
    """
    if not _bounded_weight_sums(weights):
        return math.inf
    n = _probe_length(weights)
    logW = weights.log_partial_sum_array(n)
    w_q = math.exp(logW[n // 4 - 1])
    w_h = math.exp(logW[n // 2 - 1])
    w_f = math.exp(logW[n - 1])
    d1 = w_h - w_q
    d2 = w_f - w_h
    limit = w_f
    if d1 > 0 and 0 < d2 < d1:
        r = d2 / d1
        limit = w_f + d2 * r / (1.0 - r)
    return math.sqrt(limit)


def _check_unit_weight_pair(lowering: TruncatedOperator, raising: TruncatedOperator):
    if float(np.max(np.abs(raising.mat - lowering.mat.conj().T))) > 1e-10:
        raise ValueError("ladder pair is not mutually adjoint: displacement argument "
                         "would not be anti-Hermitian")
    comm = commutator(lowering, raising)
    target = np.ones(lowering.dim)
    target[0] = 0.0
    dev = interior_max_abs(comm.mat - np.diag(target))
    if dev > 1e-8:
        raise ValueError(f"displacement requires the unit-weight algebra; commutator "
                         f"deviates by {dev:.3e}")


def displacement_operator(zeta: complex, lowering: TruncatedOperator,
                          raising: TruncatedOperator) -> TruncatedOperator:
    """D = exp(zeta a1+ - conj(zeta) a1) for the unit-weight pair.

    The anti-Hermitian argument is exponentiated through the eigensystem of
    the Hermitian matrix i(zeta a1+ - conj(zeta) a1), so D is unitary to
    solver precision.
    """
    zeta = complex(zeta)
    if abs(zeta) > 2.0:
        raise ValueError(f"|zeta| <= 2 required, got {abs(zeta):g}")
    if lowering.dim < 64:
        raise ValueError(f"N >= 64 required for the displacement window, got {lowering.dim}")
    _check_unit_weight_pair(lowering, raising)
    arg = zeta * raising.mat - np.conj(zeta) * lowering.mat
    k = TruncatedOperator(1j * arg, lowering.basis)
    evals, v = hermitian_eigensystem(k)
    d = (v * np.exp(-1j * evals)[None, :]) @ v.conj().T
    return TruncatedOperator(d, lowering.basis)


def generalized_cs(zeta: complex, n: int, lowering: TruncatedOperator,
                   raising: TruncatedOperator):
    """|zeta; theta_n> both ways: repeated displaced raising with per-step
    normalization, and direct displacement of theta_n.

    Returns (ladder_route, displaced_route); they agree up to normalization.
    """
    from .ladder import constant_weights  # local: avoids import cycle at module load

    N = lowering.dim
    if n < 2:
        raise ValueError(f"generalized CS start at n = 2, got {n}")
    if n > N - 10:
        raise ValueError(f"n = {n} too close to the truncation edge N = {N}")
    d = displacement_operator(zeta, lowering, raising)
    base = cs_vector(CSSpec(zeta, constant_weights(1.0), N), lowering.basis)
    transported = d @ raising @ adjoint(d)
    state = base
    for _ in range(n - 1):
        state = apply_operator(transported, state).normalized()
    unit = np.zeros(N, dtype=complex)
    unit[n] = 1.0
    displaced = apply_operator(d, StateVector(unit, lowering.basis))
    return state, displaced


def h_tilde_1(lowering: TruncatedOperator, raising: TruncatedOperator) -> TruncatedOperator:
    """a1+ a1 for unit weights: eigenvalues 0, 0, 1, 2, ... in the theta family."""
    _check_unit_weight_pair(lowering, raising)
    return raising @ lowering
