"""Shift operators and ladder pairs for a prescribed diagonal commutator.

Given real nonnegative weights {w_n}, the shift operator S = sum sqrt(c_n)
|n><n+1| is fixed by the generalized partial-isometry condition; conjugating
the oscillator lowering operator by it yields the ladder pair with
[a1, a1^dagger] = diag(0, w_1, w_2, ...).  The c_n come either from the
recursion (the oracle) or from the closed form in terms of generalized
double factorials of the partial sums W_n; the two must always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    FOCK,
    BasisTag,
    TruncatedOperator,
    adjoint,
    annihilation_matrix,
    apply_spectral_function,
    number_matrix,
)

__all__ = [
    "WeightError",
    "WeightSequence",
    "constant_weights",
    "distorted_weights",
    "linear_weights",
    "single_weight",
    "geometric_weights",
    "power_law_weights",
    "custom_weights",
    "CoefficientTable",
    "c_coefficients_recursive",
    "c_coefficients_closed",
    "ShiftOperator",
    "shift_matrix",
    "ladder_fill",
    "ladder_matrices",
    "transport_to_theta",
    "represent_in_theta",
    "closed_form_case",
    "resolvent_inv_sqrt",
]


class WeightError(ValueError):
    """Inadmissible or inconsistent weight sequence."""


@dataclass(frozen=True)
class WeightSequence:
    """Rule generating the commutator weights w_n (n >= 1) and partial sums W_n.

    Variants: constant (w_n = w), distorted (w_1 = w, rest 1), linear
    (w_n = n), single (w_1 = w, rest 0), geometric (w_n = q^n), power
    (w_n = n^nu) and explicit custom lists.
    """

    kind: str
    w: float | None = None
    q: float | None = None
    nu: float | None = None
    values: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("constant", "distorted", "linear", "single", "geometric", "power", "custom"):
            raise WeightError(f"unknown weight variant {self.kind!r}")
        if self.kind in ("constant", "distorted") and (self.w is None or self.w <= 0):
            raise WeightError(f"{self.kind} weights need w > 0, got {self.w!r}")
        if self.kind == "single" and (self.w is None or self.w < 0):
            raise WeightError(f"single weight needs w >= 0, got {self.w!r}")
        if self.kind == "geometric" and (self.q is None or self.q <= 0):
            raise WeightError(f"geometric weights need q > 0, got {self.q!r}")
        if self.kind == "power" and self.nu is None:
            raise WeightError("power-law weights need nu")
        if self.kind == "custom":
            if not self.values:
                raise WeightError("custom weights need a nonempty list")
            if any(v < 0 for v in self.values):
                raise WeightError("custom weights must be nonnegative")

    @property
    def max_index(self) -> int | None:
        """Largest defined n for finite custom lists, None for rule-based variants."""
        return len(self.values) if self.kind == "custom" else None

    def label(self) -> str:
        if self.kind == "constant":
            return f"constant(w={self.w:g})"
        if self.kind == "distorted":
            return f"distorted(w={self.w:g})"
        if self.kind == "linear":
            return "linear"
        if self.kind == "single":
            return f"single(w={self.w:g})"
        if self.kind == "geometric":
            return f"geometric(q={self.q:g})"
        if self.kind == "power":
            return f"power(nu={self.nu:g})"
        return f"custom[{len(self.values)}]"

    def weight(self, n: int) -> float:
        """w_n for n >= 1."""
        if n < 1:
            raise WeightError(f"weights are indexed from 1, got {n}")
        if self.kind == "constant":
            return float(self.w)
        if self.kind == "distorted":
            return float(self.w) if n == 1 else 1.0
        if self.kind == "linear":
            return float(n)
        if self.kind == "single":
            return float(self.w) if n == 1 else 0.0
        if self.kind == "geometric":
            return float(self.q) ** n
        if self.kind == "power":
            return float(n) ** float(self.nu)
        if n > len(self.values):
            raise WeightError(f"custom weight index {n} out of range (have {len(self.values)})")
        return float(self.values[n - 1])

    def weight_array(self, nmax: int) -> np.ndarray:
        return np.array([self.weight(n) for n in range(1, nmax + 1)])

    def partial_sum_array(self, nmax: int) -> np.ndarray:
        """W_n = w_1 + ... + w_n for n = 1 .. nmax."""
        return np.cumsum(self.weight_array(nmax))

    def partial_sum(self, n: int) -> float:
        return float(self.partial_sum_array(n)[-1])

    def log_weight_array(self, nmax: int) -> np.ndarray:
        """log w_n, stable for large n (geometric/power handled in closed form)."""
        n = np.arange(1, nmax + 1, dtype=float)
        if self.kind == "geometric":
            return n * math.log(self.q)
        if self.kind == "power":
            return self.nu * np.log(n)
        with np.errstate(divide="ignore"):
            return np.log(self.weight_array(nmax))

    def log_partial_sum_array(self, nmax: int) -> np.ndarray:
        """log W_n accumulated in the log domain, safe out to n = 10^4 for q > 1."""
        return np.logaddexp.accumulate(self.log_weight_array(nmax))


def constant_weights(w: float) -> WeightSequence:
    return WeightSequence("constant", w=float(w))


def distorted_weights(w: float) -> WeightSequence:
    return WeightSequence("distorted", w=float(w))


def linear_weights() -> WeightSequence:
    return WeightSequence("linear")


def single_weight(w: float) -> WeightSequence:
    return WeightSequence("single", w=float(w))


def geometric_weights(q: float) -> WeightSequence:
    return WeightSequence("geometric", q=float(q))


def power_law_weights(nu: float) -> WeightSequence:
    return WeightSequence("power", nu=float(nu))


def custom_weights(values) -> WeightSequence:
    return WeightSequence("custom", values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class CoefficientTable:
    """c_0 .. c_{N-1} solving the partial-isometry recursion for the weights."""

    c: np.ndarray
    weights: WeightSequence


def c_coefficients_recursive(weights: WeightSequence, N: int) -> CoefficientTable:
    """Solve c_0 c_1 = w_1, (n+1) c_n c_{n+1} - n c_n c_{n-1} = w_{n+1} with c_0 = 1."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    w1 = weights.weight(1)
    if w1 <= 0:
        raise WeightError(f"recursion needs w_1 > 0, got {w1}")
    c = np.zeros(N)
    c[0] = 1.0
    if N > 1:
        c[1] = w1
    for n in range(1, N - 1):
        if c[n] == 0.0:
            raise WeightError(f"c_{n} = 0 with w_{n+1} = {weights.weight(n + 1)}: inconsistent sequence")
        c[n + 1] = (weights.weight(n + 1) + n * c[n] * c[n - 1]) / ((n + 1) * c[n])
    return CoefficientTable(c=c, weights=weights)


def c_coefficients_closed(weights: WeightSequence, N: int) -> CoefficientTable:
    """Closed form c_n = ((n-1)!!/n!!) * (W_n!! / W_{n-1}!!) in log space.

    The generalized double factorial terminates at index >= 1 (empty product
    1); the recursive table is the oracle this must match to 1e-12 relative.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if weights.weight(1) <= 0:
        raise WeightError(f"closed form needs w_1 > 0, got {weights.weight(1)}")
    W = weights.partial_sum_array(max(N - 1, 1))
    logW = np.log(W)
    log_int = np.log(np.arange(1.0, max(N, 2)))  # log 1, log 2, ...
    c = np.zeros(N)
    c[0] = 1.0
    for n in range(1, N):
        # signed log sums: + for the W_n!! chain, - for W_{n-1}!!, and the integer ratio
        terms = [logW[k - 1] for k in range(n, 0, -2)]
        terms += [-logW[k - 1] for k in range(n - 1, 0, -2)]
        terms += [log_int[k - 1] for k in range(n - 1, 0, -2)]
        terms += [-log_int[k - 1] for k in range(n, 0, -2)]
        c[n] = math.exp(math.fsum(terms))
    return CoefficientTable(c=c, weights=weights)


@dataclass(frozen=True)
class ShiftOperator:
    """One-superdiagonal sqrt(c_n) matrix; S S^dagger and S^dagger S are diagonal."""

    op: TruncatedOperator
    table: CoefficientTable


def shift_matrix(weights: WeightSequence, N: int, basis: BasisTag = FOCK) -> ShiftOperator:
    """S = sum_n sqrt(c_n) |n><n+1| in the given basis."""
    table = c_coefficients_recursive(weights, N)
    if np.any(table.c < 0):
        raise WeightError("negative c_n: weights admit no real shift operator")
    m = np.zeros((N, N))
    for n in range(N - 1):
        m[n, n + 1] = math.sqrt(table.c[n])
    return ShiftOperator(op=TruncatedOperator(m, basis), table=table)


def ladder_fill(weights: WeightSequence, N: int, basis: BasisTag = FOCK) -> TruncatedOperator:
    """Direct construction a1 = sum_{n>=1} sqrt(W_n) |n><n+1|."""
    W = weights.partial_sum_array(max(N - 1, 1))
    m = np.zeros((N, N))
    for n in range(1, N - 1):
        if W[n - 1] < 0:
            raise WeightError(f"negative partial sum W_{n} = {W[n - 1]}")
        m[n, n + 1] = math.sqrt(W[n - 1])
    return TruncatedOperator(m, basis)


def ladder_matrices(weights: WeightSequence, N: int, basis: BasisTag = FOCK):
    """The ladder pair (a1, a1^dagger) for the weights, built two ways.

    The conjugation route S^dagger a S and the direct sqrt(W_n) fill must
    agree entrywise to 1e-12; construction fails loudly if they do not.
    Both members annihilate index 0 structurally.
    """
    s = shift_matrix(weights, N, basis)
    a = annihilation_matrix(N, basis)
    conjugated = adjoint(s.op) @ a @ s.op
    filled = ladder_fill(weights, N, basis)
    dev = float(np.max(np.abs(conjugated.mat - filled.mat)))
    scale = max(1.0, float(np.max(np.abs(filled.mat))))
    if dev > 1e-12 * scale:
        raise WeightError(f"conjugation and direct fill disagree by {dev:.3e}")
    return filled, adjoint(filled)


def transport_to_theta(x: TruncatedOperator, u: TruncatedOperator, tag: BasisTag) -> TruncatedOperator:
    """U X U^dagger: the operator carried over to the theta side, retagged."""
    if x.basis.kind != "fock" or u.basis.kind != "fock":
        raise ValueError("transport expects Fock-basis matrices")
    return TruncatedOperator(u.mat @ x.mat @ u.mat.conj().T, tag)


def represent_in_theta(x: TruncatedOperator, u: TruncatedOperator, tag: BasisTag) -> TruncatedOperator:
    """U^dagger X U: the theta-indexed matrix of the same abstract operator."""
    return TruncatedOperator(u.mat.conj().T @ x.mat @ u.mat, tag)


def _q_partial_sum_spectral(q: float):
    # (1 - q^{t+1})/(1 - q) evaluated stably near q = 1 via expm1.
    lq = math.log(q)

    def g(t: float) -> float:
        if abs(q - 1.0) < 1e-14:
            return t + 1.0
        return math.expm1((t + 1.0) * lq) / math.expm1(lq)

    return g


def closed_form_case(
    case: str,
    b: TruncatedOperator,
    *,
    w: float | None = None,
    q: float | None = None,
) -> TruncatedOperator:
    """The closed-form expression for a1 (theta side, Fock coordinates) for one case.

    case i:   w_n = w          -> sqrt(w) b+ R a R b,       R = (H+1)^{-1/2}
    case ii:  w_1 = w, rest 1  -> b+ (H+1)^{-1} sqrt((H+w)/(H+2)) a b
    case iii: w_n = n          -> 2^{-1/2} b+ R a b
    case iv:  w_1 = w, rest 0  -> sqrt(w) b+ (H+1)^{-1} a R b
    case v:   w_n = q^n        -> sqrt(q) b+ (H+1)^{-1} sqrt((1-q^{H+1})/(1-q)) a R b

    Spectral functions are taken on H = diag(0 .. N-1); everything stays in
    the Fock coordinate system of the underlying b matrix.
    """
    case = case.lower()
    N = b.dim
    h = number_matrix(N, b.basis)
    a = annihilation_matrix(N, b.basis)
    bd = adjoint(b)
    r = apply_spectral_function(h, lambda t: (1.0 + t) ** -0.5)
    inv1 = apply_spectral_function(h, lambda t: 1.0 / (1.0 + t))
    if case == "i":
        if w is None or w < 0:
            raise ValueError(f"case i needs w >= 0, got {w!r}")
        return math.sqrt(w) * (bd @ r @ a @ r @ b)
    if case == "ii":
        if w is None or w < 0:
            raise ValueError(f"case ii needs w >= 0, got {w!r}")
        f = apply_spectral_function(h, lambda t: ((t + w) / (t + 2.0)) ** 0.5 / (t + 1.0))
        return bd @ f @ a @ b
    if case == "iii":
        return (1.0 / math.sqrt(2.0)) * (bd @ r @ a @ b)
    if case == "iv":
        if w is None or w < 0:
            raise ValueError(f"case iv needs w >= 0, got {w!r}")
        return math.sqrt(w) * (bd @ inv1 @ a @ r @ b)
    if case == "v":
        if q is None or q <= 0:
            raise ValueError(f"case v needs q > 0, got {q!r}")
        gq = _q_partial_sum_spectral(q)
        gmat = apply_spectral_function(h, lambda t: math.sqrt(gq(t)))
        return math.sqrt(q) * (bd @ inv1 @ gmat @ a @ r @ b)
    raise ValueError(f"unknown case {case!r}; expected i, ii, iii, iv or v")


def case_weights(case: str, *, w: float | None = None, q: float | None = None) -> WeightSequence:
    """The WeightSequence matching each closed-form case."""
    case = case.lower()
    if case == "i":
        return constant_weights(w)
    if case == "ii":
        return distorted_weights(w)
    if case == "iii":
        return linear_weights()
    if case == "iv":
        return single_weight(w)
    if case == "v":
        return geometric_weights(q)
    raise ValueError(f"unknown case {case!r}")


def resolvent_inv_sqrt(x: TruncatedOperator, nodes: int = 200) -> TruncatedOperator:
    """X^{-1/2} from the resolvent integral (1/pi) int_0^inf xi^{-1/2} (xi + X)^{-1} dxi.

    Substituting xi = tan^2(theta) gives (2/pi) int_0^{pi/2} sec^2(theta)
    (tan^2(theta) + X)^{-1} d(theta), evaluated with Gauss-Legendre nodes and
    dense linear solves.  Positivity is checked by Cholesky so the route stays
    independent of the spectral-calculus square root.
    """
    m = x.mat
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("resolvent square root needs a Hermitian matrix")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("non-positive eigenvalue detected: matrix is not positive definite")
    t, glw = np.polynomial.legendre.leggauss(nodes)
    theta = (np.pi / 4.0) * (t + 1.0)
    wts = glw * (np.pi / 4.0)
    N = x.dim
    acc = np.zeros((N, N), dtype=complex)
    eye = np.eye(N)
    for th, wt in zip(theta, wts):
        tan2 = math.tan(th) ** 2
        sec2 = 1.0 / math.cos(th) ** 2
        acc += wt * (2.0 / math.pi) * sec2 * np.linalg.solve(tan2 * eye + m, eye)
    return TruncatedOperator(acc, x.basis)
