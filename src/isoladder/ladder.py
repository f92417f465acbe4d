"""Shift operators and ladder pairs for a prescribed diagonal commutator.

Given real nonnegative weights {w_n}, the shift operator S = sum sqrt(c_n)
|n><n+1| is fixed by the generalized partial-isometry condition; conjugating
the oscillator lowering operator by it yields the ladder pair with
[a1, a1^dagger] = diag(0, w_1, w_2, ...).  The c_n come either from the
recursion (the oracle) or from the closed form in terms of generalized
double factorials of the partial sums W_n; the two must always agree.  a1
has one nonzero band, sqrt(W_n) at (n, n+1) (ladder_band), and so has its
commutator check: [a1, a1^dagger] is diagonal.  For the paper's five cases
the weight rule also picks a row of _CLOSED_FORMS, a1 = s b^dagger L(H) a
R(H) b with H = diag(0 .. N-1), so L and R are diagonals.  With b = a U^T the
theta-side form is U (s a^dagger L a R a) U^T for any orthogonal U, so
closed_form_case evaluates the Fock side, b = a, on its one band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FOCK,
    BasisTag,
    INTERIOR_MARGIN,
    TruncatedOperator,
    adjoint,
    require_hermitian,
    times_one_diagonal,
)
from .params import WEIGHT_RULES, WeightError, check_weight_rule

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
    "c_coefficients_recursive",
    "c_coefficients_closed",
    "shift_matrix",
    "ladder_band",
    "ladder_matrices",
    "commutator_diagonal",
    "commutator_part",
    "transport_to_theta",
    "represent_in_theta",
    "closed_form_case",
    "resolvent_inv_sqrt",
]

# kind -> w_1 .. w_m from m and the parameter params.WEIGHT_RULES names: the one place each rule's formula
# lives.  Geometric and power take Python's pow entry by entry, because numpy's differs in the last bit.
_FORMULAS = {
    "constant": lambda m, w: np.full(m, float(w)),
    "distorted": lambda m, w: np.where(np.arange(m) == 0, float(w), 1.0),
    "linear": lambda m, _: np.arange(1.0, m + 1),
    "single": lambda m, w: np.where(np.arange(m) == 0, float(w), 0.0),
    "geometric": lambda m, q: np.array([float(q) ** n for n in range(1, m + 1)]),
    "power": lambda m, nu: np.array([float(n) ** float(nu) for n in range(1, m + 1)]),
    "custom": lambda m, values: np.array(values[:m], dtype=float),
}


_R = lambda t: (1.0 + t) ** -0.5  # R = (H+1)^{-1/2} at H's eigenvalue t
_INV = lambda t: 1.0 / (1.0 + t)  # (H+1)^{-1}


def _root_q_number(q: float):
    """t -> sqrt((1 - q^{t+1})/(1 - q)), case v's factor; expm1 keeps it stable near q = 1."""
    lq = math.log(q)
    return lambda t: math.sqrt(t + 1.0 if abs(q - 1.0) < 1e-14 else math.expm1((t + 1.0) * lq) / math.expm1(lq))


# kind -> the closed form a1 = s b+ L(H) a R(H) b of the paper's cases i-v, from the weights: the scale s and
# the factor lists L and R, each factor a function of H's eigenvalue t, applied left to right.
_CLOSED_FORMS = {
    "constant": lambda ws: (math.sqrt(ws.param), [_R], [_R]),  # case i
    "distorted": lambda ws: (1.0, [lambda t: ((t + ws.param) / (t + 2.0)) ** 0.5 / (t + 1.0)], []),  # case ii
    "linear": lambda ws: (1.0 / math.sqrt(2.0), [_R], []),  # case iii
    "single": lambda ws: (math.sqrt(ws.param), [_INV], [_R]),  # case iv
    "geometric": lambda ws: (math.sqrt(ws.param), [_INV, _root_q_number(ws.param)], [_R]),  # case v
}


@dataclass(frozen=True)
class WeightSequence:
    """Rule generating the commutator weights w_n (n >= 1) and partial sums W_n.

    Variants: constant (w_n = w), distorted (w_1 = w, rest 1), linear
    (w_n = n), single (w_1 = w, rest 0), geometric (w_n = q^n), power
    (w_n = n^nu) and explicit custom lists; param is the one the rule reads.
    """

    kind: str
    param: float | tuple | None = None

    def __post_init__(self):
        check_weight_rule(self.kind, self.param)

    @property
    def max_index(self) -> int | None:
        """Largest defined n for finite custom lists, None for rule-based variants."""
        return len(self.param) if self.kind == "custom" else None

    def label(self) -> str:
        name = WEIGHT_RULES[self.kind][0]
        if name is None:
            return self.kind
        if name == "values":
            return f"custom[{len(self.param)}]"
        return f"{self.kind}({name}={self.param:g})"

    def weight_array(self, nmax: int) -> np.ndarray:
        """w_1 .. w_nmax from the rule's formula in _FORMULAS; WeightError when a weight overflows a float
        (the log route, log_weight_array, reads geometric and power weights without building them)."""
        if self.kind == "custom" and nmax > len(self.param):
            raise WeightError(f"custom weight index {len(self.param) + 1} out of range "
                              f"(have {len(self.param)})")
        try:
            return _FORMULAS[self.kind](nmax, self.param)
        except OverflowError:
            raise WeightError(f"{self.label()} weights overflow a float by n = {nmax}") from None

    def partial_sum_array(self, nmax: int) -> np.ndarray:
        """W_n = w_1 + ... + w_n for n = 1 .. nmax; WeightError, worded as weight_array's, when one overflows."""
        with np.errstate(over="raise"):
            try:
                return np.cumsum(self.weight_array(nmax))
            except FloatingPointError:
                raise WeightError(f"{self.label()} weights' partial sums overflow a float by n = {nmax}") from None

    def log_weight_array(self, nmax: int) -> np.ndarray:
        """log w_n, stable for large n (geometric/power handled in closed form)."""
        n = np.arange(1, nmax + 1, dtype=float)
        if self.kind == "geometric":
            return n * math.log(self.param)
        if self.kind == "power":
            return self.param * np.log(n)
        with np.errstate(divide="ignore"):
            return np.log(self.weight_array(nmax))

    def log_partial_sum_array(self, nmax: int) -> np.ndarray:
        """log W_n accumulated in the log domain, safe out to n = 10^4 for q > 1."""
        return np.logaddexp.accumulate(self.log_weight_array(nmax))


def constant_weights(w: float) -> WeightSequence:
    return WeightSequence("constant", float(w))


def distorted_weights(w: float) -> WeightSequence:
    return WeightSequence("distorted", float(w))


def linear_weights() -> WeightSequence:
    return WeightSequence("linear")


def single_weight(w: float) -> WeightSequence:
    return WeightSequence("single", float(w))


def geometric_weights(q: float) -> WeightSequence:
    return WeightSequence("geometric", float(q))


def power_law_weights(nu: float) -> WeightSequence:
    return WeightSequence("power", float(nu))


def custom_weights(values) -> WeightSequence:
    return WeightSequence("custom", tuple(float(v) for v in values))


def c_coefficients_recursive(weights: WeightSequence, N: int) -> np.ndarray:
    """c_0 .. c_{N-1} from c_0 c_1 = w_1, (n+1) c_n c_{n+1} - n c_n c_{n-1} = w_{n+1}, c_0 = 1."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    w = weights.weight_array(max(N - 1, 1)).tolist()  # Python floats: binary64 as numpy's, without scalar boxing
    if w[0] <= 0:
        raise WeightError(f"recursion needs w_1 > 0, got {w[0]}")
    c = [1.0, w[0]][:N]
    for n in range(1, N - 1):
        if c[n] == 0.0:
            raise WeightError(f"c_{n} = 0 with w_{n+1} = {w[n]}: inconsistent sequence")
        c.append((w[n] + n * c[n] * c[n - 1]) / ((n + 1) * c[n]))
    if not math.isfinite(c[-1]):  # an inf, then nan from there on
        raise WeightError(f"{weights.label()} weights overflow a float in c_n by n = {N - 1}")
    return np.array(c)


def c_coefficients_closed(weights: WeightSequence, N: int) -> np.ndarray:
    """Closed form c_n = ((n-1)!!/n!!) * (W_n!! / W_{n-1}!!), telescoped.

    The generalized double factorial terminates at index >= 1 (empty product
    1), so c_0 = 1, c_1 = W_1, and W_n!!/W_{n-2}!! = W_n gives
    c_n = c_{n-2} (n-1) W_n / (n W_{n-1}): one running product per parity
    class, from partial sums and integers only.  The ratios read W divided by
    the power of two of W_{N-1}, which is exact, so no product in them
    overflows where c_n stays finite.  The recursive table is the oracle
    this must match to 1e-12 relative.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    W = weights.partial_sum_array(max(N - 1, 1))
    if W[0] <= 0:
        raise WeightError(f"closed form needs w_1 > 0, got {W[0]}")
    n = np.arange(2.0, N)
    scaled = np.ldexp(W, -math.frexp(W[-1])[1])
    ratio = (n - 1.0) * scaled[1:] / (n * scaled[:-1])
    c = np.ones(N)
    if N > 1:
        c[1::2] = np.cumprod(np.concatenate(([W[0]], ratio[1::2])))
        c[2::2] = np.cumprod(ratio[0::2])
    return c


def _root_c(weights: WeightSequence, N: int) -> np.ndarray:
    """sqrt(c_0) .. sqrt(c_{N-2}), the superdiagonal of S; WeightError when some c_n < 0."""
    c = c_coefficients_recursive(weights, N)
    if np.any(c < 0):
        raise WeightError("negative c_n: weights admit no real shift operator")
    return np.sqrt(c[:-1])


def shift_matrix(weights: WeightSequence, N: int) -> TruncatedOperator:
    """S = sum_n sqrt(c_n) |n><n+1| in the Fock basis; S S^dagger and S^dagger S are diagonal."""
    return TruncatedOperator(np.diag(_root_c(weights, N), 1))


def _conjugated_band(weights: WeightSequence, N: int) -> np.ndarray:
    """The superdiagonal of S^dagger a S, its only nonzero band: (sqrt(c_{n-1}) sqrt(n)) sqrt(c_n) at (n, n+1).

    Each entry of the dense product (S^dagger a) S is one such product plus exact zeros, so this is it bit for bit.
    """
    root_c, root_n = _root_c(weights, N), np.sqrt(np.arange(1.0, N - 1))
    return np.concatenate(([0.0], root_c[:-1] * root_n * root_c[1:]))


def ladder_band(weights: WeightSequence, N: int) -> np.ndarray:
    """The superdiagonal of a1, its only nonzero band: sqrt(W_n) at (n, n+1) for n = 0 .. N-2, W_0 = 0.

    The direct sqrt(W_n) fill and the conjugation route S^dagger a S must agree entrywise to 1e-12 of the
    largest entry; WeightError if they do not.  The fill comes first: it refuses partial sums past a float
    by their name.
    """
    band = np.sqrt(np.concatenate(([0.0], weights.partial_sum_array(max(N - 1, 1)))))[: N - 1]
    dev = float(np.max(np.abs(_conjugated_band(weights, N) - band), initial=0.0))
    if dev > 1e-12 * max(1.0, float(np.max(band, initial=0.0))):
        raise WeightError(f"conjugation and direct fill disagree by {dev:.3e}")
    return band


def ladder_matrices(weights: WeightSequence, N: int, basis: BasisTag = FOCK):
    """The ladder pair (a1, a1^dagger), N x N on ladder_band's checked band; both annihilate index 0 structurally."""
    filled = TruncatedOperator(np.diag(ladder_band(weights, N), 1), basis)
    return filled, adjoint(filled)


def commutator_diagonal(band: np.ndarray, weights: WeightSequence) -> dict:
    """Interior diagonal of [a1, a1^dagger] for the a1 whose superdiagonal is band, against diag(0, w_1, ...).

    a1 has one nonzero band, so the commutator is diagonal with entry n equal to band_n^2 - band_{n-1}^2:
    each entry of the dense a1 a1^dagger - a1^dagger a1 is that one difference plus exact zeros, so this is
    its diagonal bit for bit.  residual is max |diagonal - target| / max(1, |target|).
    """
    inner = len(band) + 1 - INTERIOR_MARGIN
    diag = np.diff(np.concatenate(([0.0], band * band)))[:inner]
    tgt = np.concatenate(([0.0], weights.weight_array(len(band))))[:inner]
    return {
        "diagonal": [float(v) for v in diag],
        "target": [float(v) for v in tgt],
        "residual": float(np.max(np.abs(diag - tgt) / np.maximum(1.0, np.abs(tgt)))),
    }


def commutator_part(weights: WeightSequence, N: int) -> tuple:
    """The commutator check of one weight rule, as (label, check, bound): commutator_diagonal's dict on
    ladder_band's band, which passes when its residual is below the bound, 1e-12."""
    return f"fock_fill_diag[{weights.label()}]", commutator_diagonal(ladder_band(weights, N), weights), 1e-12


def transport_to_theta(x: TruncatedOperator, u: TruncatedOperator, tag: BasisTag) -> TruncatedOperator:
    """U X U^dagger: the operator carried over to the theta side, retagged.  X must have one nonzero diagonal
    (I, diag(n), a shift, a ladder member), at the offset of its first nonzero entry, else ValueError; then
    U X is a column shift of U (fock.times_one_diagonal), so one N x N product remains."""
    if x.basis.kind != "fock" or u.basis.kind != "fock":
        raise ValueError("transport expects Fock-basis matrices")
    nonzero = x.mat != 0
    row, col = divmod(int(np.argmax(nonzero)), x.dim)  # (0, 0) when X is zero
    band = np.diagonal(x.mat, col - row)
    if (stray := np.count_nonzero(nonzero) - np.count_nonzero(band)) != 0:
        raise ValueError(f"transport needs X with one nonzero diagonal: {stray} entries lie off offset {col - row}")
    return TruncatedOperator(times_one_diagonal(u.mat, band, col - row) @ u.mat.conj().T, tag)


def represent_in_theta(x: TruncatedOperator, u: TruncatedOperator, tag: BasisTag) -> TruncatedOperator:
    """U^dagger X U: the theta-indexed matrix of the same abstract operator."""
    return TruncatedOperator(u.mat.conj().T @ x.mat @ u.mat, tag)


def closed_form_case(weights: WeightSequence, N: int) -> np.ndarray:
    """The band of the closed form s b+ L(H) a R(H) b for a1 on the Fock side, b = a, from _CLOSED_FORMS:
    0 at (0, 1) and s sqrt(n) (n-1) R(n-1) L(n-2) at (n-1, n) for n = 2 .. N-1, as ladder_band lays it out.

    H = diag(0 .. N-1), so each factor g(H) of L and R is read at H's eigenvalues as Python floats (numpy's
    vectorized ** and expm1 can differ in the last bit).  The entry is multiplied in the dense chain's order,
    sqrt(n-1), each L, sqrt(n-1), each R, sqrt(n), then s: each entry of a product with a diagonal or a
    one-band matrix is one product plus exact zeros, so this is the dense chain's band bit for bit.
    Power-law and custom weights have no closed form and raise ValueError.
    """
    if weights.kind not in _CLOSED_FORMS:
        raise ValueError(f"no closed form for {weights.label()}: only constant, distorted, linear, "
                         "single and geometric weights have one")
    scale, left, right = _CLOSED_FORMS[weights.kind](weights)
    h, root = [float(t) for t in range(N - 1)], np.sqrt(np.arange(N, dtype=float))
    x = root[1:-1]
    for g in left:
        x = x * np.array([g(t) for t in h[:-1]])
    x = x * root[1:-1]
    for g in right:
        x = x * np.array([g(t) for t in h[1:]])
    return np.concatenate(([0.0], x * root[2:] * scale))


def _resolvent_nodes(kappa: float) -> int:
    """ceil(10/a) midpoint nodes, a = artanh(kappa^(-1/4)): an error near e^-40 (resolvent_inv_sqrt)."""
    return math.ceil(10.0 / math.atanh(min(kappa**-0.25, 1.0 - 2.0**-52)))


def resolvent_inv_sqrt(x: TruncatedOperator) -> TruncatedOperator:
    """X^{-1/2} = (2/pi) int_0^{pi/2} (sin^2(t) I + cos^2(t) X)^{-1} dt, the resolvent integral
    (1/pi) int_0^inf xi^{-1/2} (xi + X)^{-1} dxi at xi = tan^2(t), by the midpoint rule.

    The integrand is pi-periodic, even and analytic, so M midpoint nodes on [0, pi/2] are the
    trapezoid rule on a whole period and err like e^{-4aM} (Trefethen & Weideman, SIAM Rev. 56,
    2014), a the half-width of its strip of analyticity.  An eigenvalue mu puts poles at Im t =
    artanh(min(sqrt(mu), 1/sqrt(mu))), so with X scaled by s = sqrt(mu_max mu_min), a =
    artanh(kappa^{-1/4}), kappa = mu_max/mu_min <= ||X||_inf ||X^{-1}||_inf (one solve, no
    eigensolve).  M = ceil(10/a) errs near e^{-40}, below rounding; one stacked solve takes all
    M nodes.  Cholesky checks positivity, independently of the spectral-calculus square root.
    """
    m = x.mat
    require_hermitian(m)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("non-positive eigenvalue detected: matrix is not positive definite")
    eye = np.eye(x.dim)
    hi, lo = np.linalg.norm(m, np.inf), 1.0 / np.linalg.norm(np.linalg.solve(m, eye), np.inf)
    s, nodes = math.sqrt(hi * lo), _resolvent_nodes(hi / lo)
    t = (np.arange(nodes)[:, None, None] + 0.5) * (math.pi / 2.0 / nodes)
    inv = np.linalg.solve(np.sin(t) ** 2 * eye + np.cos(t) ** 2 / s * m, eye)
    return TruncatedOperator(inv.sum(axis=0) / (nodes * math.sqrt(s)), x.basis)
