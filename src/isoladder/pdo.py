"""Formal pseudo-differential operator calculus.

Finite sums sum_k p_k(x, phi) d^k with integer orders k_max >= k >= floor,
where d^{-1} is the antiderivative with d^{-1}(f .) = sum (-1)^n f^(n) d^{-1-n}.
Coefficients are polynomials in the two generators x and phi over the exact
field of rationals extended by i, sqrt2 and half-powers of the symbol w;
differentiation reduces phi' through the Riccati relation
phi' = -2 x phi - phi^2, so no symbol beyond {x, phi} ever appears.

One coefficient type, CoeffPoly, holds a flat dict keyed
(x_deg, phi_deg, i, sqrt2, w_half) of exact rationals; a scalar is a
CoeffPoly whose terms all have x and phi degree 0.  Products and
derivatives work on that dict directly.

Every series carries a floor (orders below it are dropped) and an exactness
flag; multiplication, inversion and square root compute the floor through
which their result is valid given the operands' dropped tails, so "residual
is identically zero through retained orders" is an honest statement.

series_multiply applies one Leibniz rule, d^k f = sum_j C(k, j) f^(j) d^(k-j)
with the generalized binomial C(k, j), for every integer order k.  It scales
each operand's coefficients to integer numerators over one common
denominator, so its Leibniz sums run on integers only.  series_invert and
series_sqrt add one term per step and update their residual by that term's
product alone, not by recomputing it from the whole series.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "DEFAULT_DEPTH",
    "CoeffPoly",
    "PDOSeries",
    "series_multiply",
    "series_invert",
    "series_sqrt",
    "a_series",
    "a_dagger_series",
    "b_series",
    "b_dagger_series",
    "h_series",
    "inv_sqrt_one_plus_h",
    "inv_sqrt_bracket_checks",
    "expand_ladder_case_ii",
    "case_ii_reference",
    "series_agree_through",
    "ladder_reference_checks",
    "product_identities",
    "classical_limit_check",
]

DEFAULT_DEPTH = 6  # the case-ii pair and its products are valid through d^-DEFAULT_DEPTH
_CASE_II_FLOOR = -(DEFAULT_DEPTH + 6)  # the floor they are built at

# coefficient keys: (x_deg, phi_deg, i_parity, sqrt2_parity, w_half_exponent)
_ONE_KEY = (0, 0, 0, 0, 0)


def _accumulate(acc: dict, p: dict, q: dict, c) -> None:
    """acc += c * p * q on coefficient term dicts: degrees add, i^2 = -1 and sqrt2^2 = 2."""
    for (a1, b1, i1, r1, w1), n1 in p.items():
        n1 *= c
        for (a2, b2, i2, r2, w2), n2 in q.items():
            n = n1 * n2
            i = i1 + i2
            if i == 2:
                i = 0
                n = -n
            r = r1 + r2
            if r == 2:
                r = 0
                n *= 2
            key = (a1 + a2, b1 + b2, i, r, w1 + w2)
            acc[key] = acc.get(key, 0) + n


class CoeffPoly:
    """Polynomial in x and phi over Q(i, sqrt2, w^(1/2)).

    terms maps (x_deg, phi_deg, i, sqrt2, w_half) to an exact rational (an
    int or a Fraction); the term is value * x^x_deg * phi^phi_deg * i^i *
    sqrt2^sqrt2 * w^(w_half/2).  Zero values are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            key: v if type(v) in (int, Fraction) else Fraction(v)
            for key, v in (terms or {}).items()
            if v
        }

    @classmethod
    def rational(cls, p, q=1):
        return cls({_ONE_KEY: Fraction(p, q)})

    @classmethod
    def sqrt2(cls):
        return cls({(0, 0, 0, 1, 0): Fraction(1)})

    @classmethod
    def w_power(cls, half_exponent: int):
        return cls({(0, 0, 0, 0, half_exponent): Fraction(1)})

    @classmethod
    def x(cls, power=1):
        return cls({(power, 0, 0, 0, 0): Fraction(1)})

    @classmethod
    def phi(cls, power=1):
        return cls({(0, power, 0, 0, 0): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.terms == other.terms

    def _plus(self, other, negate=False):
        """self + other, or self - other with negate, without copying other first."""
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v if negate else out.get(k, 0) + v
        return CoeffPoly(out)

    __add__ = _plus

    def __neg__(self):
        return CoeffPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, negate=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.rational(other)
        elif not isinstance(other, CoeffPoly):
            return NotImplemented
        acc = {}
        _accumulate(acc, self.terms, other.terms, 1)
        return CoeffPoly(acc)

    __rmul__ = __mul__

    def diff(self):
        """d/dx with the Riccati reduction phi' = -2 x phi - phi^2."""
        out = {}
        for key, n in self.terms.items():
            a, b, rest = key[0], key[1], key[2:]
            if a:
                k = (a - 1, b) + rest
                out[k] = out.get(k, 0) + n * a
            if b:
                k = (a + 1, b) + rest
                out[k] = out.get(k, 0) - 2 * b * n
                k = (a, b + 1) + rest
                out[k] = out.get(k, 0) - b * n
        return CoeffPoly(out)

    def _single_scalar(self, what: str):
        """(i, sqrt2, w_half, value) of the only term, which must have degree 0."""
        if len(self.terms) != 1 or next(iter(self.terms))[:2] != (0, 0):
            raise ValueError(f"can only {what} a single scalar term, got {self.render()}")
        ((_, _, i, r, wh), f), = self.terms.items()
        return i, r, wh, f

    def inverse(self):
        """Inverse of a single scalar term."""
        i, r, wh, f = self._single_scalar("invert")
        f = 1 / Fraction(f)
        if i:
            f = -f  # 1/i = -i
        if r:
            f = f / 2  # 1/sqrt2 = sqrt2/2
        return CoeffPoly({(0, 0, i, r, -wh): f})

    def sqrt(self):
        """Square root of a single scalar term, when it stays inside the field."""
        i, r, wh, f = self._single_scalar("take the square root of")
        if i or r:
            raise ValueError(f"sqrt of {self.render()} leaves the scalar field")
        if wh % 2:
            raise ValueError(f"sqrt of {self.render()} needs quarter-powers of w")
        # |f| or |f|/2 is a rational square, the latter times sqrt2
        i_out, f = int(f < 0), abs(Fraction(f))
        for r_out, g in ((0, f), (1, f / 2)):
            rn, rd = math.isqrt(g.numerator), math.isqrt(g.denominator)
            if rn * rn == g.numerator and rd * rd == g.denominator:
                return CoeffPoly({(0, 0, i_out, r_out, wh // 2): Fraction(rn, rd)})
        raise ValueError(f"{self.render()} has no exact square root in the field")

    def substitute_phi_zero(self):
        return CoeffPoly({k: v for k, v in self.terms.items() if k[1] == 0})

    def substitute(self, w):
        """Bind w to an exact rational (integer powers only)."""
        w = Fraction(w)
        powers = {wh: w ** (wh // 2) for *_, wh in self.terms if wh and not wh % 2}
        out = {}
        for (a, b, i, r, wh), f in self.terms.items():
            if wh % 2:
                raise ValueError("cannot bind w rationally at a half-integer power")
            key = (a, b, i, r, 0)
            out[key] = out.get(key, 0) + (f * powers[wh] if wh else f)
        return CoeffPoly(out)

    def render(self) -> str:
        """Monomials sorted by (x-deg, phi-deg), each with its scalar, bracketed
        when it has more than one term."""
        if not self.terms:
            return "0"
        groups: dict = {}
        for key in sorted(self.terms):
            i, r, wh = key[2:]
            bits = [str(self.terms[key])]
            if i:
                bits.append("i")
            if r:
                bits.append("sqrt2")
            if wh:
                bits.append("w" if wh == 2 else f"w^({wh}/2)")
            groups.setdefault(key[:2], []).append("*".join(bits))
        pieces = []
        for (a, b), scalars in groups.items():
            bits = [scalars[0] if len(scalars) == 1 else "(" + " + ".join(scalars) + ")"]
            if a:
                bits.append("x" if a == 1 else f"x^{a}")
            if b:
                bits.append("phi" if b == 1 else f"phi^{b}")
            pieces.append("*".join(bits))
        return " + ".join(pieces)


_P_ONE = CoeffPoly.rational(1)
_INV_SQRT2 = CoeffPoly({(0, 0, 0, 1, 0): Fraction(1, 2)})  # sqrt2/2 = 1/sqrt2
# phi' = -2 x phi - phi^2, the Riccati relation
_PHI_PRIME = CoeffPoly({(1, 1, 0, 0, 0): Fraction(-2), (0, 2, 0, 0, 0): Fraction(-1)})


class PDOSeries:
    """Finite formal sum of CoeffPoly coefficients times powers of d.

    floor: lowest retained order (orders below are dropped).
    exact: True when nothing nonzero has ever been dropped, i.e. the stored
    terms are the whole operator.
    """

    __slots__ = ("terms", "floor", "exact")

    def __init__(self, terms=None, floor=-DEFAULT_DEPTH, exact=False):
        self.floor = int(floor)
        self.exact = bool(exact)
        self.terms = {}
        for k, p in (terms or {}).items():
            if not isinstance(p, CoeffPoly):
                p = CoeffPoly.rational(p)
            if not p:
                continue
            if k < self.floor:
                self.exact = False  # nonzero content fell below the floor
                continue
            self.terms[k] = p

    @classmethod
    def one(cls, floor=-DEFAULT_DEPTH):
        return cls({0: _P_ONE}, floor=floor, exact=True)

    @property
    def max_order(self):
        return max(self.terms) if self.terms else None

    def coefficient(self, order) -> CoeffPoly:
        return self.terms.get(order, CoeffPoly())

    def scale(self, s) -> "PDOSeries":
        """s times the series, s a rational or a CoeffPoly (multiplied from the left)."""
        return PDOSeries({k: p * s for k, p in self.terms.items()}, self.floor, self.exact)

    def _plus(self, other, negate=False):
        """self + other, or self - other with negate, without copying other first."""
        floor, exact = _combine_add(self, other)
        out = dict(self.terms)
        for k, p in other.terms.items():
            out[k] = out.get(k, CoeffPoly())._plus(p, negate)
        return PDOSeries(out, floor=floor, exact=exact)

    __add__ = _plus

    def __neg__(self):
        return PDOSeries({k: -p for k, p in self.terms.items()}, self.floor, self.exact)

    def __sub__(self, other):
        return self._plus(other, negate=True)

    def __mul__(self, other):
        return series_multiply(self, other)

    def substitute_phi_zero(self):
        return PDOSeries(
            {k: p.substitute_phi_zero() for k, p in self.terms.items()}, self.floor, self.exact
        )

    def substitute(self, w):
        return PDOSeries({k: p.substitute(w) for k, p in self.terms.items()}, self.floor, self.exact)

    def render(self) -> str:
        """Canonical text: descending orders, monomials sorted by (x-deg, phi-deg)."""
        if not self.terms:
            return f"0  (orders >= {self.floor})"
        lines = []
        for k in sorted(self.terms, reverse=True):
            lines.append(f"d^{k}: {self.terms[k].render()}")
        lines.append(f"(orders >= {self.floor}{', exact' if self.exact else ''})")
        return "\n".join(lines)


def _combine_add(a: PDOSeries, b: PDOSeries):
    if a.exact and b.exact:
        return min(a.floor, b.floor), True
    if a.exact:
        return b.floor, False
    if b.exact:
        return a.floor, False
    return max(a.floor, b.floor), False


def _flatten(polys) -> tuple[int, list[CoeffPoly]]:
    """The coefficients as integer numerators over their least common denominator."""
    polys = list(polys)
    den = math.lcm(*(f.denominator for p in polys for f in p.terms.values()))
    return den, [
        CoeffPoly({k: f.numerator * (den // f.denominator) for k, f in p.terms.items()})
        for p in polys
    ]


def series_multiply(a: PDOSeries, b: PDOSeries) -> PDOSeries:
    """Product with d^n f = sum_j C(n, j) f^(j) d^(n-j), C the generalized binomial."""
    base = min(a.floor, b.floor)
    candidates = [base]
    # a dropped term e d^j of a (j < a.floor) times g d^l of b reaches only orders below a.floor + l
    if not a.exact and b.terms:
        candidates.append(a.floor + b.max_order)
    if not b.exact and a.terms:
        candidates.append(b.floor + a.max_order)
    out_floor = max(candidates)
    exact = a.exact and b.exact
    # every product term is an integer over a_den * b_den
    a_den, a_flats = _flatten(a.terms.values())
    b_den, b_flats = _flatten(b.terms.values())
    left = [(k, p.terms) for k, p in zip(a.terms, a_flats)]
    acc: dict[int, dict] = {}

    for l, q_flat in zip(b.terms, b_flats):
        # derivatives of the right coefficient are shared across all left orders
        derivs = [q_flat]

        def deriv(j):
            while len(derivs) <= j:
                derivs.append(derivs[-1].diff())
            return derivs[j]

        for k, p_terms in left:
            # generalized binomial C(k, j); for k >= 0 it reaches 0 after j = k
            c, j = 1, 0
            while c:
                dq = deriv(j)
                if not dq:
                    break
                order = k - j + l
                if order < out_floor:
                    exact = False  # a nonzero term falls below the floor
                    break
                _accumulate(acc.setdefault(order, {}), p_terms, dq.terms, c)
                c = c * (k - j) // (j + 1)
                j += 1
    den = a_den * b_den
    out = {k: CoeffPoly({key: Fraction(n, den) for key, n in flat.items()}) for k, flat in acc.items()}
    return PDOSeries(out, floor=out_floor, exact=exact)


def _leading_term(series: PDOSeries) -> tuple[int, CoeffPoly]:
    m = series.max_order
    if m is None:
        raise ValueError("series is zero")
    return m, series.terms[m]


def _match_orders(err: PDOSeries, correction, x: PDOSeries, shift: int, scale: CoeffPoly,
                  depth: int, iterations: int, what: str) -> PDOSeries:
    """Refine x order by order until its residual err vanishes through order depth.

    Each step puts the top residual coefficient, times scale, on x at that
    order minus shift (the order at which it cancels the residual) as the
    one-term series t, and subtracts correction(x, t), the change t makes to
    the residual's product, from err rather than recomputing err from x.
    """
    last_top = None
    for _ in range(iterations):
        if not err.terms:
            return x
        e = err.max_order
        if last_top is not None and e >= last_top:
            raise RuntimeError(f"{what} failed to make progress")
        last_top = e
        if e - shift < depth:
            return x
        step = err.terms[e] * scale
        err = err - correction(x, PDOSeries({e - shift: step}, floor=depth, exact=False))
        new_terms = dict(x.terms)
        new_terms[e - shift] = new_terms.get(e - shift, CoeffPoly()) + step
        x = PDOSeries(new_terms, floor=depth, exact=False)
    raise RuntimeError(f"{what} did not converge")


def series_invert(a: PDOSeries, depth: int) -> PDOSeries:
    """B with A B = 1 through the retained orders, by order-by-order matching."""
    m, lead = _leading_term(a)
    if not a.exact:  # B's order k reads A down to order k + 2m, so no deeper than A's floor allows
        depth = max(depth, a.floor - 2 * m)
    inv_lead = lead.inverse()
    b = PDOSeries({-m: inv_lead}, floor=depth, exact=False)
    err = PDOSeries.one(floor=depth) - series_multiply(a, b)
    return _match_orders(err, lambda x, t: series_multiply(a, t), b, m, inv_lead,
                         depth, 4 * (abs(m) + abs(depth)) + 16, "inversion")


def series_sqrt(a: PDOSeries, depth: int) -> PDOSeries:
    """Q with Q Q = A through the retained orders; branch from the exact
    scalar square root of the leading coefficient."""
    m2, lead = _leading_term(a)
    if m2 % 2:
        raise ValueError(f"leading order {m2} is odd; no series square root")
    m = m2 // 2
    if not a.exact:  # Q's order k reads A down to order k + m, so no deeper than A's floor allows
        depth = max(depth, a.floor - m)
    q0 = lead.sqrt()
    q = PDOSeries({m: q0}, floor=depth, exact=False)
    # (x + t)(x + t) - x x = x t + t x + t t
    return _match_orders(a - series_multiply(q, q),
                         lambda x, t: series_multiply(x, t) + series_multiply(t, x) + series_multiply(t, t),
                         q, m, (q0 * 2).inverse(), depth, 4 * (abs(m2) + abs(depth)) + 16, "square root")


def a_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """a = (x + d)/sqrt2."""
    return PDOSeries({0: CoeffPoly.x(), 1: _P_ONE}, floor=floor, exact=True).scale(_INV_SQRT2)


def a_dagger_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """a^dagger = (x - d)/sqrt2."""
    return PDOSeries({0: CoeffPoly.x(), 1: -_P_ONE}, floor=floor, exact=True).scale(_INV_SQRT2)


def b_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """b = (x + d + phi)/sqrt2."""
    return PDOSeries(
        {0: CoeffPoly.x() + CoeffPoly.phi(), 1: _P_ONE}, floor=floor, exact=True
    ).scale(_INV_SQRT2)


def b_dagger_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """b^dagger = (x - d + phi)/sqrt2."""
    return PDOSeries(
        {0: CoeffPoly.x() + CoeffPoly.phi(), 1: -_P_ONE}, floor=floor, exact=True
    ).scale(_INV_SQRT2)


def h_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """H = (x^2 - d^2 - 1)/2."""
    return PDOSeries(
        {0: CoeffPoly.x(2) - _P_ONE, 2: -_P_ONE}, floor=floor, exact=True
    ).scale(Fraction(1, 2))


def inv_sqrt_one_plus_h():
    """(1 + H)^{-1/2} = -sqrt2 i (d^2 - x^2 - 1)^{-1/2}, through d^-8.

    Returns (prefactor, bracket, inverse): inverse = (d^2 - x^2 - 1)^{-1}, bracket its
    square root d^{-1} + (1/2)(1+x^2) d^{-3} - (3/2) x d^{-4} + ...; the product
    prefactor*bracket is the operator.
    """
    core = PDOSeries({2: _P_ONE, 0: -(CoeffPoly.x(2) + _P_ONE)}, floor=-10, exact=True)
    inverse = series_invert(core, -9)
    bracket = series_sqrt(inverse, -8)
    prefactor = CoeffPoly({(0, 0, 1, 1, 0): Fraction(-1)})  # -sqrt2 i
    return prefactor, bracket, inverse


def inv_sqrt_bracket_checks(bracket: PDOSeries, inverse: PDOSeries) -> list[tuple[str, bool]]:
    """The (1 + H)^{-1/2} bracket's d^-3 and d^-4 coefficients against (1 + x^2)/2 and -3x/2,
    and bracket^2 - inverse identically zero through the orders it is valid at."""
    want = {-3: (CoeffPoly.x(2) + _P_ONE) * Fraction(1, 2), -4: CoeffPoly.x() * Fraction(-3, 2)}
    back = series_multiply(bracket, bracket) - inverse
    return ([(f"inv_sqrt_bracket_d{k}", bracket.coefficient(k) == p) for k, p in want.items()]
            + [("inv_sqrt_bracket_square_back", not back.terms)])


def _w_scalar(w):
    if w is None:
        return CoeffPoly.w_power(2)
    return CoeffPoly.rational(Fraction(w))


def expand_ladder_case_ii(w=None):
    """Symbolic expansions of the distorted-algebra ladder pair (w_1 = w, rest 1).

    Composes b^dagger f(H) a b and its conjugate with
    f(H) = (H+1)^{-1} ((H+w)(H+2)^{-1})^{1/2}; w may be left symbolic (None)
    or bound to an exact rational.  Returns (lowering, raising) series valid
    through at least order -DEFAULT_DEPTH.
    """
    floor = _CASE_II_FLOOR
    h = h_series(floor)

    def h_plus(c):
        return h + PDOSeries({0: c}, floor=floor, exact=True)

    inv_h1 = series_invert(h_plus(1), floor)
    ratio = series_multiply(h_plus(_w_scalar(w)), series_invert(h_plus(2), floor))
    f_of_h = series_multiply(inv_h1, series_sqrt(ratio, floor))

    lowering = b_dagger_series(floor) * (f_of_h * (a_series(floor) * b_series(floor)))
    raising = b_dagger_series(floor) * (a_dagger_series(floor) * (f_of_h * b_series(floor)))
    return lowering, raising


def case_ii_reference(w=None):
    """Hand-derived reference expansions for the distorted algebra through d^{-2}.

    sqrt2 a1 = x + d - (w - 2 - phi') d^{-1} + [x(2-w) + phi phi' + x phi' + 2 phi] d^{-2}
    sqrt2 a1+ = x - d + (w - 2 - phi') d^{-1} + [x(2-w) - x phi' - phi phi'] d^{-2}
    with phi' = -2 x phi - phi^2 substituted everywhere.
    """
    x = CoeffPoly.x()
    phi = CoeffPoly.phi()
    two = _P_ONE * 2
    w_poly = _w_scalar(w)

    coeff_m1_low = -(w_poly - two - _PHI_PRIME)
    coeff_m2_low = x * (two - w_poly) + phi * _PHI_PRIME + x * _PHI_PRIME + phi * 2
    coeff_m1_up = w_poly - two - _PHI_PRIME
    coeff_m2_up = x * (two - w_poly) - x * _PHI_PRIME - phi * _PHI_PRIME

    lowering = PDOSeries({1: _P_ONE, 0: x, -1: coeff_m1_low, -2: coeff_m2_low}, floor=-2).scale(_INV_SQRT2)
    raising = PDOSeries({1: -_P_ONE, 0: x, -1: coeff_m1_up, -2: coeff_m2_up}, floor=-2).scale(_INV_SQRT2)
    return lowering, raising


def series_agree_through(a: PDOSeries, b: PDOSeries, lowest_order: int) -> bool:
    for k in range(max(
        a.max_order if a.terms else lowest_order,
        b.max_order if b.terms else lowest_order,
    ), lowest_order - 1, -1):
        if a.coefficient(k) != b.coefficient(k):
            return False
    return True


def ladder_reference_checks(low: PDOSeries, high: PDOSeries, w) -> list[tuple[str, bool]]:
    """The case-ii lowering and raising series against case_ii_reference(w) through
    d^-2; a symbolic w in them is bound to w first."""
    checks = []
    for name, s, ref in zip(("lowering", "raising"), (low, high), case_ii_reference(w=w)):
        # bind only the compared orders: the deep ones hold most of the terms
        top = PDOSeries({k: p for k, p in s.terms.items() if k >= -2}, floor=-2).substitute(w)
        checks.append((f"{name}_reference_through_d-2", series_agree_through(top, ref, -2)))
    return checks


def product_identities(w=None) -> dict:
    """Check a1 a1+ = (1/2)(-d^2 + x^2 + 2w - 3) - phi' and the conjugate-order
    identity with 2w - 5 (the latter holds on the theta_n, n >= 2 subspace).

    Returns residual series and booleans, plus the lowering and raising
    series the products were built from; residuals should vanish through
    every order the products are valid at.
    """
    lowering, raising = expand_ladder_case_ii(w=w)
    ws = _w_scalar(w)
    x2 = CoeffPoly.x(2)

    def target(shift):
        const = ws * 2 + _P_ONE * shift
        return PDOSeries(
            {2: -_P_ONE * Fraction(1, 2), 0: (x2 + const) * Fraction(1, 2) - _PHI_PRIME},
            floor=_CASE_II_FLOOR,
            exact=True,
        )

    lower_upper = series_multiply(lowering, raising)
    upper_lower = series_multiply(raising, lowering)
    res1 = lower_upper - target(-3)
    res2 = upper_lower - target(-5)
    return {
        "lowering": lowering,
        "raising": raising,
        "a1_a1dag_residual": res1,
        "a1dag_a1_residual": res2,
        "a1_a1dag_ok": not res1.terms,
        "a1dag_a1_ok": not res2.terms,
        "valid_floor": max(res1.floor, res2.floor),
    }


def classical_limit_check() -> list[tuple[str, bool]]:
    """b becomes a at phi = 0, and Mielnik's factorization b+ b = H - phi' holds identically."""
    b_to_a = b_series().substitute_phi_zero() - a_series()
    bb_residual = (series_multiply(b_dagger_series(-8), b_series(-8))
                   - h_series(-8) + PDOSeries({0: _PHI_PRIME}, floor=-8, exact=True))
    return [("b_phi0_equals_a", not b_to_a.terms), ("bdag_b_equals_h_minus_phiprime", not bb_residual.terms)]
