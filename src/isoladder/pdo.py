"""Formal pseudo-differential operator calculus.

Finite sums sum_k p_k(x, phi) d^k with integer orders k_max >= k >= floor,
where d^{-1} is the antiderivative with d^{-1}(f .) = sum (-1)^n f^(n) d^{-1-n}.
Coefficients are polynomials in the two generators x and phi over an exact
scalar field (rationals extended by i, sqrt2 and half-powers of the symbols
w and q); differentiation reduces phi' through the Riccati relation
phi' = -2 x phi - phi^2, so no symbol beyond {x, phi} ever appears.

Every series carries a floor (orders below it are dropped) and an exactness
flag; multiplication computes the floor through which the product is valid
given the operands' dropped tails, so "residual is identically zero through
retained orders" is an honest statement.

series_multiply turns each operand coefficient into one flat dict, keyed
(x_deg, phi_deg, i, sqrt2, w_half, q_half), of integer numerators over a
common denominator; it takes the Leibniz derivatives and sums on that form
and builds the objects once at the end.  Rebuilding immutable objects on
every + and * of the sum was nearly all of the cost of the exact checks.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "DEFAULT_DEPTH",
    "SymbolicScalar",
    "CoeffPoly",
    "PDOSeries",
    "compose_dinv_f",
    "commute_dinvr_f",
    "series_multiply",
    "series_invert",
    "series_sqrt",
    "d_power",
    "a_series",
    "a_dagger_series",
    "b_series",
    "b_dagger_series",
    "h_series",
    "inv_sqrt_one_plus_h",
    "expand_ladder_case_ii",
    "case_ii_reference",
    "product_identities",
    "classical_limit_check",
]

DEFAULT_DEPTH = 6

# scalar basis keys: (i_parity, sqrt2_parity, w_half_exponent, q_half_exponent)
_ONE_KEY = (0, 0, 0, 0)


def _mul_keys(k1, k2):
    """Product of two basis keys: (key, integer factor) with i^2 = -1 and sqrt2^2 = 2.

    The last four entries of a key are (i, sqrt2, w_half, q_half); any
    leading entries (the x and phi degrees of a flat coefficient) add.
    """
    key = list(map(operator.add, k1, k2))
    m = 1
    if key[-4] >= 2:
        key[-4] -= 2
        m = -1
    if key[-3] >= 2:
        key[-3] -= 2
        m *= 2
    return tuple(key), m


class SymbolicScalar:
    """Exact scalar: sum of terms rational * i^a * sqrt2^b * w^(c/2) * q^(e/2)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            key: frac if type(frac) is Fraction else Fraction(frac)
            for key, frac in (terms or {}).items()
            if frac
        }

    @classmethod
    def rational(cls, p, q=1):
        return cls({_ONE_KEY: Fraction(p, q)})

    @classmethod
    def i_unit(cls):
        return cls({(1, 0, 0, 0): Fraction(1)})

    @classmethod
    def sqrt2(cls):
        return cls({(0, 1, 0, 0): Fraction(1)})

    @classmethod
    def w_power(cls, half_exponent: int):
        return cls({(0, 0, half_exponent, 0): Fraction(1)})

    @classmethod
    def q_power(cls, half_exponent: int):
        return cls({(0, 0, 0, half_exponent): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymbolicScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SymbolicScalar(out)

    def __neg__(self):
        return SymbolicScalar({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymbolicScalar.rational(other)
        out = {}
        for k1, f1 in self.terms.items():
            for k2, f2 in other.terms.items():
                key, m = _mul_keys(k1, k2)
                out[key] = out.get(key, Fraction(0)) + f1 * f2 * m
        return SymbolicScalar(out)

    __rmul__ = __mul__

    def is_monomial(self):
        return len(self.terms) == 1

    def inverse(self):
        """Inverse of a single-term scalar."""
        if not self.is_monomial():
            raise ValueError(f"can only invert monomial scalars, got {self.render()}")
        ((i, r, wh, qh), f), = self.terms.items()
        f = 1 / f
        if i:
            f = -f  # 1/i = -i
        if r:
            f = f / 2  # 1/sqrt2 = sqrt2/2
        return SymbolicScalar({(i, r, -wh, -qh): f})

    def sqrt(self):
        """Square root of a single-term scalar, when it stays inside the field."""
        if not self.is_monomial():
            raise ValueError(f"can only take sqrt of monomial scalars, got {self.render()}")
        ((i, r, wh, qh), f), = self.terms.items()
        if i or r:
            raise ValueError(f"sqrt of {self.render()} leaves the scalar field")
        if wh % 2 or qh % 2:
            raise ValueError(f"sqrt of {self.render()} needs quarter-powers of w or q")
        i_out = 0
        if f < 0:
            i_out = 1
            f = -f
        num, den = f.numerator, f.denominator
        pow2 = 0
        while num % 2 == 0:
            num //= 2
            pow2 += 1
        while den % 2 == 0:
            den //= 2
            pow2 -= 1
        rn = math.isqrt(num)
        rd = math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError(f"{self.render()} has no exact square root in the field")
        half, rem = divmod(pow2, 2)
        frac = Fraction(rn, rd) * Fraction(2) ** half
        return SymbolicScalar({(i_out, rem, wh // 2, qh // 2): frac})

    def substitute(self, w=None, q=None):
        """Bind w and/or q to exact rationals (integer powers only)."""
        out = {}
        for (i, r, wh, qh), f in self.terms.items():
            if w is not None and wh:
                if wh % 2:
                    raise ValueError("cannot bind w rationally at a half-integer power")
                f = f * Fraction(w) ** (wh // 2)
                wh = 0
            if q is not None and qh:
                if qh % 2:
                    raise ValueError("cannot bind q rationally at a half-integer power")
                f = f * Fraction(q) ** (qh // 2)
                qh = 0
            key = (i, r, wh, qh)
            out[key] = out.get(key, Fraction(0)) + f
        return SymbolicScalar(out)

    def evaluate(self, w=None, q=None) -> complex:
        total = 0j
        for (i, r, wh, qh), f in self.terms.items():
            v = complex(f)
            if i:
                v *= 1j
            if r:
                v *= math.sqrt(2.0)
            if wh:
                if w is None:
                    raise ValueError("scalar contains w; supply a value")
                v *= float(w) ** (wh / 2.0)
            if qh:
                if q is None:
                    raise ValueError("scalar contains q; supply a value")
                v *= float(q) ** (qh / 2.0)
            total += v
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            i, r, wh, qh = key
            f = self.terms[key]
            bits = [str(f)]
            if i:
                bits.append("i")
            if r:
                bits.append("sqrt2")
            if wh:
                bits.append("w" if wh == 2 else f"w^({wh}/2)")
            if qh:
                bits.append("q" if qh == 2 else f"q^({qh}/2)")
            pieces.append("*".join(bits))
        return pieces[0] if len(pieces) == 1 else "(" + " + ".join(pieces) + ")"


_S_ONE = SymbolicScalar.rational(1)
_S_HALF = SymbolicScalar.rational(1, 2)
_S_INV_SQRT2 = SymbolicScalar({(0, 1, 0, 0): Fraction(1, 2)})  # sqrt2/2 = 1/sqrt2


class CoeffPoly:
    """Polynomial in the generators x and phi with SymbolicScalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, s in (terms or {}).items():
            if not isinstance(s, SymbolicScalar):
                s = SymbolicScalar.rational(s)
            if s:
                self.terms[key] = s

    @classmethod
    def scalar(cls, s):
        return cls({(0, 0): s})

    @classmethod
    def x(cls, power=1):
        return cls({(power, 0): _S_ONE})

    @classmethod
    def phi(cls, power=1):
        return cls({(0, power): _S_ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, frozenset(v.terms.items())) for k, v in self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, SymbolicScalar()) + v
        return CoeffPoly(out)

    def __neg__(self):
        return CoeffPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymbolicScalar)):
            s = other if isinstance(other, SymbolicScalar) else SymbolicScalar.rational(other)
            return CoeffPoly({k: v * s for k, v in self.terms.items()})
        out = {}
        for (a1, b1), s1 in self.terms.items():
            for (a2, b2), s2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, SymbolicScalar()) + s1 * s2
        return CoeffPoly(out)

    __rmul__ = __mul__

    def diff(self):
        """d/dx with the Riccati reduction phi' = -2 x phi - phi^2."""
        den, (flat,) = _flatten([self])
        return _poly_from_flat(_flat_diff(flat), den)

    def substitute_phi_zero(self):
        return CoeffPoly({k: v for k, v in self.terms.items() if k[1] == 0})

    def substitute(self, w=None, q=None):
        return CoeffPoly({k: v.substitute(w=w, q=q) for k, v in self.terms.items()})

    def evaluate(self, x, phi, w=None, q=None) -> complex:
        total = 0j
        for (a, b), s in self.terms.items():
            total += s.evaluate(w=w, q=q) * (x**a) * (phi**b)
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for a, b in sorted(self.terms):
            s = self.terms[(a, b)]
            bits = [s.render()]
            if a:
                bits.append("x" if a == 1 else f"x^{a}")
            if b:
                bits.append("phi" if b == 1 else f"phi^{b}")
            pieces.append("*".join(bits))
        return " + ".join(pieces)


_P_ONE = CoeffPoly.scalar(_S_ONE)


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
                p = CoeffPoly.scalar(SymbolicScalar.rational(p))
            if not p:
                continue
            if k < self.floor:
                self.exact = False  # nonzero content fell below the floor
                continue
            self.terms[k] = p

    @classmethod
    def monomial(cls, order, poly, floor=-DEFAULT_DEPTH):
        return cls({order: poly}, floor=floor, exact=True)

    @classmethod
    def zero(cls, floor=-DEFAULT_DEPTH):
        return cls({}, floor=floor, exact=True)

    @classmethod
    def one(cls, floor=-DEFAULT_DEPTH):
        return cls({0: _P_ONE}, floor=floor, exact=True)

    @property
    def max_order(self):
        return max(self.terms) if self.terms else None

    def coefficient(self, order) -> CoeffPoly:
        return self.terms.get(order, CoeffPoly())

    def scale(self, s) -> "PDOSeries":
        if not isinstance(s, SymbolicScalar):
            s = SymbolicScalar.rational(s)
        return PDOSeries({k: p * s for k, p in self.terms.items()}, self.floor, self.exact)

    def __add__(self, other):
        floor, exact = _combine_add(self, other)
        out = dict(self.terms)
        for k, p in other.terms.items():
            out[k] = out.get(k, CoeffPoly()) + p
        return PDOSeries(out, floor=floor, exact=exact)

    def __neg__(self):
        return PDOSeries({k: -p for k, p in self.terms.items()}, self.floor, self.exact)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymbolicScalar)):
            return self.scale(other)
        return series_multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, SymbolicScalar)):
            return self.scale(other)
        return NotImplemented

    def substitute_phi_zero(self):
        return PDOSeries(
            {k: p.substitute_phi_zero() for k, p in self.terms.items()}, self.floor, self.exact
        )

    def substitute(self, w=None, q=None):
        return PDOSeries({k: p.substitute(w=w, q=q) for k, p in self.terms.items()}, self.floor, self.exact)

    def is_zero_through_floor(self) -> bool:
        return not self.terms

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


def _flatten(polys) -> tuple[int, list[dict]]:
    """Flat forms of coefficients: integer numerators over one common denominator.

    Each coefficient becomes {(x_deg, phi_deg, i, sqrt2, w_half, q_half): int}.
    """
    flats = [
        {xy + key: f for xy, s in poly.terms.items() for key, f in s.terms.items()}
        for poly in polys
    ]
    den = math.lcm(*(f.denominator for flat in flats for f in flat.values()))
    return den, [{k: f.numerator * (den // f.denominator) for k, f in flat.items()} for flat in flats]


def _flat_diff(flat: dict) -> dict:
    """d/dx of a flat coefficient; phi' = -2 x phi - phi^2 keeps it in {x, phi}."""
    out = {}
    for key, n in flat.items():
        a, b, rest = key[0], key[1], key[2:]
        if a:
            k = (a - 1, b) + rest
            out[k] = out.get(k, 0) + n * a
        if b:
            k = (a + 1, b) + rest
            out[k] = out.get(k, 0) - 2 * b * n
            k = (a, b + 1) + rest
            out[k] = out.get(k, 0) - b * n
    return {k: n for k, n in out.items() if n}


def _flat_accumulate(acc: dict, p: dict, q: dict, c: int) -> None:
    """acc += c * p * q on flat coefficients."""
    for k1, n1 in p.items():
        n1 *= c
        for k2, n2 in q.items():
            key, m = _mul_keys(k1, k2)
            acc[key] = acc.get(key, 0) + n1 * n2 * m


def _poly_from_flat(flat: dict, den: int) -> CoeffPoly:
    """CoeffPoly from a flat coefficient over the denominator den, zeros dropped."""
    grouped: dict = {}
    for key, n in flat.items():
        if n:
            grouped.setdefault(key[:2], {})[key[2:]] = Fraction(n, den)
    return CoeffPoly({xy: SymbolicScalar(terms) for xy, terms in grouped.items()})


def series_multiply(a: PDOSeries, b: PDOSeries) -> PDOSeries:
    """Product with d^n f = sum_j C(n, j) f^(j) d^(n-j) for n >= 0 and the
    iterated-antiderivative rule d^{-r} f = sum_j (-1)^j C(j+r-1, j) f^(j) d^{-r-j}."""
    base = min(a.floor, b.floor)
    candidates = [base]
    if not a.exact and b.terms:
        candidates.append(a.floor + max(b.max_order, 0))
    if not b.exact and a.terms:
        candidates.append(b.floor + max(a.max_order, 0))
    out_floor = max(candidates)
    exact = a.exact and b.exact
    # every product term is an integer over a_den * b_den
    a_den, a_flats = _flatten(a.terms.values())
    b_den, b_flats = _flatten(b.terms.values())
    left = list(zip(a.terms, a_flats))
    acc: dict[int, dict] = {}

    for l, q_flat in zip(b.terms, b_flats):
        # derivatives of the right coefficient are shared across all left orders
        derivs = [q_flat]

        def deriv(j):
            while len(derivs) <= j:
                derivs.append(_flat_diff(derivs[-1]))
            return derivs[j]

        for k, p_flat in left:
            if k >= 0:
                for j in range(0, k + 1):
                    dq = deriv(j)
                    if not dq:
                        break
                    order = k - j + l
                    if order < out_floor:
                        continue
                    _flat_accumulate(acc.setdefault(order, {}), p_flat, dq, math.comb(k, j))
            else:
                r = -k
                j = 0
                while True:
                    order = k - j + l
                    if order < out_floor:
                        if deriv(j):
                            exact = False
                        break
                    dq = deriv(j)
                    if not dq:
                        break
                    coeff = (-1) ** j * math.comb(j + r - 1, j)
                    _flat_accumulate(acc.setdefault(order, {}), p_flat, dq, coeff)
                    j += 1
    den = a_den * b_den
    return PDOSeries({k: _poly_from_flat(flat, den) for k, flat in acc.items()}, floor=out_floor, exact=exact)


def compose_dinv_f(f: CoeffPoly, depth: int) -> PDOSeries:
    """d^{-1}(f .) = sum_{n=0}^{depth-1} (-1)^n f^(n) d^{-1-n}."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    terms = {}
    g = f
    for n in range(depth):
        if not g:
            return PDOSeries(terms, floor=-depth, exact=True)
        terms[-1 - n] = g * Fraction((-1) ** n)
        g = g.diff()
    return PDOSeries(terms, floor=-depth, exact=not g)


def commute_dinvr_f(r: int, f: CoeffPoly, depth: int) -> PDOSeries:
    """[d^{-r}, f] = sum_{n>=1} (-1)^n C(n+r-1, n) f^(n) d^{-n-r}.

    The binomial is the one obtained by iterating the antiderivative rule
    (at r = 1 it reduces to that rule exactly).
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    terms = {}
    g = f.diff()
    for n in range(1, depth + 1):
        if not g:
            return PDOSeries(terms, floor=-r - depth, exact=True)
        coeff = Fraction((-1) ** n * math.comb(n + r - 1, n))
        terms[-n - r] = g * coeff
        g = g.diff()
    return PDOSeries(terms, floor=-r - depth, exact=not g)


def _leading_scalar(series: PDOSeries):
    m = series.max_order
    if m is None:
        raise ValueError("series is zero")
    lead = series.terms[m]
    if set(lead.terms) != {(0, 0)}:
        raise ValueError(f"leading coefficient must be scalar, got {lead.render()}")
    return m, lead.terms[(0, 0)]


def _match_orders(residual, x: PDOSeries, shift: int, scale: SymbolicScalar,
                  depth: int, iterations: int, what: str) -> PDOSeries:
    """Refine x order by order until residual(x) vanishes through order depth.

    Each step puts the top residual coefficient, times scale, on x at that
    order minus shift (the order at which it cancels the residual).
    """
    last_top = None
    for _ in range(iterations):
        err = residual(x)
        if not err.terms:
            return x
        e = err.max_order
        if last_top is not None and e >= last_top:
            raise RuntimeError(f"{what} failed to make progress")
        last_top = e
        if e - shift < depth:
            return x
        new_terms = dict(x.terms)
        new_terms[e - shift] = new_terms.get(e - shift, CoeffPoly()) + err.terms[e] * scale
        x = PDOSeries(new_terms, floor=depth, exact=False)
    raise RuntimeError(f"{what} did not converge")


def series_invert(a: PDOSeries, depth: int) -> PDOSeries:
    """B with A B = 1 through the retained orders, by order-by-order matching."""
    m, lead = _leading_scalar(a)
    inv_lead = lead.inverse()
    b = PDOSeries({-m: CoeffPoly.scalar(inv_lead)}, floor=depth, exact=False)
    one = PDOSeries.one(floor=depth)
    return _match_orders(lambda x: one - series_multiply(a, x), b, m, inv_lead,
                         depth, 4 * (abs(m) + abs(depth)) + 16, "inversion")


def series_sqrt(a: PDOSeries, depth: int) -> PDOSeries:
    """Q with Q Q = A through the retained orders; branch from the exact
    scalar square root of the leading coefficient."""
    m2, lead = _leading_scalar(a)
    if m2 % 2:
        raise ValueError(f"leading order {m2} is odd; no series square root")
    m = m2 // 2
    q0 = lead.sqrt()
    q = PDOSeries({m: CoeffPoly.scalar(q0)}, floor=depth, exact=False)
    return _match_orders(lambda x: a - series_multiply(x, x), q, m, (q0 * 2).inverse(),
                         depth, 4 * (abs(m2) + abs(depth)) + 16, "square root")


def d_power(order: int, floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    return PDOSeries.monomial(order, _P_ONE, floor=floor)


def a_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """a = (x + d)/sqrt2."""
    return PDOSeries({0: CoeffPoly.x(), 1: _P_ONE}, floor=floor, exact=True).scale(_S_INV_SQRT2)


def a_dagger_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """a^dagger = (x - d)/sqrt2."""
    return PDOSeries({0: CoeffPoly.x(), 1: -_P_ONE}, floor=floor, exact=True).scale(_S_INV_SQRT2)


def b_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """b = (x + d + phi)/sqrt2."""
    return PDOSeries(
        {0: CoeffPoly.x() + CoeffPoly.phi(), 1: _P_ONE}, floor=floor, exact=True
    ).scale(_S_INV_SQRT2)


def b_dagger_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """b^dagger = (x - d + phi)/sqrt2."""
    return PDOSeries(
        {0: CoeffPoly.x() + CoeffPoly.phi(), 1: -_P_ONE}, floor=floor, exact=True
    ).scale(_S_INV_SQRT2)


def h_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """H = (x^2 - d^2 - 1)/2."""
    return PDOSeries(
        {0: CoeffPoly.x(2) - _P_ONE, 2: -_P_ONE}, floor=floor, exact=True
    ).scale(_S_HALF)


def inv_sqrt_one_plus_h(depth: int = DEFAULT_DEPTH):
    """(1 + H)^{-1/2} = -sqrt2 i (d^2 - x^2 - 1)^{-1/2}.

    Returns (prefactor, bracket) with bracket = d^{-1} + (1/2)(1+x^2) d^{-3}
    - (3/2) x d^{-4} + ...; the product prefactor*bracket is the operator.
    """
    floor = -abs(depth)
    core = PDOSeries({2: _P_ONE, 0: -(CoeffPoly.x(2) + _P_ONE)}, floor=floor - 2, exact=True)
    bracket = series_sqrt(series_invert(core, floor - 1), floor)
    prefactor = SymbolicScalar({(1, 1, 0, 0): Fraction(-1)})  # -sqrt2 i
    return prefactor, bracket


def _w_scalar(w):
    if w is None:
        return SymbolicScalar.w_power(2)
    return SymbolicScalar.rational(Fraction(w))


def expand_ladder_case_ii(w=None, depth: int = DEFAULT_DEPTH):
    """Symbolic expansions of the distorted-algebra ladder pair (w_1 = w, rest 1).

    Composes b^dagger f(H) a b and its conjugate with
    f(H) = (H+1)^{-1} ((H+w)(H+2)^{-1})^{1/2}; w may be left symbolic (None)
    or bound to an exact rational.  Returns (lowering, raising) series valid
    through at least order -depth.
    """
    if depth < 4:
        raise ValueError("depth < 4 cannot reach the d^{-2} reference terms")
    floor = -(abs(depth) + 6)
    ws = _w_scalar(w)
    x2 = CoeffPoly.x(2)
    h_plus_1 = PDOSeries({0: x2 + _P_ONE, 2: -_P_ONE}, floor=floor, exact=True).scale(_S_HALF)
    h_plus_2 = PDOSeries({0: x2 + _P_ONE * 3, 2: -_P_ONE}, floor=floor, exact=True).scale(_S_HALF)
    h_plus_w = (
        PDOSeries({0: x2 - _P_ONE, 2: -_P_ONE}, floor=floor, exact=True).scale(_S_HALF)
        + PDOSeries({0: CoeffPoly.scalar(ws)}, floor=floor, exact=True)
    )
    inv_h1 = series_invert(h_plus_1, floor)
    ratio = series_multiply(h_plus_w, series_invert(h_plus_2, floor))
    f_of_h = series_multiply(inv_h1, series_sqrt(ratio, floor))

    lowering = b_dagger_series(floor) * (f_of_h * (a_series(floor) * b_series(floor)))
    raising = b_dagger_series(floor) * (a_dagger_series(floor) * (f_of_h * b_series(floor)))
    return lowering, raising


def case_ii_reference(w=None, depth: int = 2):
    """Hand-derived reference expansions for the distorted algebra through d^{-2}.

    sqrt2 a1 = x + d - (w - 2 - phi') d^{-1} + [x(2-w) + phi phi' + x phi' + 2 phi] d^{-2}
    sqrt2 a1+ = x - d + (w - 2 - phi') d^{-1} + [x(2-w) - x phi' - phi phi'] d^{-2}
    with phi' = -2 x phi - phi^2 substituted everywhere.
    """
    ws = _w_scalar(w)
    x = CoeffPoly.x()
    phi = CoeffPoly.phi()
    two = _P_ONE * 2
    phi_prime = x * phi * Fraction(-2) + CoeffPoly.phi(2) * Fraction(-1)
    w_poly = CoeffPoly.scalar(ws)

    coeff_m1_low = -(w_poly - two - phi_prime)
    coeff_m2_low = x * (two - w_poly) + phi * phi_prime + x * phi_prime + phi * 2
    coeff_m1_up = w_poly - two - phi_prime
    coeff_m2_up = x * (two - w_poly) - x * phi_prime - phi * phi_prime

    floor = -abs(depth)
    lowering = PDOSeries({1: _P_ONE, 0: x, -1: coeff_m1_low, -2: coeff_m2_low}, floor=floor).scale(
        _S_INV_SQRT2
    )
    raising = PDOSeries({1: -_P_ONE, 0: x, -1: coeff_m1_up, -2: coeff_m2_up}, floor=floor).scale(
        _S_INV_SQRT2
    )
    return lowering, raising


def series_agree_through(a: PDOSeries, b: PDOSeries, lowest_order: int) -> bool:
    for k in range(max(
        a.max_order if a.terms else lowest_order,
        b.max_order if b.terms else lowest_order,
    ), lowest_order - 1, -1):
        if a.coefficient(k) != b.coefficient(k):
            return False
    return True


def product_identities(w=None, depth: int = DEFAULT_DEPTH) -> dict:
    """Check a1 a1+ = (1/2)(-d^2 + x^2 + 2w - 3) - phi' and the conjugate-order
    identity with 2w - 5 (the latter holds on the theta_n, n >= 2 subspace).

    Returns residual series and booleans, plus the lowering and raising
    series the products were built from; residuals should vanish through
    every order the products are valid at.
    """
    lowering, raising = expand_ladder_case_ii(w=w, depth=depth)
    ws = _w_scalar(w)
    x2 = CoeffPoly.x(2)
    phi_prime = CoeffPoly.x() * CoeffPoly.phi() * Fraction(-2) + CoeffPoly.phi(2) * Fraction(-1)

    def target(shift):
        const = CoeffPoly.scalar(ws) * 2 + _P_ONE * shift
        return PDOSeries(
            {2: -_P_ONE * Fraction(1, 2), 0: (x2 + const) * Fraction(1, 2) - phi_prime},
            floor=-(abs(depth) + 6),
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


def classical_limit_check(depth: int = DEFAULT_DEPTH) -> dict:
    """phi -> 0 degenerations: b becomes a, b+ b becomes H, and the w = 1
    case-ii expansion loses all phi-bearing terms."""
    b = b_series()
    a = a_series()
    b_to_a = (b.substitute_phi_zero() - a)
    h_from_b = series_multiply(b_dagger_series(-8), b_series(-8))
    h_target = h_series(-8) + PDOSeries(
        {0: CoeffPoly.x() * CoeffPoly.phi() * 2 + CoeffPoly.phi(2)}, floor=-8, exact=True
    )
    bb_residual = h_from_b - h_target
    lowering, _ = expand_ladder_case_ii(w=Fraction(1), depth=depth)
    osc = lowering.substitute_phi_zero()
    return {
        "b_phi0_equals_a": not b_to_a.terms,
        "bdag_b_equals_h_minus_phiprime": not bb_residual.terms,
        "case_ii_w1_phi0": osc,
        "case_ii_w1_phi0_text": osc.render(),
    }
