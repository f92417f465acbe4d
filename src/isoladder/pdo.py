"""Formal pseudo-differential operator calculus.

Finite sums sum_k p_k(x, phi) d^k with integer orders k_max >= k >= floor,
where d^{-1} is the antiderivative with d^{-1}(f .) = sum (-1)^n f^(n) d^{-1-n}.
Coefficients are polynomials in the two generators x and phi over the exact
field of rationals extended by i, sqrt2 and half-powers of the symbol w;
differentiation reduces phi' through the Riccati relation
phi' = -2 x phi - phi^2, so no symbol beyond {x, phi} ever appears.

One coefficient type, CoeffPoly, holds parity blocks: for each pair of i and
sqrt2 parities, a dict from packed monomials to integer numerators, all over one
common denominator.  A monomial x^a phi^b w^(h/2) is one int whose fields add
when monomials multiply, so a product settles i^2 = -1 and sqrt2^2 = 2 once per
pair of blocks and then runs on int adds and multiplies alone; a derivative
steps the packed key.  A scalar is a CoeffPoly whose monomials have x and phi
degree 0.

Every series carries a floor (orders below it are dropped) and an exactness
flag; multiplication, inversion and square root compute the floor through
which their result is valid given the operands' dropped tails, so "residual
is identically zero through retained orders" is an honest statement.

series_multiply applies one Leibniz rule, d^k f = sum_j C(k, j) f^(j) d^(k-j)
with the generalized binomial C(k, j), for every integer order k.  It scales
each operand's coefficients to one common denominator, so its Leibniz sums
run on integers only.  series_invert and series_sqrt add one term per step
and update their residual by that term's product alone, not by recomputing
it from the whole series.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["DEFAULT_DEPTH", "CoeffPoly", "PDOSeries", "series_multiply", "series_invert", "series_sqrt",
           "a_series", "a_dagger_series", "b_series", "b_dagger_series", "h_series", "inv_sqrt_one_plus_h",
           "inv_sqrt_bracket_checks", "expand_ladder_case_ii", "case_ii_reference", "series_agree_through",
           "ladder_reference_checks", "product_identities", "classical_limit_check"]

DEFAULT_DEPTH = 6  # the case-ii pair and its products are valid through d^-DEFAULT_DEPTH
_CASE_II_FLOOR = -(DEFAULT_DEPTH + 6)  # the floor they are built at
_BRACKET_FLOOR = -(DEFAULT_DEPTH + 2)  # the (1 + H)^{-1/2} bracket and b+ b = H - phi' hold through it

# A monomial x^a phi^b w^(h/2) packs into one int: a in bits 0-9, b in bits 10-19, h + 256 in
# bits 20-29, so monomials multiply by adding their ints less _ONE_KEY, the packed 1.  Every
# stored field is below 512: a sum of two never carries, and a product or derivative whose
# field leaves that range sets the field's top bit (_OVER) or makes the int negative.
_F = 10
_MASK, _W_BIAS = (1 << _F) - 1, 1 << (_F - 2)
_ONE_KEY = _W_BIAS << 2 * _F
_OVER = (1 << (_F - 1)) * (1 + (1 << _F) + (1 << 2 * _F))
_RANGE = f"x and phi degrees below {1 << (_F - 1)} and w half-powers in [-{_W_BIAS}, {_W_BIAS})"


def _checked(blocks: dict) -> dict:
    """blocks, unless a product or derivative pushed a packed monomial out of its fields."""
    if any(k < 0 or k & _OVER for blk in blocks.values() for k in blk):
        raise ValueError(f"a monomial left its packed fields: {_RANGE}")
    return blocks


def _nonzero(blocks: dict) -> dict:
    return {ir: nz for ir, blk in blocks.items() if (nz := {k: v for k, v in blk.items() if v})}


def _accumulate(acc: dict, p: dict, q: dict, c) -> None:
    """acc += c * p * q on parity blocks: i^2 = -1 and sqrt2^2 = 2 are settled once per
    block pair, and two packed monomials multiply by one int add."""
    for (i1, r1), pb in p.items():
        for (i2, r2), qb in q.items():
            s = -c if i1 & i2 else c
            if r1 & r2:
                s *= 2
            out = acc.setdefault((i1 ^ i2, r1 ^ r2), {})
            get = out.get
            for k1, n1 in pb.items():
                n1 *= s
                k1 -= _ONE_KEY
                for k2, n2 in qb.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + n1 * n2


def _diff(blocks: dict) -> dict:
    """d/dx of parity blocks, with the Riccati reduction phi' = -2 x phi - phi^2, by stepping the packed keys."""
    out = {}
    for ir, blk in blocks.items():
        o = out[ir] = {}
        for k, n in blk.items():
            a, b = k & _MASK, k >> _F & _MASK
            if a:
                o[k - 1] = o.get(k - 1, 0) + n * a
            if b:
                o[k + 1] = o.get(k + 1, 0) - 2 * b * n
                k += 1 << _F
                o[k] = o.get(k, 0) - b * n
    return _checked(_nonzero(out))


class CoeffPoly:
    """Polynomial in x and phi over Q(i, sqrt2, w^(1/2)).

    blocks maps the parities (i, sqrt2) to {packed x^a phi^b w^(h/2): integer
    numerator}, all over the positive integer den and in lowest terms, so equal
    polynomials store equal fields; zero numerators and empty blocks are never
    stored.  terms is the same polynomial as {(x_deg, phi_deg, i, sqrt2, w_half):
    Fraction}, the term value * x^x_deg * phi^phi_deg * i^i * sqrt2^sqrt2 *
    w^(w_half/2); the constructor reads that form.
    """

    __slots__ = ("blocks", "den")

    def __init__(self, terms=None):
        terms = {key: Fraction(v) for key, v in (terms or {}).items() if v}
        self.den, self.blocks = math.lcm(*(v.denominator for v in terms.values())), {}
        for (a, b, i, r, h), v in terms.items():
            if not (0 <= a < 1 << (_F - 1) and 0 <= b < 1 << (_F - 1) and -_W_BIAS <= h < _W_BIAS):
                raise ValueError(f"x^{a} phi^{b} w^({h}/2) does not fit a packed monomial: {_RANGE}")
            key = a + (b << _F) + ((h + _W_BIAS) << 2 * _F)
            self.blocks.setdefault((i, r), {})[key] = v.numerator * (self.den // v.denominator)

    @classmethod
    def _of(cls, blocks: dict, den: int) -> "CoeffPoly":
        """The polynomial blocks / den, put in lowest terms with zeros and empty blocks dropped."""
        p = cls.__new__(cls)
        p.blocks = _nonzero(blocks)
        g = math.gcd(den, *(v for blk in p.blocks.values() for v in blk.values()))
        if g > 1:
            p.blocks = {ir: {k: v // g for k, v in blk.items()} for ir, blk in p.blocks.items()}
        p.den = den // g
        return p

    @property
    def terms(self) -> dict:
        return {(k & _MASK, k >> _F & _MASK, i, r, (k >> 2 * _F) - _W_BIAS): Fraction(v, self.den)
                for (i, r), blk in self.blocks.items() for k, v in blk.items()}

    @classmethod
    def rational(cls, p, q=1):
        return cls({(0, 0, 0, 0, 0): Fraction(p, q)})

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
        return bool(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.den == other.den and self.blocks == other.blocks

    def _plus(self, other, negate=False):
        """self + other, or self - other with negate, without copying other first."""
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, -(den // other.den) if negate else den // other.den
        out = {ir: {k: v * mine for k, v in blk.items()} for ir, blk in self.blocks.items()}
        for ir, blk in other.blocks.items():
            o = out.setdefault(ir, {})
            for k, v in blk.items():
                o[k] = o.get(k, 0) + v * theirs
        return CoeffPoly._of(out, den)

    __add__ = _plus

    def __neg__(self):
        return CoeffPoly._of({ir: {k: -v for k, v in blk.items()} for ir, blk in self.blocks.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, negate=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.rational(other)
        elif not isinstance(other, CoeffPoly):
            return NotImplemented
        acc = {}
        _accumulate(acc, self.blocks, other.blocks, 1)
        return CoeffPoly._of(_checked(acc), self.den * other.den)

    __rmul__ = __mul__

    def _single_scalar(self, what: str):
        """(i, sqrt2, w_half, value) of the only term, which must have degree 0."""
        terms = self.terms
        if len(terms) != 1 or next(iter(terms))[:2] != (0, 0):
            raise ValueError(f"can only {what} a single scalar term, got {self.render()}")
        ((_, _, i, r, wh), f), = terms.items()
        return i, r, wh, f

    def inverse(self):
        """Inverse of a single scalar term."""
        i, r, wh, f = self._single_scalar("invert")
        f = 1 / f
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
        i_out, f = int(f < 0), abs(f)
        for r_out, g in ((0, f), (1, f / 2)):
            rn, rd = math.isqrt(g.numerator), math.isqrt(g.denominator)
            if rn * rn == g.numerator and rd * rd == g.denominator:
                return CoeffPoly({(0, 0, i_out, r_out, wh // 2): Fraction(rn, rd)})
        raise ValueError(f"{self.render()} has no exact square root in the field")

    def substitute_phi_zero(self):
        return CoeffPoly._of({ir: {k: v for k, v in blk.items() if not k & _MASK << _F}
                              for ir, blk in self.blocks.items()}, self.den)

    def substitute(self, w):
        """Bind w to an exact rational (integer powers only)."""
        w = Fraction(w)
        out = {}
        for (a, b, i, r, wh), f in self.terms.items():
            if wh % 2:
                raise ValueError("cannot bind w rationally at a half-integer power")
            out[a, b, i, r, 0] = out.get((a, b, i, r, 0), 0) + f * w ** (wh // 2)
        return CoeffPoly(out)

    def render(self) -> str:
        """Monomials sorted by (x-deg, phi-deg), each with its scalar, bracketed
        when it has more than one term."""
        if not self.blocks:
            return "0"
        terms = self.terms
        groups: dict = {}
        for key in sorted(terms):
            i, r, wh = key[2:]
            bits = [str(terms[key])] + ["i"] * i + ["sqrt2"] * r
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
        return PDOSeries({k: p.substitute_phi_zero() for k, p in self.terms.items()}, self.floor, self.exact)

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
    """A sum's floor and flag: an exact operand's terms are whole, so only inexact floors bind."""
    if a.exact and b.exact:
        return min(a.floor, b.floor), True
    return max(s.floor for s in (a, b) if not s.exact), False


def _flatten(polys) -> tuple[int, list[dict]]:
    """The coefficients' blocks as integer numerators over their least common denominator."""
    polys = list(polys)
    den = math.lcm(*(p.den for p in polys))
    return den, [p.blocks if p.den == den else
                 {ir: {k: v * (den // p.den) for k, v in blk.items()} for ir, blk in p.blocks.items()}
                 for p in polys]


def series_multiply(a: PDOSeries, b: PDOSeries) -> PDOSeries:
    """Product with d^n f = sum_j C(n, j) f^(j) d^(n-j), C the generalized binomial."""
    # a dropped term e d^j of a (j < a.floor) times g d^l of b reaches only orders below a.floor + l
    out_floor = max([min(a.floor, b.floor)]
                    + [s.floor + t.max_order for s, t in ((a, b), (b, a)) if not s.exact and t.terms])
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
                derivs.append(_diff(derivs[-1]))
            return derivs[j]

        for k, p_blocks in left:
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
                _accumulate(acc.setdefault(order, {}), p_blocks, dq, c)
                c = c * (k - j) // (j + 1)
                j += 1
    den = a_den * b_den
    out = {k: CoeffPoly._of(_checked(blocks), den) for k, blocks in acc.items()}
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
        t = PDOSeries({e - shift: err.terms[e] * scale}, floor=depth, exact=False)
        err, x = err - correction(x, t), x + t
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
    return PDOSeries({0: CoeffPoly.x() + CoeffPoly.phi(), 1: _P_ONE}, floor=floor, exact=True).scale(_INV_SQRT2)


def b_dagger_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """b^dagger = (x - d + phi)/sqrt2."""
    return PDOSeries({0: CoeffPoly.x() + CoeffPoly.phi(), 1: -_P_ONE}, floor=floor, exact=True).scale(_INV_SQRT2)


def h_series(floor: int = -DEFAULT_DEPTH) -> PDOSeries:
    """H = (x^2 - d^2 - 1)/2."""
    return PDOSeries({0: CoeffPoly.x(2) - _P_ONE, 2: -_P_ONE}, floor=floor, exact=True).scale(Fraction(1, 2))


def inv_sqrt_one_plus_h():
    """(1 + H)^{-1/2} = -sqrt2 i (d^2 - x^2 - 1)^{-1/2}, through d^-8 (_BRACKET_FLOOR).

    Returns (prefactor, bracket, inverse): inverse = (d^2 - x^2 - 1)^{-1}, bracket its
    square root d^{-1} + (1/2)(1+x^2) d^{-3} - (3/2) x d^{-4} + ...; the product
    prefactor*bracket is the operator.
    """
    core = PDOSeries({2: _P_ONE, 0: -(CoeffPoly.x(2) + _P_ONE)}, floor=_BRACKET_FLOOR - 2, exact=True)
    inverse = series_invert(core, _BRACKET_FLOOR - 1)
    bracket = series_sqrt(inverse, _BRACKET_FLOOR)
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
    return CoeffPoly.w_power(2) if w is None else CoeffPoly.rational(Fraction(w))


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
    top = max([lowest_order] + [s.max_order for s in (a, b) if s.terms])
    return all(a.coefficient(k) == b.coefficient(k) for k in range(top, lowest_order - 1, -1))


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
        return PDOSeries({2: -_P_ONE * Fraction(1, 2), 0: (x2 + const) * Fraction(1, 2) - _PHI_PRIME},
                         floor=_CASE_II_FLOOR, exact=True)

    res1 = series_multiply(lowering, raising) - target(-3)
    res2 = series_multiply(raising, lowering) - target(-5)
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
    bb_residual = (series_multiply(b_dagger_series(_BRACKET_FLOOR), b_series(_BRACKET_FLOOR))
                   - h_series(_BRACKET_FLOOR) + PDOSeries({0: _PHI_PRIME}, floor=_BRACKET_FLOOR, exact=True))
    return [("b_phi0_equals_a", not b_to_a.terms), ("bdag_b_equals_h_minus_phiprime", not bb_residual.terms)]
