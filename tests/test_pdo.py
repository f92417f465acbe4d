import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isoladder import pdo
from isoladder.pdo import (
    DEFAULT_DEPTH,
    CoeffPoly,
    PDOSeries,
    a_series,
    b_dagger_series,
    b_series,
    case_ii_reference,
    classical_limit_check,
    expand_ladder_case_ii,
    h_series,
    inv_sqrt_bracket_checks,
    inv_sqrt_one_plus_h,
    product_identities,
    series_agree_through,
    series_invert,
    series_multiply,
    series_sqrt,
)

ONE = CoeffPoly.rational(1)
X = CoeffPoly.x()
PHI = CoeffPoly.phi()
I_UNIT = CoeffPoly({(0, 0, 1, 0, 0): Fraction(1)})


def derivative(p: CoeffPoly) -> CoeffPoly:
    """d/dx with the Riccati reduction phi' = -2 x phi - phi^2: the kernel series_multiply runs."""
    return CoeffPoly._of(pdo._diff(p.blocks), p.den)


# Oracles for the antiderivative rule: series_multiply's Leibniz products are
# checked against these closed forms.
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
        g = derivative(g)
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
    g = derivative(f)
    for n in range(1, depth + 1):
        if not g:
            return PDOSeries(terms, floor=-r - depth, exact=True)
        coeff = Fraction((-1) ** n * math.comb(n + r - 1, n))
        terms[-n - r] = g * coeff
        g = derivative(g)
    return PDOSeries(terms, floor=-r - depth, exact=not g)


class TestSymbolicScalar:
    """Scalar (x- and phi-free) coefficients: i, sqrt2, half-powers of w."""

    def test_i_squares_to_minus_one(self):
        assert I_UNIT * I_UNIT == CoeffPoly.rational(-1)

    def test_sqrt2_squares_to_two(self):
        r = CoeffPoly.sqrt2()
        assert r * r == CoeffPoly.rational(2)

    def test_inverse(self):
        s = CoeffPoly.rational(3, 4) * CoeffPoly.sqrt2() * I_UNIT
        assert s * s.inverse() == CoeffPoly.rational(1)

    def test_sqrt_of_half(self):
        s = CoeffPoly.rational(1, 2)
        root = s.sqrt()
        assert root * root == s

    def test_sqrt_of_negative_uses_i(self):
        root = CoeffPoly.rational(-4).sqrt()
        assert root * root == CoeffPoly.rational(-4)

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(max_denominator=10**6).filter(bool), st.integers(0, 1), st.sampled_from([1, -1]),
           st.integers(-2, 2))
    def test_sqrt_round_trip(self, s, r, sign, w_power):
        # the root of +-s^2 2^r w^w_power is |s| times i (sign < 0), sqrt2 (r = 1) and w^(w_power/2)
        poly = CoeffPoly.rational(sign * s * s * 2**r) * CoeffPoly.w_power(2 * w_power)
        root = poly.sqrt()
        assert root * root == poly
        assert root.terms == {(0, 0, int(sign < 0), r, w_power): abs(s)}

    @pytest.mark.parametrize("value", [Fraction(3), Fraction(3, 2)], ids=["3", "3/2"])
    def test_sqrt_outside_the_field(self, value):
        with pytest.raises(ValueError, match="no exact square root"):
            CoeffPoly.rational(value).sqrt()

    def test_substitute_w(self):
        s = CoeffPoly.w_power(2) * CoeffPoly.rational(3)
        assert s.substitute(w=Fraction(7, 2)) == CoeffPoly.rational(21, 2)

    def test_render_stable(self):
        s = CoeffPoly.rational(-3, 2) * CoeffPoly.w_power(1)
        assert s.render() == "-3/2*w^(1/2)"

    @pytest.mark.parametrize("poly", [X, ONE + X, ONE + CoeffPoly.sqrt2(), ONE * 0],
                             ids=["x", "1+x", "1+sqrt2", "zero"])
    def test_inverse_and_sqrt_need_one_scalar_term(self, poly):
        with pytest.raises(ValueError):
            poly.inverse()
        with pytest.raises(ValueError):
            poly.sqrt()


class TestKeyProduct:
    """CoeffPoly's product on single terms: degrees and w half-powers add, i^2 = -1, sqrt2^2 = 2."""

    @pytest.mark.parametrize("left, right, product", [
        ((0, 0, 1, 0, 0), (0, 0, 1, 0, 0), {(0, 0, 0, 0, 0): -1}),  # i i = -1
        ((0, 0, 0, 1, 0), (0, 0, 0, 1, 0), {(0, 0, 0, 0, 0): 2}),  # sqrt2 sqrt2 = 2
        ((0, 0, 1, 1, 0), (0, 0, 1, 1, 0), {(0, 0, 0, 0, 0): -2}),  # (i sqrt2)(i sqrt2) = -2
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), {(0, 0, 1, 1, 0): 1}),  # i sqrt2
        ((0, 0, 1, 0, 0), (0, 0, 1, 1, 0), {(0, 0, 0, 1, 0): -1}),  # i (i sqrt2) = -sqrt2
        ((0, 0, 0, 1, 0), (0, 0, 1, 1, 0), {(0, 0, 1, 0, 0): 2}),  # sqrt2 (i sqrt2) = 2 i
        ((1, 0, 1, 0, 1), (0, 1, 1, 1, 2), {(1, 1, 0, 1, 3): -1}),  # (x i w^1/2)(phi i sqrt2 w) = -sqrt2 x phi w^3/2
        ((2, 1, 0, 1, -1), (1, 3, 1, 1, 1), {(3, 4, 1, 0, 0): 2}),  # (x^2 phi sqrt2 w^-1/2)(x phi^3 i sqrt2 w^1/2)
    ], ids=["i*i", "sqrt2*sqrt2", "isqrt2*isqrt2", "i*sqrt2", "i*isqrt2", "sqrt2*isqrt2", "mixed", "mixed2"])
    def test_parity_table(self, left, right, product):
        a, b = CoeffPoly({left: Fraction(3, 2)}), CoeffPoly({right: Fraction(-2, 5)})
        scale = Fraction(3, 2) * Fraction(-2, 5)
        want = CoeffPoly({k: v * scale for k, v in product.items()})
        assert a * b == want
        assert b * a == want

    def test_terms_that_meet_add_and_cancel(self):
        # (1 + i)(1 - i) = 1 - i^2 = 2: the i terms cancel and no zero is stored
        one_plus_i, one_minus_i = ONE + I_UNIT, ONE - I_UNIT
        assert (one_plus_i * one_minus_i).terms == {(0, 0, 0, 0, 0): 2}
        # (sqrt2 + i)^2 = 2 + 2 i sqrt2 - 1
        s = CoeffPoly.sqrt2() + I_UNIT
        assert (s * s).terms == {(0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0): 2}


class TestCoeffPoly:
    def test_riccati_derivative_of_phi(self):
        # phi' = -2 x phi - phi^2
        assert derivative(PHI) == X * PHI * Fraction(-2) + CoeffPoly.phi(2) * Fraction(-1)

    def test_derivative_never_leaves_x_phi(self):
        p = X * PHI + CoeffPoly.phi(3) + CoeffPoly.x(2)
        for _ in range(6):
            p = derivative(p)
            assert all(len(key) == 5 and key[0] >= 0 and key[1] >= 0 for key in p.terms)

    def test_product(self):
        assert (X + PHI) * (X - PHI) == CoeffPoly.x(2) - CoeffPoly.phi(2)

    def test_phi_substitution(self):
        p = X * PHI * Fraction(3) + CoeffPoly.x(2)
        assert p.substitute_phi_zero() == CoeffPoly.x(2)


class TestAntiderivativeRules:
    def test_dinv_of_x(self):
        out = compose_dinv_f(X, 4)
        assert out.coefficient(-1) == X
        assert out.coefficient(-2) == -ONE
        assert not out.coefficient(-3)
        assert out.exact

    def test_dinv_of_one(self):
        out = compose_dinv_f(ONE, 4)
        assert out.coefficient(-1) == ONE
        assert not out.coefficient(-2)

    def test_dinv_of_phi_uses_riccati(self):
        out = compose_dinv_f(PHI, 3)
        assert out.coefficient(-1) == PHI
        assert out.coefficient(-2) == -derivative(PHI)
        assert out.coefficient(-3) == derivative(derivative(PHI))

    def test_commutator_r1_x(self):
        out = commute_dinvr_f(1, X, 4)
        assert out.coefficient(-2) == -ONE
        assert not out.coefficient(-3)

    def test_commutator_r2_x(self):
        out = commute_dinvr_f(2, X, 4)
        assert out.coefficient(-3) == ONE * Fraction(-2)

    def test_commutator_r2_x_squared(self):
        out = commute_dinvr_f(2, CoeffPoly.x(2), 4)
        assert out.coefficient(-3) == X * Fraction(-4)
        assert out.coefficient(-4) == ONE * Fraction(6)

    @pytest.mark.parametrize("poly", [X, CoeffPoly.x(2), PHI, X * PHI], ids=["x", "x^2", "phi", "x*phi"])
    def test_commutator_matches_operational_definition(self, poly):
        # [d^{-1}, f] from the closed rule vs d^{-1} f - f d^{-1} via compose
        depth = 8
        closed = commute_dinvr_f(1, poly, depth)
        f_series = PDOSeries({0: poly}, floor=-depth - 1, exact=True)
        dinv = PDOSeries({-1: ONE}, floor=-depth - 1, exact=True)
        operational = compose_dinv_f(poly, depth + 1) - series_multiply(f_series, dinv)
        assert series_agree_through(closed, operational, -depth)

    @pytest.mark.parametrize("poly", [X, CoeffPoly.x(2), PHI, X * PHI], ids=["x", "x^2", "phi", "x*phi"])
    def test_commutator_r2_matches_iterated_route(self, poly):
        depth = 7
        closed = commute_dinvr_f(2, poly, depth)
        f_series = PDOSeries({0: poly}, floor=-depth - 2, exact=True)
        dinv = PDOSeries({-1: ONE}, floor=-depth - 2, exact=True)
        dinv2 = series_multiply(dinv, dinv)
        operational = series_multiply(dinv2, f_series) - series_multiply(f_series, dinv2)
        assert series_agree_through(closed, operational, -depth)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("poly", [X, CoeffPoly.x(2), PHI, X * PHI], ids=["x", "x^2", "phi", "x*phi"])
    def test_commutator_matches_leibniz_product(self, poly, r):
        # [d^{-r}, f] = d^{-r} f - f d^{-r}, the first product by series_multiply's Leibniz rule
        depth = 6
        closed = commute_dinvr_f(r, poly, depth)
        floor = closed.floor
        operational = (series_multiply(PDOSeries({-r: ONE}, floor=floor, exact=True),
                                       PDOSeries({0: poly}, floor=floor, exact=True))
                       - PDOSeries({-r: poly}, floor=floor, exact=True))
        assert (operational.floor, operational.exact) == (floor, closed.exact)
        assert series_agree_through(closed, operational, floor)


class TestSeriesArithmetic:
    def test_d_times_dinv(self):
        out = series_multiply(PDOSeries({1: ONE}, floor=-8, exact=True),
                              PDOSeries({-1: ONE}, floor=-8, exact=True))
        assert out.coefficient(0) == ONE
        assert len(out.terms) == 1

    def test_oscillator_factorization(self):
        lhs = series_multiply(
            PDOSeries({0: X, 1: ONE}, -8, True), PDOSeries({0: X, 1: -ONE}, -8, True)
        )
        assert lhs.coefficient(2) == -ONE
        assert lhs.coefficient(0) == CoeffPoly.x(2) + ONE
        assert not lhs.coefficient(1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_associativity(self, seed):
        import random

        rng = random.Random(seed)
        atoms = [PDOSeries({k: p}, floor=-7, exact=True)
                 for k, p in ((1, ONE), (-1, ONE), (0, X), (0, PHI), (-2, X * PHI))]
        a, b, c = (rng.choice(atoms) for _ in range(3))
        left = series_multiply(series_multiply(a, b), c)
        right = series_multiply(a, series_multiply(b, c))
        floor = max(left.floor, right.floor)
        assert series_agree_through(left, right, floor)

    def test_invert_d_squared(self):
        out = series_invert(PDOSeries({2: ONE}, floor=-8, exact=True), -8)
        assert out.coefficient(-2) == ONE
        assert len(out.terms) == 1

    def test_invert_oscillator_core(self):
        core = PDOSeries({2: ONE, 0: -(CoeffPoly.x(2) + ONE)}, -10, True)
        inv = series_invert(core, -10)
        assert inv.coefficient(-2) == ONE
        assert inv.coefficient(-4) == CoeffPoly.x(2) + ONE
        assert inv.coefficient(-5) == X * Fraction(-4)
        back = series_multiply(core, inv) - PDOSeries.one(-10)
        assert not back.terms

    def test_invert_order_zero_geometric(self):
        series = PDOSeries({0: ONE, -1: X * Fraction(-1)}, -8, True)
        inv = series_invert(series, -8)
        back = series_multiply(series, inv) - PDOSeries.one(-8)
        assert not back.terms

    def test_sqrt_of_one(self):
        out = series_sqrt(PDOSeries.one(-6), -6)
        assert out.coefficient(0) == ONE
        assert len(out.terms) == 1

    def test_sqrt_multiply_back(self):
        core = PDOSeries({2: ONE, 0: -(CoeffPoly.x(2) + ONE)}, -12, True)
        inv = series_invert(core, -12)
        q = series_sqrt(inv, -10)
        back = series_multiply(q, q) - inv
        assert not back.terms


# The order matching before residual updating: the residual is recomputed in
# full from x at every step.  series_invert and series_sqrt must agree with it.
def _full_recompute_match(residual, x, shift, scale, depth, iterations):
    last_top = None
    for _ in range(iterations):
        err = residual(x)
        if not err.terms:
            return x
        e = err.max_order
        assert last_top is None or e < last_top
        last_top = e
        if e - shift < depth:
            return x
        new_terms = dict(x.terms)
        new_terms[e - shift] = new_terms.get(e - shift, CoeffPoly()) + err.terms[e] * scale
        x = PDOSeries(new_terms, floor=depth, exact=False)
    raise RuntimeError("did not converge")


def full_recompute_invert(a: PDOSeries, depth: int) -> PDOSeries:
    m = a.max_order
    inv_lead = a.terms[m].inverse()
    one = PDOSeries.one(floor=depth)
    return _full_recompute_match(lambda x: one - series_multiply(a, x),
                                 PDOSeries({-m: inv_lead}, floor=depth, exact=False), m, inv_lead,
                                 depth, 4 * (abs(m) + abs(depth)) + 16)


def full_recompute_sqrt(a: PDOSeries, depth: int) -> PDOSeries:
    m = a.max_order // 2
    q0 = a.terms[2 * m].sqrt()
    return _full_recompute_match(lambda x: a - series_multiply(x, x),
                                 PDOSeries({m: q0}, floor=depth, exact=False), m, (q0 * 2).inverse(),
                                 depth, 4 * (abs(2 * m) + abs(depth)) + 16)


CASE_II_FLOOR = -(DEFAULT_DEPTH + 6)  # the floor expand_ladder_case_ii builds at


def _h_plus(c, floor=CASE_II_FLOOR):
    return h_series(floor) + PDOSeries({0: c}, floor=floor, exact=True)


def _case_ii_ratio(w, floor=CASE_II_FLOOR):
    """(H+w)(H+2)^{-1} as expand_ladder_case_ii builds it at floor; w None is symbolic."""
    ws = CoeffPoly.w_power(2) if w is None else CoeffPoly.rational(w)
    return series_multiply(_h_plus(ws, floor), series_invert(_h_plus(2, floor), floor))


class TestResidualUpdating:
    """series_invert and series_sqrt, which update their residual by each step's
    one-term correction, against the full-recompute oracle: same text, floor and flag."""

    @staticmethod
    def _same(got, want):
        assert got.render() == want.render()
        assert (got.floor, got.exact) == (want.floor, want.exact)
        assert got.terms == want.terms

    def test_inv_sqrt_core(self):
        core = PDOSeries({2: ONE, 0: -(CoeffPoly.x(2) + ONE)}, floor=-10, exact=True)
        inverse = series_invert(core, -9)
        self._same(inverse, full_recompute_invert(core, -9))
        self._same(series_sqrt(inverse, -8), full_recompute_sqrt(inverse, -8))

    @pytest.mark.parametrize("c", [1, 2])
    def test_h_plus_c(self, c):
        a = _h_plus(c)
        self._same(series_invert(a, CASE_II_FLOOR), full_recompute_invert(a, CASE_II_FLOOR))

    @pytest.mark.parametrize("w", [None, Fraction(7, 4), Fraction(3)], ids=["symbolic", "7/4", "3"])
    def test_case_ii_ratio(self, w):
        ratio = _case_ii_ratio(w)
        # the ratio is inexact at floor -10 and of order 0, so its root is valid through -10 only:
        # the oracle is asked for that depth, and series_sqrt raises the -12 asked of it to it
        assert (ratio.floor, ratio.max_order, ratio.exact) == (-10, 0, False)
        self._same(series_sqrt(ratio, CASE_II_FLOOR), full_recompute_sqrt(ratio, ratio.floor))

    def test_order_zero_geometric(self):
        a = PDOSeries({0: ONE, -1: X * Fraction(-1), -3: PHI}, -8, True)
        self._same(series_invert(a, -8), full_recompute_invert(a, -8))
        self._same(series_sqrt(a, -8), full_recompute_sqrt(a, -8))


class TestInexactOperandFloors:
    """The root and inverse of an inexact operand claim no order its dropped tail reaches: each
    agrees, through its own floor, with the same operation on the operand built deeper."""

    @pytest.mark.parametrize("w", [None, Fraction(3)], ids=["symbolic", "3"])
    def test_case_ii_ratio(self, w):
        ratio, deeper = _case_ii_ratio(w), _case_ii_ratio(w, -16)
        assert (ratio.floor, deeper.floor) == (-10, -14)
        for root, deep in ((series_sqrt(ratio, CASE_II_FLOOR), series_sqrt(deeper, -16)),
                           (series_invert(ratio, -16), series_invert(deeper, -18))):
            assert (root.floor, deep.floor) == (-10, -14)
            assert series_agree_through(root, deep, root.floor)
            # the orders a floor of -12 would claim hold terms that the -10 operand cannot give
            assert deep.coefficient(-11) and deep.coefficient(-12)


class TestInvSqrtBracket:
    def test_prefactor_and_bracket(self):
        prefactor, bracket, _ = inv_sqrt_one_plus_h()
        assert prefactor == CoeffPoly.rational(-1) * CoeffPoly.sqrt2() * I_UNIT
        assert bracket.coefficient(-1) == ONE
        assert bracket.coefficient(-3) == (CoeffPoly.x(2) + ONE) * Fraction(1, 2)
        assert bracket.coefficient(-4) == X * Fraction(-3, 2)

    def test_squared_prefactor_gives_minus_two(self):
        prefactor, bracket, _ = inv_sqrt_one_plus_h()
        # (1+H)^{-1} = (prefactor^2) (d^2-x^2-1)^{-1} = -2 (d^2-x^2-1)^{-1}
        sq = prefactor * prefactor
        assert sq == CoeffPoly.rational(-2)
        lhs = series_multiply(bracket, bracket).scale(sq)
        one_plus_h = h_series(-10) + PDOSeries.one(-10)
        back = series_multiply(one_plus_h, lhs) - PDOSeries.one(-10)
        assert not back.terms


    def test_inverse_inverts_the_core(self):
        # the inverse returned with the bracket: (d^2 - x^2 - 1) times it is 1 through its floor
        _, _, inverse = inv_sqrt_one_plus_h()
        core = PDOSeries({2: ONE, 0: -(CoeffPoly.x(2) + ONE)}, -10, True)
        assert not (series_multiply(core, inverse) - PDOSeries.one(-10)).terms

    def test_checks_pass_and_include_the_square_back(self):
        _, bracket, inverse = inv_sqrt_one_plus_h()
        assert inv_sqrt_bracket_checks(bracket, inverse) == [
            ("inv_sqrt_bracket_d-3", True),
            ("inv_sqrt_bracket_d-4", True),
            ("inv_sqrt_bracket_square_back", True),
        ]

    def test_square_back_fails_against_another_inverse(self):
        _, bracket, inverse = inv_sqrt_one_plus_h()
        checks = dict(inv_sqrt_bracket_checks(bracket, inverse.scale(Fraction(2))))
        assert checks == {"inv_sqrt_bracket_d-3": True, "inv_sqrt_bracket_d-4": True,
                          "inv_sqrt_bracket_square_back": False}


class TestCaseIIExpansion:
    def test_leading_orders_match_reference(self):
        low, up = expand_ladder_case_ii(w=None)
        ref_low, ref_up = case_ii_reference(w=None)
        assert series_agree_through(low, ref_low, -2)
        assert series_agree_through(up, ref_up, -2)

    @pytest.mark.parametrize("w", [Fraction(1), Fraction(2), Fraction(7, 2)])
    def test_sampled_w(self, w):
        low, up = expand_ladder_case_ii(w=w)
        ref_low, ref_up = case_ii_reference(w=w)
        assert series_agree_through(low, ref_low, -2)
        assert series_agree_through(up, ref_up, -2)

    def test_symbolic_expansion_substitutes_to_sampled(self):
        low_sym, _ = expand_ladder_case_ii(w=None)
        low_num, _ = expand_ladder_case_ii(w=Fraction(2))
        assert series_agree_through(low_sym.substitute(w=Fraction(2)), low_num, -4)


class TestProductIdentities:
    def test_both_products_symbolic(self):
        rep = product_identities(w=None)
        assert rep["a1_a1dag_ok"]
        assert rep["a1dag_a1_ok"]
        assert rep["valid_floor"] <= -2

    def test_sampled_w(self):
        rep = product_identities(w=Fraction(7, 2))
        assert rep["a1_a1dag_ok"] and rep["a1dag_a1_ok"]

    def test_products_against_position_space_matrices(self, basis64):
        # the local operator (1/2)(-d^2 + x^2 + 2w - 5) - phi' must act on
        # theta_n (n >= 2) with eigenvalue n + w - 2, the diagonal of the
        # raising*lowering matrix for the distorted algebra; similarly the
        # 2w - 3 form acts with n + w - 1 on n >= 1
        import numpy as np

        from isoladder.isospectral import theta_curvature_table
        from isoladder.numerics import grid_norm

        w = 0.5
        grid = basis64.grid
        x = grid.points
        curv = theta_curvature_table(basis64)

        def quadratic_action(shift, n):
            return 0.5 * (-curv[n] + (x * x + shift) * basis64.theta[n]) - (
                basis64.phi_prime_values * basis64.theta[n]
            )

        worst = 0.0
        for n in (2, 3, 10, 40):
            resid = grid_norm(quadratic_action(2 * w - 5.0, n) - (n + w - 2.0) * basis64.theta[n], grid)
            worst = max(worst, resid)
        for n in (1, 2, 10, 40):
            resid = grid_norm(quadratic_action(2 * w - 3.0, n) - (n + w - 1.0) * basis64.theta[n], grid)
            worst = max(worst, resid)
        assert worst < 1e-6
        assert np.isfinite(worst)


class TestClassicalLimit:
    def test_report(self):
        assert classical_limit_check() == [("b_phi0_equals_a", True), ("bdag_b_equals_h_minus_phiprime", True)]
        osc = expand_ladder_case_ii(w=Fraction(1))[0].substitute_phi_zero().scale(CoeffPoly.sqrt2())
        # sqrt2 a1 at phi = 0, w = 1: x + d + d^{-1} + x d^{-2} + ...
        assert osc.coefficient(1) == ONE
        assert osc.coefficient(0) == X
        assert osc.coefficient(-1) == ONE
        assert osc.coefficient(-2) == X

    def test_sign_flipped_phi_fails_the_factorization(self, monkeypatch):
        # b = (x + d - phi)/sqrt2 still becomes a at phi = 0, but b+ b is no longer H - phi'
        def flipped(floor=-DEFAULT_DEPTH):
            return PDOSeries({0: X - PHI, 1: ONE}, floor=floor, exact=True).scale(CoeffPoly.sqrt2().inverse())

        monkeypatch.setattr("isoladder.pdo.b_series", flipped)
        assert classical_limit_check() == [("b_phi0_equals_a", True), ("bdag_b_equals_h_minus_phiprime", False)]

    def test_bdagger_b_symbol(self):
        # b+ b = H + 2 x phi + phi^2 exactly (Riccati-reduced -phi')
        prod = series_multiply(b_dagger_series(-8), b_series(-8))
        target = h_series(-8) + PDOSeries(
            {0: X * PHI * Fraction(2) + CoeffPoly.phi(2)}, -8, True
        )
        assert not (prod - target).terms


class TestRendering:
    def test_canonical_text(self):
        series = PDOSeries({1: ONE, 0: X + PHI}, -2, True).scale(
            CoeffPoly({(0, 0, 0, 1, 0): Fraction(1, 2)})
        )
        text = series.render()
        # monomials sorted by (x-degree, phi-degree): (0,1) phi before (1,0) x
        assert text.splitlines() == [
            "d^1: 1/2*sqrt2",
            "d^0: 1/2*sqrt2*phi + 1/2*sqrt2*x",
            "(orders >= -2, exact)",
        ]

    def test_golden_lowering_text(self):
        low, _ = expand_ladder_case_ii(w=Fraction(2))
        top = low.scale(CoeffPoly.sqrt2()).render().splitlines()[:3]
        assert top == ["d^1: 1", "d^0: 1*x", "d^-1: -1*phi^2 + -2*x*phi"]


class TestGoldenText:
    def test_case_ii_expansions(self):
        low, high = expand_ladder_case_ii(w=None)
        assert tuple(low.render().split("\n")) == GOLDEN_LOWERING_W_SYMBOLIC_DEPTH6
        assert tuple(high.render().split("\n")) == GOLDEN_RAISING_W_SYMBOLIC_DEPTH6

    def test_inv_sqrt_bracket(self):
        _, bracket, _ = inv_sqrt_one_plus_h()
        assert tuple(bracket.render().split("\n")) == GOLDEN_INV_SQRT_BRACKET_DEPTH8

    def test_product_identities(self):
        rep = product_identities(w=None)
        assert rep["a1_a1dag_residual"].render() == GOLDEN_PRODUCT_RESIDUAL
        assert rep["a1dag_a1_residual"].render() == GOLDEN_PRODUCT_RESIDUAL
        assert rep["valid_floor"] == GOLDEN_PRODUCT_VALID_FLOOR
        # the pair the products were built from is returned with them
        assert tuple(rep["lowering"].render().split("\n")) == GOLDEN_LOWERING_W_SYMBOLIC_DEPTH6
        assert tuple(rep["raising"].render().split("\n")) == GOLDEN_RAISING_W_SYMBOLIC_DEPTH6


# Small random operands for the multiplication kernel: terms keyed
# (x_deg, phi_deg, i, sqrt2, w_half) mixing x and phi degrees 0-2, i, sqrt2
# and w^(-2/2 .. 3/2).
_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1),
              st.integers(-2, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    min_size=1,
    max_size=4,
).map(CoeffPoly)


def _series(orders, floor=-DEFAULT_DEPTH, exact=True):
    return st.dictionaries(orders, _polys, min_size=1, max_size=3).map(
        lambda terms: PDOSeries(terms, floor=floor, exact=exact)
    )


_exact_series = _series(st.integers(-2, 2))


class TestFlatKernelProperties:
    @settings(max_examples=25, deadline=None)
    @given(_polys, _polys)
    def test_diff_is_a_derivation(self, p, q):
        assert derivative(p * q) == derivative(p) * q + p * derivative(q)

    @settings(max_examples=25, deadline=None)
    @given(_exact_series, _exact_series, _exact_series)
    def test_associativity(self, a, b, c):
        left = series_multiply(series_multiply(a, b), c)
        right = series_multiply(a, series_multiply(b, c))
        assert series_agree_through(left, right, max(left.floor, right.floor))
        if min(min(a.terms), min(b.terms), min(c.terms)) >= 0:
            # differential operators: nothing is dropped, so the products are whole
            assert left.exact and right.exact
            assert left.terms == right.terms

    @settings(max_examples=25, deadline=None)
    @given(_exact_series, st.booleans())
    def test_one_is_two_sided_identity(self, a, exact):
        a = PDOSeries(a.terms, floor=a.floor, exact=exact)
        one = PDOSeries.one(floor=a.floor)
        for prod in (series_multiply(one, a), series_multiply(a, one)):
            assert prod.terms == a.terms
            assert (prod.floor, prod.exact) == (a.floor, a.exact)

    @settings(max_examples=25, deadline=None)
    @given(_exact_series, _exact_series, _exact_series)
    def test_distributes_over_addition(self, a, b, c):
        pairs = (
            (series_multiply(a, b + c), series_multiply(a, b) + series_multiply(a, c)),
            (series_multiply(a + b, c), series_multiply(a, c) + series_multiply(b, c)),
        )
        for lhs, rhs in pairs:
            assert series_agree_through(lhs, rhs, max(lhs.floor, rhs.floor))

    @settings(max_examples=25, deadline=None)
    @given(_series(st.integers(-4, 2)), _series(st.integers(-7, -5)), _exact_series)
    def test_truncated_operand_flags(self, kept, tail, b):
        # `kept` is an operator whose orders below -4 were dropped; `tail` is
        # one possible dropped part.  The product's floor is the documented
        # one, it is never exact, and no retained order depends on the tail.
        trunc = PDOSeries(kept.terms, floor=-4, exact=False)
        whole = PDOSeries({**tail.terms, **kept.terms}, floor=-10, exact=True)
        b_deep = PDOSeries(b.terms, floor=-10, exact=True)
        # a dropped e d^j (j < -4) times g d^l reaches only orders below -4 + l, also for l < 0
        reach = b.max_order
        for prod, full in (
            (series_multiply(trunc, b), series_multiply(whole, b_deep)),
            (series_multiply(b, trunc), series_multiply(b_deep, whole)),
        ):
            assert prod.floor == max(min(trunc.floor, b.floor), trunc.floor + reach)
            assert not prod.exact
            assert series_agree_through(prod, full, prod.floor)

    @settings(max_examples=25, deadline=None)
    @given(_exact_series, _series(st.integers(-4, 2), floor=-4, exact=False))
    def test_subtraction_adds_the_negation(self, a, b):
        texts = a.render(), b.render()
        for x, y in ((a, b), (b, a), (a, a)):
            diff, ref = x - y, x + (-y)
            assert (diff.render(), diff.terms, diff.floor, diff.exact) == (ref.render(), ref.terms,
                                                                           ref.floor, ref.exact)
        assert not (a - a).terms
        assert (a.render(), b.render()) == texts  # the operands are left as they were

    def test_subtraction_builds_no_negated_copy(self, monkeypatch):
        a, b = h_series(-8), b_dagger_series(-8) * b_series(-8)
        want = (a + (-b)).render(), (a.coefficient(0) + (-b.coefficient(0))).render()
        monkeypatch.setattr(CoeffPoly, "__neg__", None)  # -p is now a TypeError
        monkeypatch.setattr(PDOSeries, "__neg__", None)
        assert ((a - b).render(), (a.coefficient(0) - b.coefficient(0)).render()) == want

    def test_symbolic_w_substitutes_to_rational_expansion(self):
        # the w that c07 samples by substituting into the symbolic expansion
        symbolic = expand_ladder_case_ii(w=None)
        for w in (Fraction(1), Fraction(2), Fraction(7, 2)):
            rational = expand_ladder_case_ii(w=w)
            for sym, rat in zip(symbolic, rational):
                bound = sym.substitute(w=w)
                assert (bound.floor, bound.exact) == (rat.floor, rat.exact)
                assert set(bound.terms) == set(rat.terms)
                for k in rat.terms:
                    assert bound.coefficient(k) == rat.coefficient(k)


# The tuple-keyed kernel the packed one replaced, kept as its oracle: terms keyed (x_deg, phi_deg,
# i, sqrt2, w_half), each term product building and hashing one such 5-tuple, values as Fractions.
def tuple_accumulate(acc: dict, p: dict, q: dict, c) -> None:
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


def tuple_diff(terms: dict) -> dict:
    """d/dx with the Riccati reduction phi' = -2 x phi - phi^2."""
    out = {}
    for key, n in terms.items():
        a, b, rest = key[0], key[1], key[2:]
        if a:
            k = (a - 1, b) + rest
            out[k] = out.get(k, 0) + n * a
        if b:
            k = (a + 1, b) + rest
            out[k] = out.get(k, 0) - 2 * b * n
            k = (a, b + 1) + rest
            out[k] = out.get(k, 0) - b * n
    return {k: v for k, v in out.items() if v}


def tuple_series_multiply(a: PDOSeries, b: PDOSeries):
    """({order: terms}, floor, exact) of a b by the Leibniz rule on tuple-keyed terms."""
    candidates = [min(a.floor, b.floor)]
    if not a.exact and b.terms:
        candidates.append(a.floor + b.max_order)
    if not b.exact and a.terms:
        candidates.append(b.floor + a.max_order)
    out_floor, exact, acc = max(candidates), a.exact and b.exact, {}
    for l, q in b.terms.items():
        derivs = [q.terms]
        for k, p in a.terms.items():
            c, j = 1, 0
            while c:
                while len(derivs) <= j:
                    derivs.append(tuple_diff(derivs[-1]))
                if not derivs[j]:
                    break
                if k - j + l < out_floor:
                    exact = False
                    break
                tuple_accumulate(acc.setdefault(k - j + l, {}), p.terms, derivs[j], c)
                c = c * (k - j) // (j + 1)
                j += 1
    terms = {k: {key: v for key, v in t.items() if v} for k, t in acc.items()}
    return {k: t for k, t in terms.items() if t}, out_floor, exact


# operands for the oracle: x and phi degrees 0-3, both parities, w^(-4/2 .. 4/2), denominators to 6
_wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1), st.integers(-4, 4)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    min_size=1,
    max_size=6,
).map(CoeffPoly)


# series of orders -3..2 over those, at floors -6..-3, exact or not
_wide_series = st.tuples(st.dictionaries(st.integers(-3, 2), _wide_polys, min_size=1, max_size=3),
                         st.integers(-6, -3), st.booleans()).map(lambda t: PDOSeries(t[0], floor=t[1], exact=t[2]))


class TestPackedKernelAgainstTupleKernel:
    """The packed parity-block kernel against the tuple-keyed one it replaced, term for term."""

    @settings(max_examples=30, deadline=None)
    @given(_wide_polys, _wide_polys)
    def test_coefficient_product(self, p, q):
        acc = {}
        tuple_accumulate(acc, p.terms, q.terms, 1)
        assert (p * q).terms == {k: v for k, v in acc.items() if v}

    @settings(max_examples=30, deadline=None)
    @given(_wide_polys)
    def test_derivative(self, p):
        for _ in range(3):
            assert derivative(p).terms == tuple_diff(p.terms)
            p = derivative(p)

    @settings(max_examples=20, deadline=None)
    @given(_wide_series, _wide_series)
    def test_series_product(self, a, b):
        prod = series_multiply(a, b)
        assert ({k: p.terms for k, p in prod.terms.items()}, prod.floor, prod.exact) == tuple_series_multiply(a, b)

    def test_case_ii_expansion(self):
        # the products c07 runs: the symbolic-w pair multiplied both ways
        low, high = expand_ladder_case_ii(w=None)
        for a, b in ((low, high), (high, low)):
            prod = series_multiply(a, b)
            assert ({k: p.terms for k, p in prod.terms.items()}, prod.floor, prod.exact) == tuple_series_multiply(a, b)


class TestPackedFields:
    """x and phi degrees below 512 and w half-powers in [-256, 256) fit a packed monomial; anything else is
    refused with ValueError rather than carried into a neighbouring field."""

    @pytest.mark.parametrize("key", [(512, 0, 0, 0, 0), (0, 512, 0, 0, 0), (0, 0, 0, 0, 256), (0, 0, 0, 0, -257),
                                     (-1, 0, 0, 0, 0)], ids=["x^512", "phi^512", "w^(256/2)", "w^(-257/2)", "x^-1"])
    def test_monomial_outside_its_field(self, key):
        with pytest.raises(ValueError, match="does not fit a packed monomial"):
            CoeffPoly({key: Fraction(1)})

    def test_extreme_monomials_fit(self):
        terms = {(511, 511, 1, 1, 255): Fraction(3, 2), (0, 0, 0, 0, -256): Fraction(-1)}
        assert CoeffPoly(terms).terms == terms

    @pytest.mark.parametrize("left, right, inside", [
        ((300, 0, 0, 0, 0), (212, 0, 0, 0, 0), (211, 0, 0, 0, 0)),  # x^512 would read as x^0 phi
        ((0, 300, 0, 0, 0), (1, 212, 0, 0, 0), (1, 211, 0, 0, 0)),  # phi^512 would read as a w half-power
        ((0, 0, 0, 0, 200), (0, 0, 0, 0, 56), (0, 0, 0, 0, 55)),  # w^(256/2)
        ((0, 0, 0, 0, -200), (0, 0, 0, 0, -57), (0, 0, 0, 0, -56)),  # w^(-257/2)
    ], ids=["x", "phi", "w_up", "w_down"])
    def test_product_leaving_a_field(self, left, right, inside):
        p, q = CoeffPoly({left: Fraction(1)}), CoeffPoly({right: Fraction(1)})
        with pytest.raises(ValueError, match="left its packed fields"):
            p * q
        with pytest.raises(ValueError, match="left its packed fields"):
            series_multiply(PDOSeries({0: p}, exact=True), PDOSeries({0: q}, exact=True))
        # one step back inside the field, the product is the monomial whose fields are the sums
        assert (p * CoeffPoly({inside: Fraction(1)})).terms == {tuple(map(sum, zip(left, inside))): 1}

    @pytest.mark.parametrize("poly", [CoeffPoly.phi(511), CoeffPoly.x(511) * PHI], ids=["phi^511", "x^511*phi"])
    def test_derivative_leaving_a_field(self, poly):
        # phi' = -2 x phi - phi^2 raises the phi or the x degree by one
        with pytest.raises(ValueError, match="left its packed fields"):
            derivative(poly)


def test_a_series_against_b_series():
    diff = b_series(-6) - a_series(-6)
    # b - a = phi / sqrt2
    assert diff.coefficient(0) == PHI * CoeffPoly({(0, 0, 0, 1, 0): Fraction(1, 2)})
    assert not diff.coefficient(1)


# Canonical render() text of the depth-6 symbolic-w expansions, the (1+H)^{-1/2}
# bracket and the product-identity residuals, one tuple entry per line.  It was
# captured from the Leibniz-sum implementation that rebuilt immutable scalar
# and polynomial objects on every operation; the integer kernel must reproduce
# it byte for byte.
GOLDEN_LOWERING_W_SYMBOLIC_DEPTH6 = (
    "d^1: 1/2*sqrt2",
    "d^0: 1/2*sqrt2*x",
    "d^-1: (1*sqrt2 + -1/2*sqrt2*w) + -1/2*sqrt2*phi^2 + -1*sqrt2*x*phi",
    "d^-2: 1*sqrt2*phi + -1/2*sqrt2*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x + -3/2*sqrt2*x*phi^2 + -1*sqrt2*x^2*phi",
    "d^-3: (-2*sqrt2 + 3/2*sqrt2*w + -1/4*sqrt2*w^(4/2)) + (5/2*sqrt2 + -1/2*sqrt2*w)*phi^2 + -1*sqrt2*phi^4 + (5*sqrt2 + -1*sqrt2*w)*x*phi + -4*sqrt2*x*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^2 + -9/2*sqrt2*x^2*phi^2 + -1*sqrt2*x^3*phi",
    "d^-4: (-5*sqrt2 + 1*sqrt2*w)*phi + (17/2*sqrt2 + -3/2*sqrt2*w)*phi^3 + -3*sqrt2*phi^5 + (-4*sqrt2 + 5/2*sqrt2*w + -1/4*sqrt2*w^(4/2))*x + (49/2*sqrt2 + -11/2*sqrt2*w)*x*phi^2 + -15*sqrt2*x*phi^4 + (16*sqrt2 + -5*sqrt2*w)*x^2*phi + -49/2*sqrt2*x^2*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^3 + -27/2*sqrt2*x^3*phi^2 + -1*sqrt2*x^4*phi",
    "d^-5: (7*sqrt2 + -13/2*sqrt2*w + 2*sqrt2*w^(4/2) + -1/4*sqrt2*w^(6/2)) + (-65/2*sqrt2 + 11*sqrt2*w + -3/4*sqrt2*w^(4/2))*phi^2 + (38*sqrt2 + -6*sqrt2*w)*phi^4 + -12*sqrt2*phi^6 + (-53*sqrt2 + 22*sqrt2*w + -3/2*sqrt2*w^(4/2))*x*phi + (146*sqrt2 + -28*sqrt2*w)*x*phi^3 + -72*sqrt2*x*phi^5 + (-8*sqrt2 + 5*sqrt2*w + -1/2*sqrt2*w^(4/2))*x^2 + (163*sqrt2 + -41*sqrt2*w)*x^2*phi^2 + -154*sqrt2*x^2*phi^4 + (46*sqrt2 + -18*sqrt2*w)*x^3*phi + -136*sqrt2*x^3*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^4 + -81/2*sqrt2*x^4*phi^2 + -1*sqrt2*x^5*phi",
    "d^-6: (61*sqrt2 + -30*sqrt2*w + 7/2*sqrt2*w^(4/2))*phi + (-437/2*sqrt2 + 65*sqrt2*w + -15/4*sqrt2*w^(4/2))*phi^3 + (210*sqrt2 + -30*sqrt2*w)*phi^5 + -60*sqrt2*phi^7 + (27*sqrt2 + -41/2*sqrt2*w + 4*sqrt2*w^(4/2) + -1/4*sqrt2*w^(6/2))*x + (-1127/2*sqrt2 + 205*sqrt2*w + -49/4*sqrt2*w^(4/2))*x*phi^2 + (1010*sqrt2 + -170*sqrt2*w)*x*phi^4 + -420*sqrt2*x*phi^6 + (-311*sqrt2 + 152*sqrt2*w + -19/2*sqrt2*w^(4/2))*x^2*phi + (1609*sqrt2 + -335*sqrt2*w)*x^2*phi^3 + -1110*sqrt2*x^2*phi^5 + (-12*sqrt2 + 7*sqrt2*w + -1/2*sqrt2*w^(4/2))*x^3 + (923*sqrt2 + -259*sqrt2*w)*x^3*phi^2 + -1350*sqrt2*x^3*phi^4 + (131*sqrt2 + -58*sqrt2*w)*x^4*phi + -1441/2*sqrt2*x^4*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^5 + -243/2*sqrt2*x^5*phi^2 + -1*sqrt2*x^6*phi",
    "d^-7: (-43*sqrt2 + 87/2*sqrt2*w + -65/4*sqrt2*w^(4/2) + 13/4*sqrt2*w^(6/2) + -5/16*sqrt2*w^(8/2)) + (1381/2*sqrt2 + -627/2*sqrt2*w + 149/4*sqrt2*w^(4/2) + -5/4*sqrt2*w^(6/2))*phi^2 + (-1687*sqrt2 + 450*sqrt2*w + -45/2*sqrt2*w^(4/2))*phi^4 + (1380*sqrt2 + -180*sqrt2*w)*phi^6 + -360*sqrt2*phi^8 + (913*sqrt2 + -527*sqrt2*w + 133/2*sqrt2*w^(4/2) + -5/2*sqrt2*w^(6/2))*x*phi + (-5954*sqrt2 + 1870*sqrt2*w + -96*sqrt2*w^(4/2))*x*phi^3 + (7980*sqrt2 + -1200*sqrt2*w)*x*phi^5 + -2880*sqrt2*x*phi^7 + (69*sqrt2 + -99/2*sqrt2*w + 9*sqrt2*w^(4/2) + -3/4*sqrt2*w^(6/2))*x^2 + (-11975/2*sqrt2 + 2331*sqrt2*w + -497/4*sqrt2*w^(4/2))*x^2*phi^2 + (16558*sqrt2 + -2970*sqrt2*w)*x^2*phi^4 + -9060*sqrt2*x^2*phi^6 + (-1491*sqrt2 + 782*sqrt2*w + -89/2*sqrt2*w^(4/2))*x^3*phi + (14550*sqrt2 + -3284*sqrt2*w)*x^3*phi^3 + -14040*sqrt2*x^3*phi^5 + (-18*sqrt2 + 21/2*sqrt2*w + -3/4*sqrt2*w^(4/2))*x^4 + (9635/2*sqrt2 + -2995/2*sqrt2*w)*x^4*phi^2 + -10891*sqrt2*x^4*phi^4 + (379*sqrt2 + -179*sqrt2*w)*x^5*phi + -3724*sqrt2*x^5*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^6 + -729/2*sqrt2*x^6*phi^2 + -1*sqrt2*x^7*phi",
    "d^-8: (-1081*sqrt2 + 719*sqrt2*w + -265/2*sqrt2*w^(4/2) + 17/2*sqrt2*w^(6/2))*phi + (15597/2*sqrt2 + -6181/2*sqrt2*w + 1253/4*sqrt2*w^(4/2) + -35/4*sqrt2*w^(6/2))*phi^3 + (-14721*sqrt2 + 3570*sqrt2*w + -315/2*sqrt2*w^(4/2))*phi^5 + (10500*sqrt2 + -1260*sqrt2*w)*phi^7 + -2520*sqrt2*phi^9 + (-217*sqrt2 + 381/2*sqrt2*w + -221/4*sqrt2*w^(4/2) + 31/4*sqrt2*w^(6/2) + -5/16*sqrt2*w^(8/2))*x + (35069/2*sqrt2 + -16593/2*sqrt2*w + 3533/4*sqrt2*w^(4/2) + -111/4*sqrt2*w^(6/2))*x*phi^2 + (-66073*sqrt2 + 18410*sqrt2*w + -1659/2*sqrt2*w^(4/2))*x*phi^4 + (70980*sqrt2 + -9660*sqrt2*w)*x*phi^6 + -22680*sqrt2*x*phi^8 + (7834*sqrt2 + -4721*sqrt2*w + 548*sqrt2*w^(4/2) + -41/2*sqrt2*w^(6/2))*x^2*phi + (-194207/2*sqrt2 + 32151*sqrt2*w + -5957/4*sqrt2*w^(4/2))*x^2*phi^3 + (181734*sqrt2 + -28770*sqrt2*w)*x^2*phi^5 + -82740*sqrt2*x^2*phi^7 + (153*sqrt2 + -207/2*sqrt2*w + 15*sqrt2*w^(4/2) + -3/4*sqrt2*w^(6/2))*x^3 + (-101289/2*sqrt2 + 20965*sqrt2*w + -4043/4*sqrt2*w^(4/2))*x^3*phi^2 + (216650*sqrt2 + -41398*sqrt2*w)*x^3*phi^4 + -155820*sqrt2*x^3*phi^6 + (-6466*sqrt2 + 3489*sqrt2*w + -361/2*sqrt2*w^(4/2))*x^4*phi + (235939/2*sqrt2 + -57617/2*sqrt2*w)*x^4*phi^3 + -159033*sqrt2*x^4*phi^5 + (-24*sqrt2 + 27/2*sqrt2*w + -3/4*sqrt2*w^(4/2))*x^5 + (48175/2*sqrt2 + -16433/2*sqrt2*w)*x^5*phi^2 + -83685*sqrt2*x^5*phi^4 + (1114*sqrt2 + -543*sqrt2*w)*x^6*phi + -37969/2*sqrt2*x^6*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^7 + -2187/2*sqrt2*x^7*phi^2 + -1*sqrt2*x^8*phi",
    "d^-9: (331*sqrt2 + -739/2*sqrt2*w + 163*sqrt2*w^(4/2) + -40*sqrt2*w^(6/2) + 45/8*sqrt2*w^(8/2) + -7/16*sqrt2*w^(10/2)) + (-41371/2*sqrt2 + 11398*sqrt2*w + -1802*sqrt2*w^(4/2) + 110*sqrt2*w^(6/2) + -35/16*sqrt2*w^(8/2))*phi^2 + (93052*sqrt2 + -33012*sqrt2*w + 2926*sqrt2*w^(4/2) + -70*sqrt2*w^(6/2))*phi^4 + (-143304*sqrt2 + 31920*sqrt2*w + -1260*sqrt2*w^(4/2))*phi^6 + (90720*sqrt2 + -10080*sqrt2*w)*phi^8 + -20160*sqrt2*phi^10 + (-21539*sqrt2 + 14748*sqrt2*w + -2584*sqrt2*w^(4/2) + 188*sqrt2*w^(6/2) + -35/8*sqrt2*w^(8/2))*x*phi + (296500*sqrt2 + -121504*sqrt2*w + 11154*sqrt2*w^(4/2) + -292*sqrt2*w^(6/2))*x*phi^3 + (-781536*sqrt2 + 196560*sqrt2*w + -7896*sqrt2*w^(4/2))*x*phi^5 + (702240*sqrt2 + -87360*sqrt2*w)*x*phi^7 + -201600*sqrt2*x*phi^9 + (-772*sqrt2 + 618*sqrt2*w + -149*sqrt2*w^(4/2) + 19*sqrt2*w^(6/2) + -5/4*sqrt2*w^(8/2))*x^2 + (259934*sqrt2 + -127670*sqrt2*w + 12339*sqrt2*w^(4/2) + -365*sqrt2*w^(6/2))*x^2*phi^2 + (-1517676*sqrt2 + 441560*sqrt2*w + -18130*sqrt2*w^(4/2))*x^2*phi^4 + (2140656*sqrt2 + -304080*sqrt2*w)*x^2*phi^6 + -836640*sqrt2*x^2*phi^8 + (52220*sqrt2 + -31740*sqrt2*w + 3374*sqrt2*w^(4/2) + -122*sqrt2*w^(6/2))*x^3*phi + (-1236744*sqrt2 + 430808*sqrt2*w + -18208*sqrt2*w^(4/2))*x^3*phi^3 + (3233328*sqrt2 + -538944*sqrt2*w)*x^3*phi^5 + -1854720*sqrt2*x^3*phi^7 + (282*sqrt2 + -183*sqrt2*w + 24*sqrt2*w^(4/2) + -3/2*sqrt2*w^(6/2))*x^4 + (-376227*sqrt2 + 164330*sqrt2*w + -14489/2*sqrt2*w^(4/2))*x^4*phi^2 + (2488980*sqrt2 + -506436*sqrt2*w)*x^4*phi^4 + -2350152*sqrt2*x^4*phi^6 + (-26430*sqrt2 + 14388*sqrt2*w + -681*sqrt2*w^(4/2))*x^5*phi + (895212*sqrt2 + -235944*sqrt2*w)*x^5*phi^3 + -1682352*sqrt2*x^5*phi^5 + (-32*sqrt2 + 18*sqrt2*w + -1*sqrt2*w^(4/2))*x^6 + (117886*sqrt2 + -43634*sqrt2*w)*x^6*phi^2 + -623764*sqrt2*x^6*phi^4 + (3308*sqrt2 + -1636*sqrt2*w)*x^7*phi + -96016*sqrt2*x^7*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^8 + -6561/2*sqrt2*x^8*phi^2 + -1*sqrt2*x^9*phi",
    "(orders >= -9)",
)

GOLDEN_RAISING_W_SYMBOLIC_DEPTH6 = (
    "d^1: -1/2*sqrt2",
    "d^0: 1/2*sqrt2*x",
    "d^-1: (-1*sqrt2 + 1/2*sqrt2*w) + 1/2*sqrt2*phi^2 + 1*sqrt2*x*phi",
    "d^-2: 1/2*sqrt2*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x + 3/2*sqrt2*x*phi^2 + 1*sqrt2*x^2*phi",
    "d^-3: (-1/2*sqrt2*w + 1/4*sqrt2*w^(4/2)) + (-3/2*sqrt2 + 1/2*sqrt2*w)*phi^2 + 1*sqrt2*phi^4 + (-3*sqrt2 + 1*sqrt2*w)*x*phi + 4*sqrt2*x*phi^3 + (-1*sqrt2 + 1/2*sqrt2*w)*x^2 + 9/2*sqrt2*x^2*phi^2 + 1*sqrt2*x^3*phi",
    "d^-4: (4*sqrt2 + -2*sqrt2*w)*phi + (-11/2*sqrt2 + 3/2*sqrt2*w)*phi^3 + 3*sqrt2*phi^5 + (2*sqrt2 + -1/2*sqrt2*w + -1/4*sqrt2*w^(4/2))*x + (-27/2*sqrt2 + 7/2*sqrt2*w)*x*phi^2 + 15*sqrt2*x*phi^4 + (-5*sqrt2 + 1*sqrt2*w)*x^2*phi + 49/2*sqrt2*x^2*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^3 + 27/2*sqrt2*x^3*phi^2 + 1*sqrt2*x^4*phi",
    "d^-5: (-3*sqrt2 + 5/2*sqrt2*w + -1*sqrt2*w^(4/2) + 1/4*sqrt2*w^(6/2)) + (33/2*sqrt2 + -9*sqrt2*w + 3/4*sqrt2*w^(4/2))*phi^2 + (-26*sqrt2 + 6*sqrt2*w)*phi^4 + 12*sqrt2*phi^6 + (17*sqrt2 + -10*sqrt2*w + 3/2*sqrt2*w^(4/2))*x*phi + (-90*sqrt2 + 20*sqrt2*w)*x*phi^3 + 72*sqrt2*x*phi^5 + (-4*sqrt2 + 1*sqrt2*w + 1/2*sqrt2*w^(4/2))*x^2 + (-81*sqrt2 + 17*sqrt2*w)*x^2*phi^2 + 154*sqrt2*x^2*phi^4 + (-10*sqrt2 + 2*sqrt2*w)*x^3*phi + 136*sqrt2*x^3*phi^3 + (-1*sqrt2 + 1/2*sqrt2*w)*x^4 + 81/2*sqrt2*x^4*phi^2 + 1*sqrt2*x^5*phi",
    "d^-6: (-24*sqrt2 + 20*sqrt2*w + -4*sqrt2*w^(4/2))*phi + (237/2*sqrt2 + -55*sqrt2*w + 15/4*sqrt2*w^(4/2))*phi^3 + (-150*sqrt2 + 30*sqrt2*w)*phi^5 + 60*sqrt2*phi^7 + (7*sqrt2 + -1/2*sqrt2*w + -1*sqrt2*w^(4/2) + -1/4*sqrt2*w^(6/2))*x + (487/2*sqrt2 + -115*sqrt2*w + 41/4*sqrt2*w^(4/2))*x*phi^2 + (-670*sqrt2 + 130*sqrt2*w)*x*phi^4 + 420*sqrt2*x*phi^6 + (69*sqrt2 + -38*sqrt2*w + 11/2*sqrt2*w^(4/2))*x^2*phi + (-939*sqrt2 + 175*sqrt2*w)*x^2*phi^3 + 1110*sqrt2*x^2*phi^5 + (8*sqrt2 + -3*sqrt2*w + -1/2*sqrt2*w^(4/2))*x^3 + (-405*sqrt2 + 71*sqrt2*w)*x^3*phi^2 + 1350*sqrt2*x^3*phi^4 + (-14*sqrt2 + 2*sqrt2*w)*x^4*phi + 1441/2*sqrt2*x^4*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^5 + 243/2*sqrt2*x^5*phi^2 + 1*sqrt2*x^6*phi",
    "d^-7: (1*sqrt2 + -21/2*sqrt2*w + 29/4*sqrt2*w^(4/2) + -7/4*sqrt2*w^(6/2) + 5/16*sqrt2*w^(8/2)) + (-627/2*sqrt2 + 427/2*sqrt2*w + -131/4*sqrt2*w^(4/2) + 5/4*sqrt2*w^(6/2))*phi^2 + (967*sqrt2 + -390*sqrt2*w + 45/2*sqrt2*w^(4/2))*phi^4 + (-1020*sqrt2 + 180*sqrt2*w)*phi^6 + 360*sqrt2*phi^8 + (-259*sqrt2 + 203*sqrt2*w + -91/2*sqrt2*w^(4/2) + 5/2*sqrt2*w^(6/2))*x*phi + (2934*sqrt2 + -1190*sqrt2*w + 84*sqrt2*w^(4/2))*x*phi^3 + (-5580*sqrt2 + 960*sqrt2*w)*x*phi^5 + 2880*sqrt2*x*phi^7 + (-33*sqrt2 + 27/2*sqrt2*w + 3/4*sqrt2*w^(6/2))*x^2 + (4351/2*sqrt2 + -917*sqrt2*w + 353/4*sqrt2*w^(4/2))*x^2*phi^2 + (-10618*sqrt2 + 1770*sqrt2*w)*x^2*phi^4 + 9060*sqrt2*x^2*phi^6 + (175*sqrt2 + -106*sqrt2*w + 41/2*sqrt2*w^(4/2))*x^3*phi + (-7982*sqrt2 + 1276*sqrt2*w)*x^3*phi^3 + 14040*sqrt2*x^3*phi^5 + (-12*sqrt2 + 9/2*sqrt2*w + 3/4*sqrt2*w^(4/2))*x^4 + (-3645/2*sqrt2 + 547/2*sqrt2*w)*x^4*phi^2 + 10891*sqrt2*x^4*phi^4 + (-21*sqrt2 + 3*sqrt2*w)*x^5*phi + 3724*sqrt2*x^5*phi^3 + (-1*sqrt2 + 1/2*sqrt2*w)*x^6 + 729/2*sqrt2*x^6*phi^2 + 1*sqrt2*x^7*phi",
    "d^-8: (396*sqrt2 + -366*sqrt2*w + 102*sqrt2*w^(4/2) + -9*sqrt2*w^(6/2))*phi + (-7575/2*sqrt2 + 4501/2*sqrt2*w + -1127/4*sqrt2*w^(4/2) + 35/4*sqrt2*w^(6/2))*phi^3 + (8841*sqrt2 + -3150*sqrt2*w + 315/2*sqrt2*w^(4/2))*phi^5 + (-7980*sqrt2 + 1260*sqrt2*w)*phi^7 + 2520*sqrt2*phi^9 + (77*sqrt2 + -81/2*sqrt2*w + 31/4*sqrt2*w^(4/2) + -11/4*sqrt2*w^(6/2) + -5/16*sqrt2*w^(8/2))*x + (-13023/2*sqrt2 + 8229/2*sqrt2*w + -2655/4*sqrt2*w^(4/2) + 99/4*sqrt2*w^(6/2))*x*phi^2 + (35553*sqrt2 + -12670*sqrt2*w + 1491/2*sqrt2*w^(4/2))*x*phi^4 + (-51660*sqrt2 + 7980*sqrt2*w)*x*phi^6 + 22680*sqrt2*x*phi^8 + (-1273*sqrt2 + 1103*sqrt2*w + -577/2*sqrt2*w^(4/2) + 29/2*sqrt2*w^(6/2))*x^2*phi + (86743/2*sqrt2 + -15673*sqrt2*w + 4613/4*sqrt2*w^(4/2))*x^2*phi^3 + (-124194*sqrt2 + 18690*sqrt2*w)*x^2*phi^5 + 82740*sqrt2*x^2*phi^7 + (69*sqrt2 + -39/2*sqrt2*w + -6*sqrt2*w^(4/2) + -3/4*sqrt2*w^(6/2))*x^3 + (30449/2*sqrt2 + -5887*sqrt2*w + 2467/4*sqrt2*w^(4/2))*x^3*phi^2 + (-133854*sqrt2 + 19502*sqrt2*w)*x^3*phi^4 + 155820*sqrt2*x^3*phi^6 + (471*sqrt2 + -312*sqrt2*w + 129/2*sqrt2*w^(4/2))*x^4*phi + (-120705/2*sqrt2 + 16849/2*sqrt2*w)*x^4*phi^3 + 159033*sqrt2*x^4*phi^5 + (18*sqrt2 + -15/2*sqrt2*w + -3/4*sqrt2*w^(4/2))*x^5 + (-15309/2*sqrt2 + 2005/2*sqrt2*w)*x^5*phi^2 + 83685*sqrt2*x^5*phi^4 + (-27*sqrt2 + 3*sqrt2*w)*x^6*phi + 37969/2*sqrt2*x^6*phi^3 + (1*sqrt2 + -1/2*sqrt2*w)*x^7 + 2187/2*sqrt2*x^7*phi^2 + 1*sqrt2*x^8*phi",
    "d^-9: (-107*sqrt2 + 211/2*sqrt2*w + -57*sqrt2*w^(4/2) + 20*sqrt2*w^(6/2) + -25/8*sqrt2*w^(8/2) + 7/16*sqrt2*w^(10/2)) + (16859/2*sqrt2 + -6642*sqrt2*w + 1418*sqrt2*w^(4/2) + -100*sqrt2*w^(6/2) + 35/16*sqrt2*w^(8/2))*phi^2 + (-47748*sqrt2 + 25172*sqrt2*w + -2674*sqrt2*w^(4/2) + 70*sqrt2*w^(6/2))*phi^4 + (89544*sqrt2 + -28560*sqrt2*w + 1260*sqrt2*w^(4/2))*phi^6 + (-70560*sqrt2 + 10080*sqrt2*w)*phi^8 + 20160*sqrt2*phi^10 + (4731*sqrt2 + -4820*sqrt2*w + 1524*sqrt2*w^(4/2) + -144*sqrt2*w^(6/2) + 35/8*sqrt2*w^(8/2))*x*phi + (-127172*sqrt2 + 69344*sqrt2*w + -8922*sqrt2*w^(4/2) + 268*sqrt2*w^(6/2))*x*phi^3 + (448896*sqrt2 + -142800*sqrt2*w + 7224*sqrt2*w^(4/2))*x*phi^5 + (-527520*sqrt2 + 73920*sqrt2*w)*x*phi^7 + 201600*sqrt2*x*phi^9 + (-212*sqrt2 + 18*sqrt2*w + 41*sqrt2*w^(4/2) + -1*sqrt2*w^(6/2) + 5/4*sqrt2*w^(8/2))*x^2 + (-78410*sqrt2 + 47014*sqrt2*w + -8017*sqrt2*w^(4/2) + 293*sqrt2*w^(6/2))*x^2*phi^2 + (766156*sqrt2 + -244776*sqrt2*w + 14770*sqrt2*w^(4/2))*x^2*phi^4 + (-1532496*sqrt2 + 210000*sqrt2*w)*x^2*phi^6 + 836640*sqrt2*x^2*phi^8 + (-5732*sqrt2 + 5164*sqrt2*w + -1402*sqrt2*w^(4/2) + 74*sqrt2*w^(6/2))*x^3*phi + (498328*sqrt2 + -163128*sqrt2*w + 12592*sqrt2*w^(4/2))*x^3*phi^3 + (-2155440*sqrt2 + 287616*sqrt2*w)*x^3*phi^5 + 1854720*sqrt2*x^3*phi^7 + (-162*sqrt2 + 63*sqrt2*w + 6*sqrt2*w^(4/2) + 3/2*sqrt2*w^(6/2))*x^4 + (91891*sqrt2 + -33438*sqrt2*w + 7673/2*sqrt2*w^(4/2))*x^4*phi^2 + (-1476108*sqrt2 + 190596*sqrt2*w)*x^4*phi^4 + 2350152*sqrt2*x^4*phi^6 + (1158*sqrt2 + -876*sqrt2*w + 201*sqrt2*w^(4/2))*x^5*phi + (-423324*sqrt2 + 52344*sqrt2*w)*x^5*phi^3 + 1682352*sqrt2*x^5*phi^5 + (-24*sqrt2 + 10*sqrt2*w + 1*sqrt2*w^(4/2))*x^6 + (-30618*sqrt2 + 3554*sqrt2*w)*x^6*phi^2 + 623764*sqrt2*x^6*phi^4 + (-36*sqrt2 + 4*sqrt2*w)*x^7*phi + 96016*sqrt2*x^7*phi^3 + (-1*sqrt2 + 1/2*sqrt2*w)*x^8 + 6561/2*sqrt2*x^8*phi^2 + 1*sqrt2*x^9*phi",
    "(orders >= -9)",
)

GOLDEN_INV_SQRT_BRACKET_DEPTH8 = (
    "d^-1: 1",
    "d^-3: 1/2 + 1/2*x^2",
    "d^-4: -3/2*x",
    "d^-5: 17/8 + 3/4*x^2 + 3/8*x^4",
    "d^-6: -15/4*x + -15/4*x^3",
    "d^-7: 115/16 + 295/16*x^2 + 15/16*x^4 + 5/16*x^6",
    "(orders >= -8)",
)

GOLDEN_PRODUCT_RESIDUAL = "0  (orders >= -8)"
GOLDEN_PRODUCT_VALID_FLOOR = -8
