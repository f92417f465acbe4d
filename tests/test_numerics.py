import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isoladder.numerics import SQRT_PI, QuadratureGrid, build_grid, erf, grid_norm, hermite_table


def erf_taylor_oracle(x, terms=30):
    # alternating Maclaurin series (2/sqrt(pi)) sum (-1)^k x^{2k+1} / (k! (2k+1))
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / SQRT_PI * total


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_limit_at_six(self):
        assert abs(erf(6.0) - 1.0) < 1e-12

    def test_value_at_one_vs_taylor_oracle(self):
        assert abs(erf(1.0) - erf_taylor_oracle(1.0)) < 1e-14
        assert abs(erf(1.0) - 0.842700792949715) < 1e-12

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.0, 2.9, 3.0, 3.1, 4.0, 7.5, 12.0, 25.0])
    def test_against_stdlib(self, x):
        assert abs(erf(x) - math.erf(x)) < 1e-13

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_odd(self, x):
        assert erf(x) + erf(-x) == 0.0

    def test_monotone(self):
        # strict monotonicity holds until erfc saturates below double resolution (~|x| > 5.8)
        xs = np.linspace(-5, 5, 201)
        vals = [erf(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            erf(math.nan)

    def test_array_equals_elementwise_scalars(self):
        xs = np.linspace(-7.0, 7.0, 57).reshape(3, 19)
        values = erf(xs)
        assert values.shape == xs.shape
        assert all(values.flat[i] == erf(float(x)) for i, x in enumerate(xs.flat))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            erf(np.array([0.0, 1.0, bad]))


def hermite_polynomial_oracle(n, x):
    # Explicit physicists' Hermite polynomial, then normalize.
    h = [1.0, 2.0 * x]
    for k in range(1, n):
        h.append(2.0 * x * h[k] - 2.0 * k * h[k - 1])
    return h[n] * math.exp(-0.5 * x * x) / (math.pi**0.25 * math.sqrt(2.0**n * math.factorial(n)))


class TestHermiteFunction:
    def test_ground_state_at_origin(self):
        assert abs(hermite_table([0.0], 0)[0, 0] - math.pi**-0.25) < 1e-15

    def test_first_excited_odd(self):
        assert hermite_table([0.0], 1)[1, 0] == 0.0

    def test_against_polynomial_oracle(self):
        assert abs(hermite_table([1.5], 4)[4, 0] - hermite_polynomial_oracle(4, 1.5)) < 1e-12

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_polynomials(self, n):
        xs = (-2.3, -0.7, 0.4, 1.1, 3.2)
        table = hermite_table(xs, n)
        for j, x in enumerate(xs):
            assert abs(table[n, j] - hermite_polynomial_oracle(n, x)) < 1e-12

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            hermite_table([0.0], -1)


class TestGrid:
    def test_half_width_formula(self):
        g = build_grid(64)
        assert abs(g.half_width - (math.sqrt(128.0) + 8.0)) < 1e-12
        assert g.node_count == 4000
        assert np.allclose(g.points, -g.points[::-1])

    @pytest.mark.parametrize("N, nodes", [(16, None), (64, None), (512, None), (64, 32), (64, 33),
                                          (64, 4001), (64, 8000), (8, 2), (8, 3)])
    def test_grid_mirrors_exactly(self, N, nodes):
        # the parity-split overlaps pair x with -x, so the mirror must be exact, not to a tolerance
        g = build_grid(N, nodes=nodes)
        assert np.array_equal(g.points, -g.points[::-1])
        assert np.array_equal(g.weights, g.weights[::-1])
        if g.node_count % 2:
            centre = g.points[g.node_count // 2]
            assert centre == 0.0 and not np.signbit(centre)

    @pytest.mark.parametrize("field", ["points", "weights"])
    def test_grid_off_by_one_ulp_raises(self, field):
        g = build_grid(16)
        values = {"points": g.points.copy(), "weights": g.weights.copy()}
        values[field][-1] = np.nextafter(values[field][-1], np.inf)
        with pytest.raises(ValueError, match="mirror exactly"):
            QuadratureGrid(half_width=g.half_width, node_count=g.node_count, truncation=16, **values)

    @pytest.mark.parametrize("nodes", [None, 4001])
    def test_psi_parity_is_exact(self, nodes):
        g = build_grid(64, nodes=nodes)
        sign = (-1.0) ** np.arange(64)[:, None]
        assert np.array_equal(g.psi[:, ::-1], sign * g.psi)

    def test_node_rule_above_the_floor(self):
        assert build_grid(512).node_count == 4096

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            build_grid(7)

    def test_ground_state_normalization(self):
        g = build_grid(16)
        t = hermite_table(g.points, 0)
        assert abs(np.sum(g.weights * t[0] * t[0]) - 1.0) < 1e-10

    def test_orthogonality_psi3_psi5(self):
        g = build_grid(16)
        t = hermite_table(g.points, 5)
        assert abs(np.sum(g.weights * t[3] * t[5])) < 1e-10

    def test_gaussian_integral(self):
        g = build_grid(16)
        gauss = np.exp(-g.points**2)
        assert abs(np.sum(g.weights * gauss) - math.sqrt(math.pi)) < 1e-10

    def test_orthonormality_residual_N64(self):
        g = build_grid(64)
        t = hermite_table(g.points, 63)
        gram = t @ (g.weights[None, :] * t).T
        assert np.max(np.abs(gram[:63, :63] - np.eye(64)[:63, :63])) < 1e-9
        # tighter table invariant on m, n <= max_index - 2
        assert np.max(np.abs(gram[:62, :62] - np.eye(64)[:62, :62])) < 1e-10

    def test_length_mismatch(self):
        g = build_grid(16)
        with pytest.raises(ValueError):
            grid_norm(np.ones(3), g)

    def test_grid_norm(self):
        g = build_grid(16)
        t = hermite_table(g.points, 2)
        assert abs(grid_norm(t[2], g) - 1.0) < 1e-10
