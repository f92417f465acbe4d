import math
import warnings
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isoladder import numerics
from isoladder.isospectral import IsospectralParams, ThetaBasis
from isoladder.numerics import QuadratureGrid, build_grid, erf, grid_norm, hermite_table
from isoladder.params import SQRT_PI


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


class TestGridMemo:
    def test_same_truncation_returns_the_same_grid(self):
        assert build_grid(64) is build_grid(64)

    def test_every_call_form_of_one_grid_returns_it(self):
        # 4000 is the default count at N = 64; the memo keys on the resolved count
        numerics._build_grid.cache_clear()
        assert build_grid(64) is build_grid(64, None) is build_grid(64, nodes=4000)
        assert numerics._build_grid.cache_info().misses == 1

    @pytest.mark.parametrize("field", ["points", "weights"])
    def test_shared_arrays_are_read_only(self, field):
        values = getattr(build_grid(64), field)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0

    def test_a_second_grid_frees_the_first(self):
        first = weakref.ref(build_grid(64, nodes=40 * 64))
        assert first() is not None
        build_grid(64)
        assert first() is None

    def test_bases_at_two_lambdas_share_one_table(self, monkeypatch):
        numerics._build_grid.cache_clear()
        tables = []
        table = numerics.hermite_table
        monkeypatch.setattr(numerics, "hermite_table", lambda points, n: tables.append(n) or table(points, n))
        bases = [ThetaBasis(IsospectralParams(lam), build_grid(64), 64) for lam in (2.0, -3.0)]
        assert tables == [63]
        assert bases[0].grid is bases[1].grid


def unfloored_hermite_table(points, max_index):
    # the recurrence of hermite_table without its 2^-500 floor or its scaled start (which no node
    # takes up to N = 405)
    x = np.asarray(points, dtype=float)
    table = np.zeros((max_index + 1, x.size))
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if max_index >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, max_index):
        table[n + 1] = x * math.sqrt(2.0 / (n + 1)) * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
    return table


def decimal_hermite_columns(points, max_index):
    """psi_0 .. psi_{max_index} at a few points by the recurrence in 40-digit decimals, whose exponent
    range holds psi_0 at any node unscaled: an oracle for the nodes hermite_table starts scaled."""
    with localcontext() as ctx:
        ctx.prec = 40
        out = np.empty((max_index + 1, len(points)))
        for j, point in enumerate(points):
            x = Decimal(float(point))
            prev, cur = Decimal(0), (-x * x / 2).exp() / Decimal(math.pi).sqrt().sqrt()
            out[0, j] = float(cur)
            for n in range(max_index):
                prev, cur = cur, x * (Decimal(2) / (n + 1)).sqrt() * cur - (Decimal(n) / (n + 1)).sqrt() * prev
                out[n + 1, j] = float(cur)
    return out


FLOOR = 2.0**-500


def scaled_start_hermite_columns(points, max_index):
    # hermite_table's scaled start without its rescaling on the way: exact up to N = 1117, where
    # the outer nodes' rows reach 2^1023, and floored at 2^-500 as hermite_table is
    x = np.asarray(points, dtype=float)
    bits = 0.5 * x * x / math.log(2.0)
    shift = np.where(bits > 960, np.ceil(bits) - 960, 0.0).astype(int)
    table = unfloored_hermite_table(x, max_index)
    table[0] = math.pi ** -0.25 * np.exp(shift * math.log(2.0) - 0.5 * x * x)
    table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, max_index):
        table[n + 1] = x * math.sqrt(2.0 / (n + 1)) * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
    table = np.ldexp(table, -shift)
    return np.where(np.abs(table) < FLOOR, 0.0, table)


class TestHermiteFloor:
    def test_no_entry_below_the_floor_but_zero(self):
        table = build_grid(512).psi
        assert not np.any((table != 0.0) & (np.abs(table) < FLOOR))

    def test_kept_entries_are_the_recurrence_bit_for_bit(self):
        # on the nodes that start unscaled, |x| <= 36.48 (see TestHermiteScaledStart for the others)
        grid = build_grid(512)
        plain = np.abs(grid.points) < 36.4
        raw = unfloored_hermite_table(grid.points[plain], 511)
        psi = grid.psi[:, plain]
        assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < FLOOR)) > 0  # the floor bites at N = 512
        kept = psi != 0.0
        assert np.array_equal(psi[kept], raw[kept])
        assert np.array_equal(psi, np.where(np.abs(raw) < FLOOR, 0.0, raw))

    @pytest.mark.parametrize("N", [64, 160])
    def test_floor_changes_nothing_up_to_160(self, N):
        grid = build_grid(N)
        assert np.array_equal(grid.psi, unfloored_hermite_table(grid.points, N - 1))

    @pytest.mark.parametrize("lam", [2.0, -3.0, SQRT_PI / 2 + 2e-6])
    def test_overlaps_match_the_unfloored_table_at_512(self, lam):  # its scaled-start nodes carry no phi
        grid = build_grid(512)
        unfloored = QuadratureGrid(points=grid.points, weights=grid.weights, half_width=grid.half_width,
                                   node_count=grid.node_count, truncation=512)
        vars(unfloored)["psi"] = unfloored_hermite_table(grid.points, 511)
        params = IsospectralParams(lam)
        floored = ThetaBasis(params, grid, 512)._overlaps()
        assert np.array_equal(floored, ThetaBasis(params, unfloored, 512)._overlaps())


class TestHermiteScaledStart:
    def test_no_node_starts_scaled_up_to_405(self):
        # the default grid's edge sqrt(2N) + 8 reaches |x| = 36.48, where e^{-x^2/2} = 2^-960, at N = 406
        grid = build_grid(405)
        raw = unfloored_hermite_table(grid.points, 404)
        assert np.array_equal(grid.psi, np.where(np.abs(raw) < FLOOR, 0.0, raw))

    def test_scaled_nodes_match_a_decimal_recurrence(self):
        # at N = 1024 psi_0 underflows to 0 on the outer nodes, where psi_1023 is ~1e-10 and more
        grid = build_grid(1024)
        nodes = np.linspace(np.flatnonzero(grid.points > 36.5)[0], grid.node_count - 1, 7).astype(int)
        ref = decimal_hermite_columns(grid.points[nodes], 1023)
        assert np.max(np.abs(ref)) > 1e-3  # the scaled start carries entries that are not small
        assert np.max(np.abs(grid.psi[:, nodes] - np.where(np.abs(ref) < FLOOR, 0.0, ref))) < 1e-12

    def test_rescaling_leaves_kept_entries_bit_identical_up_to_1117(self):
        # at N = 1117 every one of the outer 41 nodes passes 2^960 and is scaled down on the way
        points = build_grid(1117).points[-41:]
        assert np.array_equal(hermite_table(points, 1116), scaled_start_hermite_columns(points, 1116))

    @pytest.mark.parametrize("N", [1118, 2048])
    def test_outer_nodes_rescale_without_overflow(self, N):
        # from N = 1118 the outer nodes' scaled rows would pass 2^1024 unless scaled down on the way
        points = build_grid(N).points[-41:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = hermite_table(points, N - 1)
        ref = decimal_hermite_columns(points, N - 1)
        # every entry is below 1e-60 here, so the comparison is relative, on the > 10^4 kept entries
        kept = np.abs(ref) >= FLOOR
        assert np.count_nonzero(kept) > 10_000 and np.array_equal(table != 0.0, kept)
        assert np.max(np.abs(table[kept] - ref[kept]) / np.abs(ref[kept])) < 1e-12

    @pytest.mark.parametrize("N", [406, 690, 1024, 1200])
    def test_default_grids_carry_psi(self, N):
        # the overlaps accept a grid whose norm defects are at most 1e-12
        assert np.max(build_grid(N).norm_defects) <= 1e-12
