import math

import numpy as np
import pytest

from isoladder.fock import (
    TruncatedOperator,
    adjoint,
    annihilation_matrix,
    apply_operator,
    hermitian_eigensystem,
    interior_max_abs,
)
from isoladder.isospectral import (
    ConstructionError,
    IsospectralParams,
    ParameterError,
    PhiFunction,
    ThetaBasis,
    b_dagger_matrix,
    b_matrix,
    b_dagger_a_b_fill,
    h_tilde_matrix,
    riccati_residual,
    theta_curvature_table,
    u_matrix,
    unitarity_defect,
)
from isoladder import numerics
from isoladder.ladder import represent_in_theta
from isoladder.coherent import TruncationError, shift_eigenstate
from isoladder.numerics import QuadratureGrid, build_grid, grid_norm, hermite_table
from isoladder.params import SQRT_PI


def simpson_integral_0_to_1(f, n=2001):
    # independent quadrature oracle for the definite integral in phi's denominator
    xs = np.linspace(0.0, 1.0, n)
    ys = f(xs)
    h = xs[1] - xs[0]
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


class TestParams:
    @pytest.mark.parametrize("lam", [0.0, 0.5, math.sqrt(math.pi) / 2, -0.8])
    def test_forbidden_band(self, lam):
        with pytest.raises(ParameterError):
            IsospectralParams(lam)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_magnitude_capped_at_2_to_500(self, sign):
        IsospectralParams(sign * 2.0**500)
        for lam in (np.nextafter(2.0**500, math.inf), 1e160, 1e200):
            with pytest.raises(ParameterError, match=r"not exceed 2\^500"):
                IsospectralParams(sign * lam)

    def test_negative_admissible(self):
        IsospectralParams(-2.0)


class TestPhi:
    def test_value_at_origin(self):
        for lam in (1.0, 2.0, -3.0):
            assert PhiFunction(IsospectralParams(lam))(0.0) == pytest.approx(1.0 / lam)

    def test_gaussian_decay(self):
        assert PhiFunction(IsospectralParams(2.0))(8.0) < 1e-27

    def test_value_at_one_vs_quadrature_oracle(self):
        integral = simpson_integral_0_to_1(lambda y: np.exp(-(y**2)))
        expected = math.exp(-1.0) / (2.0 + integral)
        assert abs(PhiFunction(IsospectralParams(2.0))(1.0) - expected) < 1e-6
        assert expected == pytest.approx(0.133929, abs=1e-6)

    def test_sign_symmetry(self, grid64):
        plus = PhiFunction(IsospectralParams(2.0))
        minus = PhiFunction(IsospectralParams(-2.0))
        x = grid64.points
        assert np.max(np.abs(plus.value(x) + minus.value(-x))) < 1e-14


class TestRiccati:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
    def test_solution_residual(self, lam, grid64):
        assert riccati_residual(IsospectralParams(lam), grid64) < 1e-8

    def test_perturbed_phi_detected(self, grid64, monkeypatch):
        p = IsospectralParams(2.0)
        value = PhiFunction.value
        # residual of phi + eps is eps*(2x + 2 phi) + eps^2 to first order
        monkeypatch.setattr(PhiFunction, "value", lambda fn, x: value(fn, x) + 0.01)
        assert riccati_residual(p, grid64) > 1e-3


class TestThetaBasis:
    def test_large_lambda_reduces_to_oscillator(self, grid64):
        basis = ThetaBasis(IsospectralParams(1e6), grid64, 64)
        dev = float(np.max(np.abs(basis.theta - basis.psi)))
        assert dev < 1e-5

    def test_theta0_normalized_and_closed_form(self, basis64):
        assert abs(grid_norm(basis64.theta[0], basis64.grid) - 1.0) < 1e-9
        lam = basis64.params.lam
        closed = math.sqrt((lam * lam - math.pi / 4.0) / SQRT_PI)
        assert basis64.theta0_norm == pytest.approx(closed, abs=1e-9)

    def test_b_annihilates_theta0_position_space(self, basis64):
        # b theta_0 = (x + d + phi) theta_0 / sqrt2 with finite-difference d
        lam = basis64.params.lam
        h = 1e-5
        x = basis64.grid.points
        n0 = basis64.theta0_norm

        def theta0(t):
            g = lam + (SQRT_PI / 2.0) * np.array([math.erf(v) for v in np.atleast_1d(t)])
            return n0 * np.exp(-0.5 * np.atleast_1d(t) ** 2) / g

        deriv = (theta0(x + h) - theta0(x - h)) / (2 * h)
        action = (x * theta0(x) + deriv + basis64.phi_values * theta0(x)) / math.sqrt(2.0)
        assert np.max(np.abs(action)) < 1e-7

    @pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
    def test_gram_orthonormality(self, lam, grid64):
        basis = ThetaBasis(IsospectralParams(lam), grid64, 64)
        gram = basis.theta @ (grid64.weights[None, :] * basis.theta).T
        dev = np.max(np.abs(gram[:59, :59] - np.eye(64)[:59, :59]))
        assert dev < 1e-8

    def test_bdagger_psi_gives_sqrt_n_theta(self, basis64):
        # position-space b+ psi_{n-1} with finite-difference derivative, all n <= N-5
        h = 1e-5
        x = basis64.grid.points
        up = hermite_table(x + h, 58)
        down = hermite_table(x - h, 58)
        for n in range(1, 60):
            deriv = (up[n - 1] - down[n - 1]) / (2 * h)
            action = (x * basis64.psi[n - 1] - deriv + basis64.phi_values * basis64.psi[n - 1]) / math.sqrt(2.0)
            dev = grid_norm(action - math.sqrt(n) * basis64.theta[n], basis64.grid)
            assert dev < 1e-7, f"n={n}: {dev}"

    def test_rejects_small_basis(self, grid64):
        with pytest.raises(ValueError):
            ThetaBasis(IsospectralParams(2.0), grid64, 1)

    def test_rejects_basis_above_grid_truncation(self):
        with pytest.raises(ValueError, match="needs 2 <= N <= the grid's truncation 64, got 65"):
            ThetaBasis(IsospectralParams(2.0), build_grid(64), 65)

    def test_psi_rows_come_from_the_grid_table(self, grid64):
        assert np.array_equal(grid64.psi, hermite_table(grid64.points, 63))
        assert not grid64.psi.flags.writeable
        first = ThetaBasis(IsospectralParams(2.0), grid64, 64)
        second = ThetaBasis(IsospectralParams(-3.0), grid64, 48)
        assert first.psi.base is grid64.psi and second.psi.base is grid64.psi
        assert np.array_equal(second.psi, grid64.psi[:48])

    def test_matrices_built_once_per_basis(self, grid64):
        first = ThetaBasis(IsospectralParams(2.0), grid64, 64)
        second = ThetaBasis(IsospectralParams(2.0), grid64, 64)
        for build in (u_matrix, b_dagger_matrix, b_matrix):
            assert build(first) is build(first)
            assert build(second) is not build(first)
            assert np.array_equal(build(second).mat, build(first).mat)

    def test_overlaps_and_h_tilde_are_not_kept(self, grid64):
        # each has one reader per basis (u_matrix, the H~ eigensolve), so neither holds memory after it
        basis = ThetaBasis(IsospectralParams(2.0), grid64, 64)
        overlaps, h_tilde = basis._overlaps(), h_tilde_matrix(basis)
        kept = [value for value in vars(basis).values() if isinstance(value, (np.ndarray, TruncatedOperator))]
        assert not any(value is overlaps or value is h_tilde for value in kept)
        assert basis._overlaps() is not overlaps and np.array_equal(basis._overlaps(), overlaps)
        assert h_tilde_matrix(basis) is not h_tilde and np.array_equal(h_tilde_matrix(basis).mat, h_tilde.mat)

    def test_negative_lambda_family(self, grid64):
        # the branch lambda < -sqrt(pi)/2 is admissible and behaves identically
        basis = ThetaBasis(IsospectralParams(-2.0), grid64, 64)
        gram = basis.theta @ (grid64.weights[None, :] * basis.theta).T
        assert np.max(np.abs(gram[:59, :59] - np.eye(64)[:59, :59])) < 1e-8
        evals, _ = hermitian_eigensystem(h_tilde_matrix(basis))
        assert np.max(np.abs(evals[:40] - np.arange(40.0))) < 1e-6


def full_grid_overlaps(basis):
    # the direct trapezoid sum over every node, psi W theta^T, which assumes nothing of the grid
    return basis.psi @ (basis.grid.weights[None, :] * basis.theta).T


def identity_plus_full_grid_shift(basis):
    # column 0 and P = psi W diag(phi) psi^T summed over every node, on I's columns as the overlaps take them
    N, w = basis.N, basis.grid.weights
    overlaps = np.eye(N)
    overlaps[:, 0] = basis.psi @ (w * basis.theta0)
    overlaps[:, 1:] += (basis.psi @ (w * basis.phi_values * basis.psi).T)[:, :-1] / np.sqrt(2.0 * np.arange(1, N))
    return overlaps


def theta_by_rows(basis):
    # one row at a time, in the operation order ThetaBasis keeps vectorized
    theta = np.zeros_like(basis.theta)
    theta[0] = basis.theta[0]
    for n in range(1, basis.N):
        theta[n] = basis.psi[n] + basis.phi_values * basis.psi[n - 1] / math.sqrt(2.0 * n)
    return theta


class TestParitySplit:
    @pytest.mark.parametrize("N, nodes", [(64, None), (512, None), (64, 4001)])
    # the last two give phi's widest and narrowest run of nodes above the overlaps' 2^-500 cut
    @pytest.mark.parametrize("lam", [2.0, -3.0, SQRT_PI / 2 + 2e-6, -(SQRT_PI / 2 + 2e-6), 1e6])
    def test_overlaps_match_full_grid_sum(self, lam, N, nodes):
        basis = ThetaBasis(IsospectralParams(lam), build_grid(N, nodes=nodes), N)
        # both sums have at most node_count terms, each rounded at most 3 times before summing, so each
        # differs from the exact sum by at most gamma_K sum_i w |psi_m theta_n|, K = node_count + 3
        k = (basis.grid.node_count + 3) * np.finfo(float).eps / 2
        bound = 2.0 * k / (1.0 - k) * (np.abs(basis.psi) @ (basis.grid.weights * np.abs(basis.theta)).T)
        assert np.all(np.abs(basis._overlaps() - identity_plus_full_grid_shift(basis)) <= bound)

    @pytest.mark.parametrize("N, nodes", [(64, None), (512, None), (64, 4001)])
    def test_theta_equals_per_row_loop(self, N, nodes):
        basis = ThetaBasis(IsospectralParams(2.0), build_grid(N, nodes=nodes), N)
        assert np.array_equal(basis.theta, theta_by_rows(basis))

    def test_matrices_never_build_theta(self):
        basis = ThetaBasis(IsospectralParams(2.0), build_grid(512), 512)
        for build in (u_matrix, h_tilde_matrix, b_matrix):
            build(basis)
        assert "theta" not in vars(basis)
        assert np.array_equal(basis.theta, theta_by_rows(basis))

    def test_norm_defects_are_built_once_per_grid_and_shared(self):
        numerics._build_grid.cache_clear()  # a fresh grid, whatever an earlier test left in the memo
        grid = build_grid(64, nodes=4001)
        assert "norm_defects" not in vars(grid)
        ThetaBasis(IsospectralParams(2.0), grid, 64)._overlaps()
        defects = vars(grid)["norm_defects"]
        ThetaBasis(IsospectralParams(-3.0), grid, 48)._overlaps()
        assert grid.norm_defects is defects and not defects.flags.writeable

    @pytest.mark.parametrize("N, nodes", [(64, None), (512, None), (64, 4001)])
    def test_gram_matches_full_grid_sum(self, N, nodes):
        # the overlaps take psi W psi^T = I; on these grids the direct sum is I to within its own rounding,
        # gamma_K sum_i w |psi_m psi_n| with K = node_count + 3, and so is the grid's diagonal defect
        grid = build_grid(N, nodes=nodes)
        direct = grid.psi @ (grid.weights * grid.psi).T
        k = (grid.node_count + 3) * np.finfo(float).eps / 2
        bound = k / (1.0 - k) * (np.abs(grid.psi) @ (grid.weights * np.abs(grid.psi)).T)
        assert np.all(np.abs(direct - np.eye(N)) <= bound)
        assert np.all(grid.norm_defects <= np.diag(bound))


class TestUMatrix:
    def test_exactly_unitary_after_polar(self, basis64):
        u = u_matrix(basis64)
        assert np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(64))) < 1e-12

    def test_raw_overlap_defect_is_truncation_tail(self, basis64):
        # the raw quadrature overlaps keep a genuine psi-tail defect
        assert 1e-7 < unitarity_defect(basis64) < 1e-3

    def test_u00_stable_under_grid_refinement(self):
        p = IsospectralParams(2.0)
        vals = []
        for nodes in (2000, 8000):
            grid = build_grid(64, nodes=nodes)
            basis = ThetaBasis(p, grid, 64)
            vals.append(u_matrix(basis).mat[0, 0])
        assert abs(vals[0] - vals[1]) < 1e-9

    def test_u00_matches_raw_overlap_in_deep_interior(self, basis64):
        raw = basis64._overlaps()[0, 0]
        polar = u_matrix(basis64).mat[0, 0]
        overlap = np.sum(basis64.grid.weights * basis64.psi[0] * basis64.theta[0])
        assert raw == pytest.approx(overlap, abs=1e-13)
        assert polar == pytest.approx(overlap, abs=1e-7)

    def test_large_lambda_u_is_identity(self, grid64):
        basis = ThetaBasis(IsospectralParams(1e6), grid64, 64)
        u = u_matrix(basis)
        assert interior_max_abs(u.mat - np.eye(64)) < 1e-5

    def test_phi_below_the_node_cut_everywhere_leaves_the_identity(self, grid64):
        # |lambda| = 1e150 puts w (phi(x) + phi(-x)) below 2^-500 at every node, so no node enters P
        basis = ThetaBasis(IsospectralParams(1e150), grid64, 64)
        assert np.array_equal(basis._overlaps()[:, 1:], np.eye(64)[:, 1:])
        assert interior_max_abs(u_matrix(basis).mat - np.eye(64)) < 1e-12

    def test_rank_deficient_overlaps_raise_named_defect(self, grid64, monkeypatch):
        # overlaps whose last column repeats the first are singular: X^T X has a zero
        # eigenvalue, so ||X^T X - I|| >= 1 and Newton-Schulz cannot converge
        overlaps = ThetaBasis(IsospectralParams(2.0), grid64, 64)._overlaps()
        singular = np.column_stack((overlaps[:, :-1], overlaps[:, 0]))
        monkeypatch.setattr(ThetaBasis, "_overlaps", lambda basis: singular)
        with pytest.raises(ValueError, match=r"\|\|X\^T X - I\|\|_inf = \d"):
            u_matrix(ThetaBasis(IsospectralParams(2.0), grid64, 64))

    @pytest.mark.parametrize("N, nodes", [(64, 32), (64, 80), (64, 100), (64, 136)])
    def test_grid_that_cannot_carry_psi_is_refused_by_name(self, N, nodes):
        # too few nodes: psi W psi^T is far from I, which the overlaps would take, so no U is built
        basis = ThetaBasis(IsospectralParams(2.0), build_grid(N, nodes=nodes), N)
        with pytest.raises(ConstructionError, match=rf"cannot carry psi_0 \.\. psi_{N - 1}: max_n \|sum_i w_i "
                                             rf"psi_n\(x_i\)\^2 - 1\| = \d\.\d{{3}}e-\d\d > 1e-12"):
            u_matrix(basis)

    def test_grid_with_a_non_finite_defect_is_refused(self, grid64):
        # an overflowing table gives a NaN defect, which no comparison with the bound passes
        grid = QuadratureGrid(points=grid64.points, weights=grid64.weights, half_width=grid64.half_width,
                              node_count=grid64.node_count, truncation=64)
        vars(grid)["norm_defects"] = np.where(np.arange(64) == 40, np.nan, grid64.norm_defects)
        with pytest.raises(ConstructionError, match=r"cannot carry psi_0 \.\. psi_63: .* = nan > 1e-12"):
            u_matrix(ThetaBasis(IsospectralParams(2.0), grid, 64))


# The accuracy gate of the band-limited grid and the Newton-Schulz polar
# factor: the reference is the earlier pipeline, max(4000, 40N) nodes and an
# SVD polar factor.
BATTERY_LAMBDAS = (-3.0, -1.0, 0.8963, 2.0, 10.0, 50.0)
NEAR_CRITICAL = SQRT_PI / 2 + 2e-6


@pytest.mark.parametrize("N", [64, 128, 256, 512])
@pytest.mark.parametrize("lam", BATTERY_LAMBDAS + (NEAR_CRITICAL, -NEAR_CRITICAL))
def test_default_grid_matches_40n_svd_reference(lam, N):
    params = IsospectralParams(lam)
    basis = ThetaBasis(params, build_grid(N), N)
    u = u_matrix(basis).mat
    evals = hermitian_eigensystem(h_tilde_matrix(basis))[0][:40]
    del basis

    reference = ThetaBasis(params, build_grid(N, nodes=max(4000, 40 * N)), N)
    left, _, right = np.linalg.svd(full_grid_overlaps(reference))
    ref_u = left @ right
    del reference
    b = annihilation_matrix(N).mat @ ref_u.T
    ref_evals = np.linalg.eigvalsh(b.T @ b)[:40]

    assert np.max(np.abs(u - ref_u)) < 1e-12
    assert np.max(np.abs(evals - ref_evals)) < 1e-12


@pytest.mark.parametrize("N", [64, 512])
@pytest.mark.parametrize("lam", BATTERY_LAMBDAS + (NEAR_CRITICAL, -NEAR_CRITICAL))
def test_real_h_tilde_spectrum_matches_complex_solver(lam, N):
    # H~ is real symmetric; the real eigensolver must give the spectrum the
    # complex one gives for the same matrix, far inside c01's 1e-6 bound.
    h = h_tilde_matrix(ThetaBasis(IsospectralParams(lam), build_grid(N), N))
    assert h.mat.dtype == np.float64
    real = hermitian_eigensystem(h)[0][:40]
    cplx = np.linalg.eigvalsh(h.mat.astype(complex))[:40]
    assert np.max(np.abs(real - cplx)) < 1e-12


class TestBOperators:
    def test_bbdagger_equals_aadagger(self, basis64):
        b = b_matrix(basis64)
        a = annihilation_matrix(64)
        dev = interior_max_abs(b.mat @ b.mat.conj().T - a.mat @ a.mat.conj().T)
        assert dev < 1e-7

    def test_b_annihilates_theta0_vector(self, basis64):
        b = b_matrix(basis64)
        theta0_fock = u_matrix(basis64).mat[:, 0]
        assert np.linalg.norm(b.mat @ theta0_fock) < 1e-7

    def test_bdaggerb_differs_from_adaggera(self, basis64):
        ht = h_tilde_matrix(basis64)
        dev = np.max(np.abs(ht.mat - np.diag(np.arange(64.0))))
        assert dev > 0.01

    def test_shifts_equal_dense_products(self, basis64):
        u = u_matrix(basis64)
        assert np.array_equal(b_matrix(basis64).mat, (annihilation_matrix(64) @ adjoint(u)).mat)
        assert np.array_equal(b_dagger_matrix(basis64).mat, (u @ adjoint(annihilation_matrix(64))).mat)

    def test_bdagger_maps_fock_to_theta(self, basis64):
        bd = b_dagger_matrix(basis64)
        u = u_matrix(basis64)
        for n in (1, 5, 20):
            lhs = bd.mat @ np.eye(64)[n - 1]
            rhs = math.sqrt(n) * u.mat[:, n]
            assert np.linalg.norm(lhs - rhs) < 1e-10


class TestHTilde:
    def test_isospectral(self, basis64):
        evals, _ = hermitian_eigensystem(h_tilde_matrix(basis64))
        assert np.max(np.abs(evals[:40] - np.arange(40.0))) < 1e-6

    def test_large_lambda_limit(self, grid64):
        basis = ThetaBasis(IsospectralParams(1e6), grid64, 64)
        ht = h_tilde_matrix(basis)
        assert interior_max_abs(ht.mat - np.diag(np.arange(64.0))) < 1e-4

    def test_position_form_h_minus_phi_prime(self, basis64):
        # quadrature matrix elements of (H - phi') theta_n against n delta_mn
        grid = basis64.grid
        x = grid.points
        curv = theta_curvature_table(basis64)
        action = -0.5 * curv + (0.5 * (x * x - 1.0) - basis64.phi_prime_values) * basis64.theta
        gram = basis64.theta @ (grid.weights[None, :] * action).T
        target = np.diag(np.arange(64.0))
        assert interior_max_abs(gram - target) < 1e-6

    def test_degradation_linear_in_inverse_lambda(self, grid64):
        # residuals shrink at least linearly in 1/lambda over 1e2, 1e4, 1e6
        devs = []
        for lam in (1e2, 1e4, 1e6):
            basis = ThetaBasis(IsospectralParams(lam), grid64, 64)
            devs.append(interior_max_abs(u_matrix(basis).mat - np.eye(64)))
        assert devs[1] < 2.0 * devs[0] / 100.0
        assert devs[2] < 2.0 * devs[1] / 100.0


def theta_b_dagger_a_b(basis):
    """b^dagger a b on the theta indices as demo 01 forms it: U^dagger ((b^dagger a) b) U."""
    a_fock = b_dagger_matrix(basis) @ annihilation_matrix(basis.N) @ b_matrix(basis)
    return represent_in_theta(a_fock, u_matrix(basis), basis.tag)


def dense_b_dagger_a_b(basis):
    """U^dagger (b^dagger a b) U as dense products, b^dagger taken as b's adjoint."""
    u, b = u_matrix(basis), b_matrix(basis)
    a_fock = adjoint(b) @ annihilation_matrix(basis.N) @ b
    return adjoint(u) @ a_fock @ u


class TestCompositeLoweringOperator:
    def test_kills_theta0_and_theta1(self, basis64):
        a_theta = theta_b_dagger_a_b(basis64)
        assert np.linalg.norm(a_theta.mat[:, 0]) < 1e-10
        assert np.linalg.norm(a_theta.mat[:, 1]) < 1e-7

    def test_action_on_theta2(self, basis64):
        a_theta = theta_b_dagger_a_b(basis64)
        lhs = a_theta.mat @ np.eye(64)[2]
        assert np.linalg.norm(lhs - math.sqrt(2.0) * np.eye(64)[1]) < 1e-7

    def test_raising_coefficient(self, basis64):
        a_theta = theta_b_dagger_a_b(basis64)
        lhs = a_theta.mat.conj().T @ np.eye(64)[3]
        assert np.linalg.norm(lhs - 6.0 * np.eye(64)[4]) < 1e-7

    def test_matrix_entries(self, basis64):
        a_theta = theta_b_dagger_a_b(basis64)
        fill = b_dagger_a_b_fill(64, basis64.tag)
        assert interior_max_abs(a_theta.mat - fill.mat) < 1e-6

    @pytest.mark.parametrize("lam", [2.0, -3.0])
    def test_is_the_dense_product(self, grid64, lam):
        # b^dagger is b's adjoint bit for bit, so demo 01's lines are those of the dense chain
        basis = ThetaBasis(IsospectralParams(lam), grid64, 64)
        assert np.array_equal(theta_b_dagger_a_b(basis).mat, dense_b_dagger_a_b(basis).mat)


def truncated(basis, N):
    """The same lambda and grid as basis, truncated at N."""
    return ThetaBasis(basis.params, basis.grid, N)


def composite_lowering_cs(z, basis):
    """b+ a b's coherent state as c12 builds it: b+ a b maps theta_{n+1} to n sqrt(n+1) theta_n, the weighted
    shift W_n = n^2 (n+1), so the coefficients are proportional to z^n / (n! sqrt((n+1)!)) on theta_{n+1}."""
    n = np.arange(1.0, basis.N + 1)
    return shift_eigenstate(np.log(n * n * (n + 1.0)), z, 1, basis.tag)


class TestCompositeLoweringCS:
    def test_zero_is_theta1(self, basis64):
        cs = composite_lowering_cs(0.0, basis64)
        expected = np.zeros(64)
        expected[1] = 1.0
        assert np.linalg.norm(cs.coeffs - expected) < 1e-14

    def test_coefficient_ratio(self, basis64):
        z = 0.9 - 0.4j
        cs = composite_lowering_cs(z, basis64)
        ratio = cs.coeffs[3] / cs.coeffs[2]
        assert ratio == pytest.approx(z / (2.0 * math.sqrt(3.0)), abs=1e-12)

    def test_eigenstate_residual(self, basis64):
        z = 0.8 + 0.3j
        cs = composite_lowering_cs(z, basis64)
        fill = b_dagger_a_b_fill(64, basis64.tag)
        moved = apply_operator(fill, cs)
        assert np.linalg.norm(moved.coeffs - z * cs.coeffs) < 1e-7

    def test_tail_guard(self, basis64):
        with pytest.raises(ValueError):
            composite_lowering_cs(80.0, truncated(basis64, 8))

    def test_tail_guard_is_relative_1e24(self, basis64):
        # the dropped term d_N |z|^{2N} = |z|^16 / ((8!)^2 9!) sits above 1e-24 of
        # h (h < 2 here) but below 1e-14
        z, N = 0.35, 8
        tail = abs(z) ** (2 * N) / (math.factorial(N) ** 2 * math.factorial(N + 1))
        assert 2e-24 < tail < 1e-14
        with pytest.raises(TruncationError):
            composite_lowering_cs(z, truncated(basis64, N))
        assert composite_lowering_cs(z, truncated(basis64, 12)).norm() == pytest.approx(1.0, abs=1e-14)


def unitary_image_cs(alpha, basis):
    """U|alpha> as demo 01 builds it: on the theta indices U a U+ is the weighted shift W_n = n, from theta_0."""
    return shift_eigenstate(np.log(np.arange(1.0, basis.N + 1)), alpha, 0, basis.tag)


class TestUnitaryImageCS:
    def test_zero_is_theta0(self, basis64):
        cs = unitary_image_cs(0.0, basis64)
        assert np.linalg.norm(cs.coeffs - np.eye(64)[0]) < 1e-14

    def test_equals_u_times_oscillator_cs(self, basis64):
        # dual route: theta-coefficient wavefunction vs U-mapped Fock expansion
        alpha = 1.0 + 0.5j
        cs = unitary_image_cs(alpha, basis64)
        fock_coeffs = u_matrix(basis64).mat @ cs.coeffs
        grid = basis64.grid
        psi_side = fock_coeffs @ basis64.psi
        theta_side = cs.coeffs @ basis64.theta
        assert grid_norm(psi_side - theta_side, grid) < 1e-7

    def test_a_tilde_eigenstate(self, basis64):
        alpha = 1.0 + 0.5j
        cs = unitary_image_cs(alpha, basis64)
        u = u_matrix(basis64)
        a_tilde = u.mat @ annihilation_matrix(64).mat @ u.mat.conj().T
        fock = u.mat @ cs.coeffs
        assert np.linalg.norm(a_tilde @ fock - alpha * fock) < 1e-7

    def test_unit_norm(self, basis64):
        assert unitary_image_cs(1.2 - 0.7j, basis64).norm() == pytest.approx(1.0, abs=1e-10)

    def test_tail_guard_is_relative_1e24(self, basis64):
        # the dropped term |alpha|^{2N} / N! sits above 1e-24 of h = exp(|alpha|^2) but below 1e-14
        alpha, N = 0.08 + 0.0j, 8
        tail = abs(alpha) ** (2 * N) / math.factorial(N)
        assert 1e-24 * math.exp(abs(alpha) ** 2) < tail < 1e-14
        with pytest.raises(TruncationError):
            unitary_image_cs(alpha, truncated(basis64, N))
        assert unitary_image_cs(alpha, truncated(basis64, 12)).norm() == pytest.approx(1.0, abs=1e-14)

    def test_large_alpha_refused_not_zeroed(self, basis64):
        # exp(-|alpha|^2/2) underflows here; the state must still be refused, not returned as zero
        with pytest.raises(TruncationError):
            unitary_image_cs(30.0, truncated(basis64, 16))
