import cmath
import math
import re
import warnings

import numpy as np
import pytest

from isoladder import coherent
from isoladder.coherent import (
    DivergenceError,
    OrderEstimate,
    TruncationError,
    bargmann_transform,
    cs_residual,
    cs_vector,
    d_theta1_deviation,
    displacement_operator,
    log_d_coefficients,
    normalization_h,
    order_estimate,
    radius_of_convergence,
    shift_eigenstate,
)
from isoladder.fock import (
    StateVector,
    TruncatedOperator,
    adjoint,
    apply_spectral_function,
    commutator,
    interior_block,
    theta_tag,
)
from isoladder.ladder import (
    WeightError,
    WeightSequence,
    constant_weights,
    custom_weights,
    distorted_weights,
    geometric_weights,
    ladder_matrices,
    linear_weights,
    power_law_weights,
    single_weight,
)

TAG = theta_tag(2.0)


class TestDCoefficients:
    def test_unit_weights_inverse_factorials(self):
        d = np.exp(log_d_coefficients(constant_weights(1.0).log_partial_sum_array(11)))
        expected = [1.0 / math.factorial(n) for n in range(12)]
        assert np.allclose(d, expected, rtol=1e-12)

    def test_case_i_scaling(self):
        w = 3.0
        d = np.exp(log_d_coefficients(constant_weights(w).log_partial_sum_array(9)))
        expected = [1.0 / (w**n * math.factorial(n)) for n in range(10)]
        assert np.allclose(d, expected, rtol=1e-12)

    def test_case_iii_closed_form(self):
        d = np.exp(log_d_coefficients(linear_weights().log_partial_sum_array(9)))
        expected = [2.0**n / (math.factorial(n) * math.factorial(n + 1)) for n in range(10)]
        assert np.allclose(d, expected, rtol=1e-12)

    def test_zero_weight_sum_truncates_prefix(self):
        from isoladder.ladder import custom_weights

        d = np.exp(log_d_coefficients(custom_weights([0.0, 1.0, 1.0]).log_partial_sum_array(3)))
        assert list(d) == [1.0]

    def test_no_overflow_at_1e4(self):
        logs = log_d_coefficients(geometric_weights(1.3).log_partial_sum_array(10_000))
        assert np.all(np.isfinite(logs))


class TestNormalization:
    def test_unit_weights_exponential(self):
        for t in (0.0, 0.5, 2.3, 4.0):
            assert normalization_h(t, constant_weights(1.0)) == pytest.approx(math.exp(t), rel=1e-12)

    def test_case_iv_geometric_sum(self):
        w = 2.0
        for t in (0.2, 1.0, 1.9):
            assert normalization_h(t, single_weight(w)) == pytest.approx(w / (w - t), rel=1e-11)

    def test_geometric_q_half_against_direct_sum(self):
        q, t = 0.5, 0.5
        W = geometric_weights(q).partial_sum_array(10_000)
        direct = 1.0
        term = 1.0
        for n in range(10_000):
            term *= t / W[n]
            direct += term
            if term < 1e-17 * direct:
                break
        assert normalization_h(t, geometric_weights(q)) == pytest.approx(direct, rel=1e-12)

    def test_divergence_beyond_radius(self):
        with pytest.raises(DivergenceError) as err:
            normalization_h(2.5, single_weight(2.0))
        assert "radius" in str(err.value)

    def test_sums_the_log_d_coefficients(self, monkeypatch):
        # h reads d_n from log_d_coefficients alone, never the linear partial sums
        def refused(self, nmax):
            raise AssertionError("normalization_h read partial_sum_array")

        monkeypatch.setattr(WeightSequence, "partial_sum_array", refused)
        assert normalization_h(2.0, constant_weights(1.0)) == pytest.approx(math.exp(2.0), rel=1e-12)
        assert normalization_h(1.5, single_weight(2.0)) == pytest.approx(4.0, rel=1e-11)
        assert normalization_h(3.0, linear_weights()) > 1.0


class TestCSVector:
    def test_zeta_zero_is_theta1(self):
        cs = cs_vector(0.0, constant_weights(1.0), 32, TAG)
        assert np.linalg.norm(cs.coeffs - np.eye(32)[1]) < 1e-14

    @pytest.mark.parametrize(
        "weights,zeta",
        [
            (constant_weights(2.0), 2.0),
            (distorted_weights(0.5), 1.0 + 0.5j),
            (linear_weights(), 2.0j),
            (single_weight(2.0), 0.8),
            (geometric_weights(0.7), 0.8 - 0.2j),
            (geometric_weights(1.3), 1.5),
        ],
    )
    def test_unit_norm(self, weights, zeta):
        cs = cs_vector(zeta, weights, 64, TAG)
        assert cs.norm() == pytest.approx(1.0, abs=1e-10)

    def test_eigen_residual(self):
        weights = constant_weights(1.0)
        low, _ = ladder_matrices(weights, 64, TAG)
        cs = cs_vector(1.0 + 0.5j, weights, 64, TAG)
        assert np.linalg.norm(low.mat @ cs.coeffs - (1.0 + 0.5j) * cs.coeffs) < 1e-6

    def test_unit_weight_coefficients_are_standard(self):
        zeta = 1.0 + 0.5j
        cs = cs_vector(zeta, constant_weights(1.0), 64, TAG)
        t = abs(zeta) ** 2
        for n in (0, 1, 2, 7):
            expected = math.exp(-t / 2.0) * zeta**n / math.sqrt(math.factorial(n))
            assert cs.coeffs[n + 1] == pytest.approx(expected, abs=1e-12)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            cs_vector(1.0 + 0.5j, constant_weights(1.0), 12, TAG)

    def test_guard_checks_first_dropped_term(self):
        # the vector keeps n <= N - 2; at N = 30 the dropped n = 29 term
        # 2^29 / 29! is 8.2e-24 of h = e^2, above the 1e-24 guard
        with pytest.raises(TruncationError):
            cs_vector(2**0.5, constant_weights(1.0), 30, TAG)

    def test_normalized_by_kept_terms(self):
        cs = cs_vector(2**0.5, constant_weights(1.0), 40, TAG)
        assert abs(float(np.vdot(cs.coeffs, cs.coeffs).real) - 1.0) < 1e-15

    @pytest.mark.parametrize("N", [3, 2])
    def test_refuses_truncation_below_four(self, N):
        with pytest.raises(ValueError, match="N must be >= 4"):
            cs_vector(0.5, constant_weights(1.0), N, TAG)

    def test_refuses_zeta_at_radius(self):
        with pytest.raises(DivergenceError):
            cs_vector(2**0.5, single_weight(2.0), 64, TAG)

    def test_residual_decreases_with_truncation(self):
        weights = linear_weights()
        zeta = 1.0 + 0.5j
        res = {}
        for N in (48, 96):
            low, _ = ladder_matrices(weights, N, TAG)
            cs = cs_vector(zeta, weights, N, TAG)
            res[N] = np.linalg.norm(low.mat @ cs.coeffs - zeta * cs.coeffs)
        assert res[96] < max(res[48], 1e-12)  # monotone, or both at rounding floor


class TestShiftEigenstate:
    @pytest.mark.parametrize("W, start", [
        (lambda n: n, 0),  # U a U+ on the theta indices: demo 01's unitary image
        (lambda n: n, 1),  # the unit-weight pair: cs_vector
        (lambda n: n * n * (n + 1.0), 1),  # b+ a b: c12's composite-lowering state
    ])
    def test_eigenvector_of_the_weighted_shift(self, W, start):
        # the shift maps e_{start+n} to sqrt(W_n) e_{start+n-1}; the dense matrix is the oracle
        N, z = 48, 0.8 + 0.3j
        n = np.arange(1.0, N + 1)
        state = shift_eigenstate(np.log(W(n)), z, start, TAG)
        shift = np.zeros((N, N))
        for k in range(1, N - start):
            shift[start + k - 1, start + k] = math.sqrt(W(float(k)))
        assert state.basis == TAG and state.dim == N
        assert np.all(state.coeffs[:start] == 0) and abs(state.norm() - 1.0) < 1e-14
        assert np.linalg.norm(shift @ state.coeffs - z * state.coeffs) < 1e-7


class TestOverflowingH:
    @pytest.mark.parametrize("build", [
        lambda: cs_vector(40, constant_weights(1.0), 3000, TAG),
        lambda: shift_eigenstate(np.log(np.arange(1.0, 3001)), 40.0, 0, TAG),
        lambda: normalization_h(2000.0, constant_weights(1.0)),
    ], ids=["cs_vector", "shift_eigenstate", "normalization_h"])
    def test_refused_by_name(self, build):
        # h = e^t past e^709.78 is no float: a named refusal, not OverflowError or inf with overflow warnings
        with pytest.raises(TruncationError, match="overflows a float"):
            build()

    def test_h_just_below_overflow_is_summed(self):
        # e^700 is a float, and so is every term and partial sum: summed, not refused.  Its terms come from
        # log d_n = -(log 1 + ... + log n), ~1e4 in size by n ~ 1400, so they carry ~1e-12 relative rounding
        assert normalization_h(700.0, constant_weights(1.0)) == pytest.approx(math.exp(700.0), rel=1e-10)
        state = shift_eigenstate(np.log(np.arange(1.0, 1601)), 26.0, 0, TAG)
        assert abs(state.norm() - 1.0) < 1e-14


class TestBargmann:
    def test_theta1_maps_to_constant_one(self):
        psi = StateVector(np.eye(16)[1], TAG)
        vals = bargmann_transform(psi, constant_weights(1.0), [0.3, 1.0 + 1.0j, -2.0])
        assert np.allclose(vals, 1.0)

    def test_growth_bound(self):
        weights = distorted_weights(0.5)
        cs = cs_vector(0.9 + 0.3j, weights, 48, TAG)
        samples = [0.5, 1.2j, 1.0 - 0.8j]
        vals = bargmann_transform(cs, weights, samples)
        for z, v in zip(samples, vals):
            bound = cs.norm() * math.sqrt(normalization_h(abs(z) ** 2, weights))
            assert abs(v) <= bound * (1 + 1e-12)

    def test_cs_transform_matches_direct_sum(self):
        # direct-summation oracle for the defining formula
        # Psi(z) = sum_n d_n^{1/2} <theta_{n+1}|Psi> z^n with <theta_{n+1}|cs> = h^{-1/2} d_n^{1/2} zeta0^n
        weights = constant_weights(1.0)
        zeta0 = 0.7 + 0.2j
        cs = cs_vector(zeta0, weights, 48, TAG)
        d = np.exp(log_d_coefficients(weights.log_partial_sum_array(46)))
        h0 = normalization_h(abs(zeta0) ** 2, weights)
        samples = [0.0, 0.4, -0.9j, 1.1 + 0.3j, -1.0 - 1.0j]
        vals = bargmann_transform(cs, weights, samples)
        for z, v in zip(samples, vals):
            direct = sum(d[n] * zeta0**n * z**n for n in range(47)) / math.sqrt(h0)
            assert v == pytest.approx(direct, abs=1e-12)

    def test_rejects_sample_beyond_radius(self):
        weights = single_weight(2.0)
        psi = StateVector(np.eye(16)[1], TAG)
        with pytest.raises(ValueError):
            bargmann_transform(psi, weights, [2.0])

    def test_refuses_under_the_radius_rule_of_h(self):
        # sqrt(2) (1 - 1e-13) sits inside the 1e-12 margin h and cs_vector refuse
        weights = single_weight(2.0)
        with pytest.raises(DivergenceError):
            bargmann_transform(StateVector(np.eye(16)[1], TAG), weights, [0.3, math.sqrt(2.0) * (1 - 1e-13)])

    def test_rejects_fock_state(self):
        from isoladder.fock import FOCK

        with pytest.raises(ValueError):
            bargmann_transform(StateVector(np.eye(8)[1], FOCK), constant_weights(1.0), [0.1])


class TestOrderEstimate:
    def test_case_i_and_ii(self):
        for weights in (constant_weights(2.0), constant_weights(0.5), distorted_weights(0.5)):
            est = order_estimate(weights)
            assert est.entire
            assert est.rho == pytest.approx(2.0, abs=0.02)

    def test_case_iii(self):
        est = order_estimate(linear_weights())
        assert est.rho == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("nu", [-0.435, 0.5, 1.0, 2.0, 3.0])
    def test_power_law(self, nu):
        # nu = -0.435 is the fit domain's edge, where the first omitted term bounds the error by 0.05
        est = order_estimate(power_law_weights(nu))
        assert est.rho == pytest.approx(2.0 / (1.0 + nu), abs=0.05)

    def test_power_law_below_the_fit_domain_is_refused(self):
        with pytest.raises(WeightError, match=r"order fit needs power weights with nu >= -0\.435, got -0\.436"):
            order_estimate(power_law_weights(-0.436))

    @pytest.mark.parametrize("w, drift", [(50.0, 0.0549), (100.0, 0.108), (1000.0, 0.757), (1e13, 2.23e9)])
    def test_distorted_weights_past_the_fit_domain_are_refused(self, w, drift):
        # W_n = n + w - 1: the slope of log W_n in log n is n / (n + w - 1), far from steady over [10^3, 10^4]
        # for large w.  At w = 1000 the fit read order 0, and at w = 1e13 the flat log sums read as bounded
        with pytest.raises(WeightError, match=r"order fit needs a steady slope of log W_n in log n over n in "
                                              r"\[1000, 10000\], got .*: rho would move by about ") as err:
            order_estimate(distorted_weights(w))
        assert float(re.search(r"about (\S+),", str(err.value)).group(1)) == pytest.approx(drift, rel=2e-3)

    @pytest.mark.parametrize("w", [10.0, 30.0, 40.0])
    def test_distorted_weights_inside_the_fit_domain_read_rho_within_0_05(self, w):
        # the drift 2|s_hi - s_lo|/s_hi^2 tracks the fit's error here: 0.0103, 0.0329 and 0.0440 against
        # errors of 0.0100, 0.0311 and 0.0416
        assert order_estimate(distorted_weights(w)).rho == pytest.approx(2.0, abs=0.05)

    def test_a_custom_list_is_held_to_the_same_domain(self):
        # n^-0.9 as a list: the power rule's zeta(-nu) cut cannot see it, the window's drift (1.52) does
        with pytest.raises(WeightError, match="steady slope"):
            order_estimate(custom_weights([n**-0.9 for n in range(1, 10_001)]))

    def test_flat_log_sums_that_still_grow_are_unbounded(self):
        # W_n = 1e13 + n - 1 grows by 5e-10 of itself over the window's second half, and its increments do not
        # shrink: no limit, so no finite radius
        assert radius_of_convergence(distorted_weights(1e13)) == math.inf

    def test_q_above_one_gives_order_zero(self):
        est = order_estimate(geometric_weights(1.2))
        assert est.entire and est.rho == 0.0

    def test_q_exactly_one_is_standard(self):
        est = order_estimate(geometric_weights(1.0))
        assert est.rho == pytest.approx(2.0, abs=0.02)

    def test_q_below_one_not_entire(self):
        est = order_estimate(geometric_weights(0.5))
        assert not est.entire
        assert est.rho is None
        assert est.radius == pytest.approx(1.0, abs=1e-3)
        assert est.diagnostics.get("alternative_sqrt_q") == pytest.approx(math.sqrt(0.5))

    def test_case_iv_not_entire(self):
        est = order_estimate(single_weight(2.0))
        assert not est.entire
        assert est.radius == pytest.approx(math.sqrt(2.0), abs=1e-3)


class TestZeroFirstWeight:
    """w_1 = 0: W_n = 0 on a prefix, so the family is finite: log_d_coefficients keeps d_0 = 1
    alone, the coherent state is theta_1 and h = 1."""

    def test_cs_is_theta1_and_radius_infinite(self):
        cs = cs_vector(0.5 + 0.2j, single_weight(0.0), 16, TAG)
        assert np.array_equal(cs.coeffs, np.eye(16)[1])
        assert radius_of_convergence(single_weight(0.0)) == math.inf

    @pytest.mark.parametrize("weights", [single_weight(0.0), custom_weights([0.0] + [1.0] * 63)],
                             ids=["single", "custom"])
    def test_h_is_one(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalization_h(1.0, weights) == 1.0

    @pytest.mark.parametrize("weights", [
        single_weight(0.0),
        custom_weights([0.0] + [1.0] * 10_000),
        custom_weights([0.0, 1.0] + [0.0] * 62),
    ], ids=["single", "growing", "bounded"])
    def test_order_estimate_refuses(self, weights):
        with pytest.raises(WeightError, match="w_1 > 0"):
            order_estimate(weights)

    def test_nan_order_refused(self):
        with pytest.raises(ValueError, match="rho >= 0"):
            OrderEstimate(entire=True, rho=math.nan, radius=math.inf)


class TestOneGrowthPass:
    """Each weights object reads log W_n over the 10^4 window once, for every growth question."""

    @pytest.fixture
    def passes(self, monkeypatch):
        lengths = []
        log_partial_sums = WeightSequence.log_partial_sum_array

        def counted(self, nmax):
            lengths.append(nmax)
            return log_partial_sums(self, nmax)

        monkeypatch.setattr(WeightSequence, "log_partial_sum_array", counted)
        return lengths

    @pytest.mark.parametrize("weights", [constant_weights(2.0), single_weight(2.0), geometric_weights(0.5)],
                             ids=lambda w: w.label())
    def test_order_estimate_and_radius(self, weights, passes):
        order_estimate(weights)
        assert passes == [10_000]
        radius_of_convergence(weights)
        assert passes == [10_000]

    def test_cs_vector(self, passes):
        cs_vector(0.5 + 0.2j, single_weight(2.0), 32, TAG)
        assert passes == [10_000, 32]

    def test_bargmann_transform(self, passes):
        bargmann_transform(StateVector(np.eye(16)[1], TAG), single_weight(2.0), [0.3, 0.5j, -1.0])
        assert passes == [10_000, 15]

    def test_h_of_a_finite_family_at_once(self, passes):
        normalization_h(1.0, single_weight(0.0))
        assert passes == [10_000, 256]


class TestRadius:
    def test_case_iv(self):
        assert radius_of_convergence(single_weight(2.0)) == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_geometric_half(self):
        assert radius_of_convergence(geometric_weights(0.5)) == pytest.approx(1.0, abs=1e-3)

    def test_unit_weights_unbounded(self):
        assert radius_of_convergence(constant_weights(1.0)) == math.inf


class TestFiniteCustomLists:
    def test_bounded_custom_radius_from_available_prefix(self):
        from isoladder.ladder import custom_weights

        weights = custom_weights([2.0] + [0.0] * 63)  # single-weight profile, finite list
        assert radius_of_convergence(weights) == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_growing_custom_supports_cs(self):
        from isoladder.ladder import custom_weights

        weights = custom_weights([1.0] * 96)
        cs = cs_vector(0.8 + 0.2j, weights, 48, TAG)
        assert cs.norm() == pytest.approx(1.0, abs=1e-10)

    def test_order_fit_refuses_short_lists(self):
        from isoladder.coherent import WeightSequenceTooShort
        from isoladder.ladder import custom_weights

        with pytest.raises(WeightSequenceTooShort):
            order_estimate(custom_weights([1.0 + 0.1 * n for n in range(64)]))

    def test_h_refuses_uncertifiable_tail(self):
        from isoladder.coherent import WeightSequenceTooShort
        from isoladder.ladder import custom_weights

        with pytest.raises(WeightSequenceTooShort):
            normalization_h(20.0, custom_weights([1.0] * 24))


class TestDisplacement:
    def test_zero_is_identity(self):
        d = displacement_operator(0.0, 64, TAG)
        assert np.max(np.abs(d.mat - np.eye(64))) < 1e-12

    def test_displaced_theta1_is_cs(self):
        zeta = 0.7 - 0.2j
        d = displacement_operator(zeta, 64, TAG)
        moved = d.mat @ np.eye(64)[1]
        cs = cs_vector(zeta, constant_weights(1.0), 64, TAG)
        assert np.linalg.norm(moved - cs.coeffs) < 1e-6
        # c09's check is this norm bit for bit, with its bound
        assert d_theta1_deviation(zeta, d) == (float(np.linalg.norm(moved - cs.coeffs)), 1e-6)

    def test_theta1_check_fails_a_displacement_built_for_another_zeta(self):
        # D(0.3) read at zeta = 0.5: theta_1's column is 0.199 from |0.5>, far past the 1e-6
        deviation, bound = d_theta1_deviation(0.5, displacement_operator(0.3, 64, TAG))
        assert deviation == pytest.approx(0.199, abs=5e-4) and bound == 1e-6

    def test_unitarity(self):
        d = displacement_operator(1.3 + 0.4j, 64, TAG)
        assert np.max(np.abs(interior_block((adjoint(d) @ d).mat - np.eye(64)))) < 1e-7

    @pytest.mark.parametrize("N", [64, 128])
    @pytest.mark.parametrize("zeta", [0.7 - 0.2j, 1.3 + 0.4j, -0.5, 2j, -1.2 - 1.6j])
    def test_real_generator_equals_spectral_route(self, zeta, N):
        # the spectral calculus on the complex Hermitian i(zeta a1+ - conj(zeta) a1), t -> exp(-i t)
        low, high = ladder_matrices(constant_weights(1.0), N, TAG)
        generator = TruncatedOperator(1j * (zeta * high.mat - np.conj(zeta) * low.mat), TAG)
        spectral = apply_spectral_function(generator, lambda t: cmath.exp(-1j * t))
        d = displacement_operator(zeta, N, TAG)
        assert d.mat.dtype == np.complex128 and d.basis == TAG
        assert np.max(np.abs(d.mat - spectral.mat)) < 1e-12

    def test_rejects_large_zeta(self):
        with pytest.raises(ValueError):
            displacement_operator(2.5, 64, TAG)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            displacement_operator(0.5, 32, TAG)


class TestBandRoutes:
    """Each one-band operator applied as its band, against the dense product it replaced: equal bit for bit."""

    @pytest.mark.parametrize("N", [48, 64, 512])
    @pytest.mark.parametrize("weights", [constant_weights(2.0), distorted_weights(0.5), linear_weights()],
                             ids=lambda w: w.label())
    def test_cs_residual_is_the_dense_product(self, weights, N):
        # c08's three rules at c08's smallest size, the battery's and the largest the report is run at
        zeta = 1.0 + 0.5j
        cs = cs_vector(zeta, weights, N, TAG)
        low = ladder_matrices(weights, N)[0]
        assert cs_residual(weights, zeta, N) == float(np.linalg.norm(low.mat @ cs.coeffs - zeta * cs.coeffs))

    @pytest.mark.parametrize("N", [64, 128])
    @pytest.mark.parametrize("zeta", [0.7 - 0.2j, -1.2 - 1.6j])
    def test_displacement_jacobi_matrix_is_the_dense_sum(self, zeta, N, monkeypatch):
        seen, spectral = [], coherent.apply_spectral_function
        monkeypatch.setattr(coherent, "apply_spectral_function", lambda x, g: seen.append(x) or spectral(x, g))
        displacement_operator(zeta, N, TAG)
        low, high = ladder_matrices(constant_weights(1.0), N, TAG)
        assert np.array_equal(seen[0].mat, abs(zeta) * (low + high).mat) and seen[0].basis == TAG


def unit_h_tilde_1(N):
    """a1+ a1 for unit weights, as demo 04 builds it: eigenvalues 0, 0, 1, 2, ... in the theta family."""
    low, high = ladder_matrices(constant_weights(1.0), N, TAG)
    return high @ low


class TestHTilde1:
    def test_spectrum_shifted_by_one(self):
        h1 = unit_h_tilde_1(64)
        diag = np.real(np.diag(h1.mat))
        assert diag[0] == 0.0 and diag[1] == 0.0
        assert np.allclose(diag[2:59], np.arange(1.0, 58.0), atol=1e-12)

    def test_unit_commutator_on_excited_block(self):
        low, high = ladder_matrices(constant_weights(1.0), 64, TAG)
        comm = commutator(low, high).mat
        assert np.allclose(np.diag(comm)[1:59], 1.0, atol=1e-12)

    def test_cs_is_ground_state_of_displaced_hamiltonian(self):
        zeta = 0.7 - 0.2j
        d = displacement_operator(zeta, 64, TAG)
        h1 = unit_h_tilde_1(64)
        moved = d.mat @ h1.mat @ d.mat.conj().T
        cs = cs_vector(zeta, constant_weights(1.0), 64, TAG)
        assert np.linalg.norm(moved @ cs.coeffs) < 1e-6
