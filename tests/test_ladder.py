import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isoladder.fock import (
    FOCK,
    TruncatedOperator,
    adjoint,
    annihilation_matrix,
    apply_spectral_function,
    commutator,
    identity_matrix,
    interior_max_abs,
    number_matrix,
)
from isoladder.coherent import displacement_operator
from isoladder.isospectral import (
    IsospectralParams,
    ThetaBasis,
    b_dagger_matrix,
    b_matrix,
    h_tilde_matrix,
    u_matrix,
)
from isoladder import ladder
from isoladder.ladder import (
    WeightError,
    WeightSequence,
    _conjugated_band,
    c_coefficients_closed,
    c_coefficients_recursive,
    closed_form_case,
    constant_weights,
    custom_weights,
    distorted_weights,
    geometric_weights,
    ladder_fill,
    ladder_matrices,
    linear_weights,
    power_law_weights,
    represent_in_theta,
    resolvent_inv_sqrt,
    shift_matrix,
    single_weight,
    transport_to_theta,
)

# one weight rule per closed form (the paper's cases i-v), geometric below and above q = 1
CLOSED_FORM_WEIGHTS = [
    constant_weights(2.0),
    distorted_weights(0.5),
    linear_weights(),
    single_weight(2.0),
    geometric_weights(0.7),
    geometric_weights(1.3),
]


class TestWeightSequence:
    def test_variants(self):
        assert distorted_weights(2.0).weight_array(1)[-1] == 2.0
        assert distorted_weights(2.0).weight_array(5)[-1] == 1.0
        assert linear_weights().weight_array(7)[-1] == 7.0
        assert single_weight(3.0).weight_array(2)[-1] == 0.0
        assert geometric_weights(0.5).weight_array(3)[-1] == 0.125
        assert power_law_weights(2.0).weight_array(3)[-1] == 9.0
        assert custom_weights([1.0, 2.5]).weight_array(2)[-1] == 2.5
        labels = [
            (constant_weights(2.0), "constant(w=2)"),
            (distorted_weights(0.5), "distorted(w=0.5)"),
            (linear_weights(), "linear"),
            (single_weight(2.0), "single(w=2)"),
            (geometric_weights(0.7), "geometric(q=0.7)"),
            (power_law_weights(2.0), "power(nu=2)"),
            (custom_weights([1.0, 0.5, 2.0]), "custom[3]"),
        ]
        assert [weights.label() for weights, _ in labels] == [label for _, label in labels]

    @pytest.mark.parametrize("weights, nmax, formula", [
        (constant_weights(2.0), 10_000, lambda n: 2.0),
        (distorted_weights(0.5), 10_000, lambda n: 0.5 if n == 1 else 1.0),
        (linear_weights(), 10_000, lambda n: float(n)),
        (single_weight(2.0), 10_000, lambda n: 2.0 if n == 1 else 0.0),
        (custom_weights(np.random.default_rng(7).uniform(0.0, 3.0, 10_000)), 10_000, None),
        (geometric_weights(0.7), 512, lambda n: 0.7**n),
        (geometric_weights(1.3), 512, lambda n: 1.3**n),
        (power_law_weights(0.5), 512, lambda n: float(n) ** 0.5),
        (power_law_weights(1.7), 512, lambda n: float(n) ** 1.7),
    ], ids=lambda v: v.label() if hasattr(v, "label") else None)
    def test_weight_array_is_the_per_entry_formula(self, weights, nmax, formula):
        # bit for bit, including the geometric and power entries numpy's pow would round differently
        formula = formula or (lambda n: weights.param[n - 1])
        oracle = np.array([formula(n) for n in range(1, nmax + 1)])
        assert np.array_equal(weights.weight_array(nmax), oracle)

    def test_partial_sums(self):
        w = linear_weights()
        assert w.partial_sum_array(4)[-1] == 10.0
        assert np.allclose(w.partial_sum_array(5), [1, 3, 6, 10, 15])

    def test_invalid(self):
        with pytest.raises(WeightError):
            constant_weights(0.0)
        with pytest.raises(WeightError):
            geometric_weights(-1.0)
        with pytest.raises(WeightError):
            custom_weights([1.0, -0.5])
        with pytest.raises(WeightError):
            custom_weights([1.0]).weight_array(2)[-1]
        for make, value in [
            (constant_weights, math.inf), (distorted_weights, math.nan), (single_weight, math.inf),
            (geometric_weights, math.nan), (power_law_weights, math.inf),
            (custom_weights, [1.0, math.nan]),
        ]:
            with pytest.raises(WeightError, match="need finite"):
                make(value)

    def test_holds_its_kind_and_one_parameter(self):
        # a rule carries only the parameter it reads, so equal rules compare equal and print alike
        assert [f.name for f in dataclasses.fields(WeightSequence)] == ["kind", "param"]
        assert WeightSequence("constant", 2.0) == constant_weights(2.0)
        with pytest.raises(TypeError):
            WeightSequence("constant", w=2.0, q=3.0)
        with pytest.raises(WeightError, match="linear weights take no parameter, got 3.0"):
            WeightSequence("linear", 3.0)
        with pytest.raises(WeightError, match="unknown weight variant 'foo'"):
            WeightSequence("foo", 2.0)


class TestGeneralizedDoubleFactorial:
    """The W_n!! = W_n W_{n-2} ... products inside c_n = ((n-1)!!/n!!) (W_n!!/W_{n-1}!!)."""

    def test_reduces_to_integer_double_factorial(self):
        # w = 1 so W_k = k: W_6!! = 48 = 6!!, W_5!! = 15 = 5!!, and c_6 = 1
        c = c_coefficients_closed(constant_weights(1.0), 7)
        assert c[6] == pytest.approx((15.0 / 48.0) * (48.0 / 15.0), rel=1e-13)

    def test_single_factor(self):
        assert c_coefficients_closed(custom_weights([4.0]), 2)[1] == pytest.approx(4.0, rel=1e-14)

    def test_linear_weights_n3(self):
        # W = 1, 3, 6: c_3 = (2!!/3!!) (W_3 W_1 / W_2) = (2/3)(6/3)
        assert c_coefficients_closed(linear_weights(), 4)[3] == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_empty_product(self):
        assert list(c_coefficients_closed(linear_weights(), 1)) == [1.0]

    def test_out_of_range(self):
        with pytest.raises(WeightError):
            c_coefficients_closed(custom_weights([1.0]), 3)


class TestCoefficients:
    def test_unit_weights_all_one(self):
        assert np.allclose(c_coefficients_recursive(constant_weights(1.0), 50), 1.0, atol=1e-14)

    def test_c1_is_w1(self):
        for w in (0.3, 1.0, 4.5):
            assert c_coefficients_recursive(distorted_weights(w), 4)[1] == pytest.approx(w)

    def test_distorted_w2_hand_unrolled(self):
        # c0 c1 = 2; 2 c1 c2 - c1 c0 = 1 -> c2 = 3/4; 3 c2 c3 = W3 = 4 -> c3 = 16/9
        c = c_coefficients_recursive(distorted_weights(2.0), 4)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(2.0, rel=1e-14)
        assert c[2] == pytest.approx(0.75, rel=1e-14)
        assert c[3] == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_closed_form_base_cases(self):
        clo = c_coefficients_closed(distorted_weights(2.0), 3)
        assert clo[1] == pytest.approx(2.0, rel=1e-13)  # (0!!/1!!)(W1!!/W0!!) = W1
        assert clo[2] == pytest.approx(0.5 * 3.0 / 2.0, rel=1e-13)  # (1/2)(W2/W1)

    @pytest.mark.parametrize("weights", CLOSED_FORM_WEIGHTS[:5], ids=lambda w: w.label())
    def test_closed_matches_recursive(self, weights):
        rec = c_coefficients_recursive(weights, 201)
        clo = c_coefficients_closed(weights, 201)
        assert np.max(np.abs(clo - rec) / np.abs(rec)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 600).flatmap(lambda N: st.tuples(st.just(N), st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=max(N - 1, 1), max_size=max(N - 1, 1)))))
    @example((1, [1e-3]))
    @example((2, [1e3]))
    @example((3, [1e-3, 1e3]))
    @example((600, [1e-3, 1e3] * 300))
    def test_closed_matches_recursive_custom(self, case):
        # the telescoped product and the recursion share no intermediate values
        N, values = case
        weights = custom_weights(values)
        rec = c_coefficients_recursive(weights, N)
        clo = c_coefficients_closed(weights, N)
        assert clo.shape == rec.shape == (N,)
        assert np.max(np.abs(clo - rec) / np.abs(rec)) < 1e-12

    def test_closed_form_reads_partial_sums_near_the_float_maximum(self):
        # W_500 = 5.0e307: (n - 1) W_n would overflow in the ratio, though every c_n is finite
        weights = constant_weights(1e305)
        rec = c_coefficients_recursive(weights, 501)
        with np.errstate(over="raise"):
            clo = c_coefficients_closed(weights, 501)
        assert np.all(np.isfinite(clo))
        assert np.max(np.abs(clo - rec) / np.abs(rec)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=8, max_size=40))
    def test_telescoped_identity(self, values):
        weights = custom_weights(values)
        n_max = len(values)
        c = c_coefficients_recursive(weights, n_max)
        W = weights.partial_sum_array(n_max - 1)
        n = np.arange(n_max - 1)
        telescoped = (n + 1) * c[:-1] * c[1:]
        assert np.max(np.abs(telescoped - W) / np.abs(W)) < 1e-12

    def test_rejects_zero_first_weight(self):
        with pytest.raises(WeightError):
            c_coefficients_recursive(custom_weights([0.0, 1.0, 1.0]), 3)

    def test_rejects_partial_sums_past_a_float(self):
        # W_2 = 2e308 overflows though each weight is finite: a WeightError, never inf, nan or a RuntimeWarning
        weights = constant_weights(1e308)
        rule = re.escape(weights.label())
        with pytest.raises(WeightError, match=f"^{rule} weights' partial sums overflow a float by n = 4$"):
            weights.partial_sum_array(4)
        with pytest.raises(WeightError, match=f"^{rule} weights overflow a float in c_n by n = 4$"):
            c_coefficients_recursive(weights, 5)
        assert weights.partial_sum_array(1)[-1] == 1e308

    @pytest.mark.parametrize("weights", CLOSED_FORM_WEIGHTS[:5] + [custom_weights(
        np.random.default_rng(501).uniform(0.1, 3.0, 501))], ids=lambda w: w.label())
    def test_recursion_equals_numpy_scalar_loop(self, weights):
        # the recursion on np.float64 scalars in a float64 array: the same binary64 arithmetic, so the same bits
        N = 502 if weights.kind == "custom" else 201
        w = weights.weight_array(N - 1)
        c = np.zeros(N)
        c[0], c[1] = 1.0, w[0]
        for n in range(1, N - 1):
            c[n + 1] = (w[n] + n * c[n] * c[n - 1]) / ((n + 1) * c[n])
        assert np.array_equal(c_coefficients_recursive(weights, N), c)


class TestShift:
    def test_exact_partial_isometry_for_unit_weights(self):
        N = 16
        s = shift_matrix(constant_weights(1.0), N)
        ssd = s.mat @ s.mat.conj().T
        sds = s.mat.conj().T @ s.mat
        assert np.allclose(ssd[: N - 2, : N - 2], np.eye(N - 2), atol=1e-13)
        vacuum_projector_complement = np.eye(N)
        vacuum_projector_complement[0, 0] = 0.0
        assert np.allclose(sds[: N - 2, : N - 2], vacuum_projector_complement[: N - 2, : N - 2], atol=1e-13)

    def test_unit_weights_closed_form(self):
        N = 24
        s = shift_matrix(constant_weights(1.0), N)
        closed = apply_spectral_function(number_matrix(N), lambda t: (1 + t) ** -0.5) @ annihilation_matrix(N)
        assert np.max(np.abs(s.mat - closed.mat)) < 1e-12

    def test_distorted_diag_matches_table(self):
        N = 12
        shifted = shift_matrix(distorted_weights(2.0), N)
        ssd = shifted.mat @ shifted.mat.conj().T
        c = c_coefficients_recursive(distorted_weights(2.0), N)
        assert np.allclose(np.diag(ssd)[: N - 1], c[: N - 1], atol=1e-13)
        assert np.diag(ssd)[:4] == pytest.approx([1.0, 2.0, 0.75, 16.0 / 9.0])


class TestLadderMatrices:
    def test_kernel_structure(self):
        low, high = ladder_matrices(distorted_weights(0.5), 12)
        assert np.linalg.norm(low.mat[:, 0]) == 0.0
        assert np.linalg.norm(low.mat[:, 1]) == 0.0  # a1 |1> = 0
        assert np.linalg.norm(high.mat[:, 0]) == 0.0

    def test_unit_weight_entries(self):
        low, _ = ladder_matrices(constant_weights(1.0), 8)
        for n in range(1, 7):
            assert low.mat[n, n + 1] == pytest.approx(math.sqrt(n))

    def test_commutator_diagonal(self):
        N = 16
        for weights in (constant_weights(2.0), distorted_weights(0.5), geometric_weights(1.3)):
            low, high = ladder_matrices(weights, N)
            comm = commutator(low, high).mat
            target = np.zeros(N)
            target[1:] = weights.weight_array(N - 1)
            scale = np.maximum(1.0, target[: N - 5])
            dev = np.max(np.abs(np.diag(comm)[: N - 5] - target[: N - 5]) / scale)
            assert dev < 1e-12, weights.label()

    @pytest.mark.parametrize("weights", [constant_weights(1.0), geometric_weights(1.3)], ids=lambda w: w.label())
    def test_off_diagonal_entry_fails_the_shared_verdict(self, weights):
        # the diagonal is exact, so the residual is 0; one 1e-3 off-diagonal entry still fails
        N = 16
        comm = np.diag(np.concatenate(([0.0], weights.weight_array(N - 1))))
        assert ladder._commutator_deviation(ladder.commutator_diagonal(comm, weights)) == 0.0
        comm[2, 3] = 1e-3
        check = ladder.commutator_diagonal(comm, weights)
        assert check["residual"] == 0.0
        assert ladder._commutator_deviation(check) == 1e-3 / max(1.0, max(check["target"]))
        assert not ladder._commutator_deviation(check) < 1e-6

    def test_refuses_truncation_one(self):
        # the band routes build no N x N matrix, and the fill still refuses N = 1 as the dense S did
        with pytest.raises(ValueError, match="truncation size must be >= 2, got 1"):
            ladder_matrices(linear_weights(), 1)

    def test_two_path_agreement_is_enforced(self):
        low, _ = ladder_matrices(linear_weights(), 10)
        s = shift_matrix(linear_weights(), 10)
        conj = adjoint(s) @ annihilation_matrix(10) @ s
        assert np.max(np.abs(conj.mat - low.mat)) < 1e-12

    @pytest.mark.parametrize("N", [8, 64, 512])
    @pytest.mark.parametrize("weights", CLOSED_FORM_WEIGHTS + [power_law_weights(0.5), power_law_weights(1.7)],
                             ids=lambda w: w.label())
    def test_conjugated_band_is_the_dense_product(self, weights, N):
        # the check compares on the band, so the band must be S^dagger a S bit for bit, and all of it
        s = shift_matrix(weights, N)
        dense = (adjoint(s) @ annihilation_matrix(N) @ s).mat
        band = _conjugated_band(weights, N)
        assert np.array_equal(np.diag(dense, 1), band)
        assert np.array_equal(dense, np.diag(band, 1))

    def test_perturbed_fill_fails_the_two_path_check(self, monkeypatch):
        fill = ladder.ladder_fill

        def perturbed(weights, N, basis=FOCK):
            mat = fill(weights, N, basis).mat.copy()
            mat[3, 4] *= 1.0 + 1e-9
            return TruncatedOperator(mat, basis)

        monkeypatch.setattr(ladder, "ladder_fill", perturbed)
        with pytest.raises(WeightError, match=r"conjugation and direct fill disagree by \d"):
            ladder_matrices(linear_weights(), 16)


def dense_transport(x, u):
    """The dense chain (U X) U^T of a real U: the oracle transport_to_theta must equal bit for bit."""
    return (u.mat @ x.mat) @ u.mat.T


class TestTransport:
    @pytest.mark.parametrize("lam", [2.0, -3.0])
    def test_equals_dense_chain(self, grid64, lam):
        basis = ThetaBasis(IsospectralParams(lam), grid64, 64)
        u, a = u_matrix(basis), annihilation_matrix(64)
        low, high = ladder_matrices(geometric_weights(1.1), 64)
        ops = {"I": identity_matrix(64), "n": number_matrix(64), "a": a, "a+": adjoint(a),
               "S": shift_matrix(distorted_weights(2.0), 64), "a1": low, "a1+": high,
               "0": TruncatedOperator(np.zeros((64, 64)), FOCK)}
        for name, x in ops.items():
            out = transport_to_theta(x, u, basis.tag)
            assert out.basis == basis.tag
            assert np.array_equal(out.mat, dense_transport(x, u)), name

    def test_two_diagonals_refused(self, basis64):
        a = annihilation_matrix(64)
        with pytest.raises(ValueError, match="one nonzero diagonal: 63 entries lie off offset 1"):
            transport_to_theta(a + adjoint(a), u_matrix(basis64), basis64.tag)

    def test_identity_transports_to_identity(self, basis64):
        u = u_matrix(basis64)
        out = transport_to_theta(identity_matrix(64), u, basis64.tag)
        assert np.max(np.abs(out.mat - np.eye(64))) < 1e-12

    def test_spectrum_preserved(self, basis64):
        u = u_matrix(basis64)
        x = number_matrix(64)
        out = transport_to_theta(x, u, basis64.tag)
        evals = np.linalg.eigvalsh(out.mat)
        assert np.max(np.abs(evals - np.arange(64.0))) < 1e-8

    def test_two_path_theta_construction(self, basis64):
        # conjugating with transported S vs transporting the conjugated fill
        u = u_matrix(basis64)
        weights = distorted_weights(2.0)
        s = shift_matrix(weights, 64)
        a = annihilation_matrix(64)
        s_t = transport_to_theta(s, u, basis64.tag)
        a_t = transport_to_theta(a, u, basis64.tag)
        path_a = adjoint(s_t) @ a_t @ s_t
        path_b = transport_to_theta(ladder_fill(weights, 64), u, basis64.tag)
        assert interior_max_abs(path_a.mat - path_b.mat) < 1e-7

    def test_round_trip(self, basis64):
        u = u_matrix(basis64)
        x = annihilation_matrix(64)
        back = represent_in_theta(transport_to_theta(x, u, basis64.tag), u, FOCK)
        assert np.max(np.abs(back.mat - x.mat)) < 1e-12

    def test_real_lambda_chain_stays_real(self, basis64):
        u = u_matrix(basis64)
        low, high = ladder_matrices(geometric_weights(1.1), 64)
        low_t = transport_to_theta(low, u, basis64.tag)
        high_t = transport_to_theta(high, u, basis64.tag)
        chain = [u, b_matrix(basis64), b_dagger_matrix(basis64), h_tilde_matrix(basis64), low, high,
                 low_t, high_t, commutator(low_t, high_t),
                 represent_in_theta(commutator(low_t, high_t), u, basis64.tag)]
        assert [op.mat.dtype for op in chain] == [np.float64] * len(chain)
        assert displacement_operator(0.5 + 0.25j, 64, FOCK).mat.dtype == np.complex128


def dense_closed_form(weights, b):
    """The closed forms as the dense chain s (b+ L(H) a R(H) b), each g(H) an N x N diagonal matrix and a
    the dense lowering matrix, as an array: the oracle closed_form_case must equal bit for bit."""
    N = b.dim
    a = annihilation_matrix(N)
    bd = adjoint(b)

    def of_h(g):
        return TruncatedOperator(np.diag([g(float(t)) for t in range(N)]), b.basis)

    r = of_h(lambda t: (1.0 + t) ** -0.5)
    inv1 = of_h(lambda t: 1.0 / (1.0 + t))
    if weights.kind == "constant":
        return (bd @ r @ a @ r @ b).mat * math.sqrt(weights.param)
    if weights.kind == "distorted":
        w = weights.param
        return (bd @ of_h(lambda t: ((t + w) / (t + 2.0)) ** 0.5 / (t + 1.0)) @ a @ b).mat
    if weights.kind == "linear":
        return (bd @ r @ a @ b).mat * (1.0 / math.sqrt(2.0))
    if weights.kind == "single":
        return (bd @ inv1 @ a @ r @ b).mat * math.sqrt(weights.param)
    assert weights.kind == "geometric"
    q, lq = weights.param, math.log(weights.param)

    def g(t):
        return t + 1.0 if abs(q - 1.0) < 1e-14 else math.expm1((t + 1.0) * lq) / math.expm1(lq)

    return (bd @ inv1 @ of_h(lambda t: math.sqrt(g(t))) @ a @ r @ b).mat * math.sqrt(q)


class TestClosedForms:
    @pytest.mark.parametrize("weights", CLOSED_FORM_WEIGHTS, ids=lambda w: w.label())
    def test_closed_equals_general(self, basis64, weights):
        b = b_matrix(basis64)
        u = u_matrix(basis64)
        closed = closed_form_case(weights, b)
        general = transport_to_theta(ladder_fill(weights, 64), u, basis64.tag)
        assert interior_max_abs(closed.mat - general.mat) < 1e-7

    def test_case_ii_w1_equals_case_i_w1(self, basis64):
        b = b_matrix(basis64)
        one = closed_form_case(constant_weights(1.0), b)
        two = closed_form_case(distorted_weights(1.0), b)
        assert interior_max_abs(one.mat - two.mat) < 1e-10

    def test_q_to_one_limit(self, basis64):
        b = b_matrix(basis64)
        lim = closed_form_case(geometric_weights(1.0 + 1e-8), b)
        ref = closed_form_case(constant_weights(1.0), b)
        assert interior_max_abs(lim.mat - ref.mat) < 1e-5

    def test_case_iii_commutator_is_h_tilde(self, basis64):
        # [a1, a1+] = b+ b for linear weights, checked in the theta representation
        u = u_matrix(basis64)
        b = b_matrix(basis64)
        low = closed_form_case(linear_weights(), b)
        comm = commutator(low, adjoint(low))
        comm_theta = represent_in_theta(comm, u, basis64.tag)
        h_theta = represent_in_theta(adjoint(b) @ b, u, basis64.tag)
        assert interior_max_abs(comm_theta.mat - h_theta.mat) < 1e-6

    def test_eq_317_bdagger_sandwich(self, basis64):
        # b+ [sum sqrt(W_{n+1}/((n+1)(n+2))) |n><n+1|] b reproduces the ladder
        b = b_matrix(basis64)
        u = u_matrix(basis64)
        N = 64
        for weights in CLOSED_FORM_WEIGHTS[:5]:
            W = weights.partial_sum_array(N)
            mid = np.zeros((N, N))
            for n in range(N - 1):
                mid[n, n + 1] = math.sqrt(W[n] / ((n + 1) * (n + 2)))
            sandwich = adjoint(b) @ TruncatedOperator(mid, FOCK) @ b
            general = transport_to_theta(ladder_fill(weights, N), u, basis64.tag)
            assert interior_max_abs(sandwich.mat - general.mat) < 1e-7, weights.label()

    def test_eq_321_symmetric_form_case_i(self, basis64):
        # G(H) = w^{1/4} recovers the symmetric closed form sqrt(w) b+ R a R b
        w = 2.0
        b = b_matrix(basis64)
        N = 64
        r = apply_spectral_function(number_matrix(N), lambda t: (1 + t) ** -0.5)
        g = apply_spectral_function(number_matrix(N), lambda t: w**0.25)
        sym = adjoint(b) @ r @ g @ annihilation_matrix(N) @ g @ r @ b
        ref = closed_form_case(constant_weights(w), b)
        assert interior_max_abs(sym.mat - ref.mat) < 1e-10

    @pytest.mark.parametrize("b_source", ["lambda=2", "lambda=-3", "random N=512"])
    @pytest.mark.parametrize("weights", CLOSED_FORM_WEIGHTS + [geometric_weights(1.0 + 1e-8), constant_weights(1.0)],
                             ids=lambda w: w.label())
    def test_closed_form_is_the_dense_chain(self, grid64, weights, b_source):
        # column scalings and a column shift in the dense chain's order reproduce it bit for bit; that is
        # a property of the evaluation order, so any real b shows it, a random one at N = 512 included
        if b_source == "random N=512":
            b = TruncatedOperator(np.random.default_rng(512).standard_normal((512, 512)), FOCK)
        else:
            b = b_matrix(ThetaBasis(IsospectralParams(float(b_source[7:])), grid64, 64))
        assert np.array_equal(closed_form_case(weights, b).mat, dense_closed_form(weights, b))

    def test_bad_parameters(self, basis64):
        # only the five rules of cases i-v have a closed form; the error names the rule
        b = b_matrix(basis64)
        for weights in (power_law_weights(2.0), custom_weights([1.0] * 70)):
            with pytest.raises(ValueError, match=re.escape(weights.label())):
                closed_form_case(weights, b)


class TestResolvent:
    def test_identity(self):
        # scalar identity (1/pi) int xi^{-1/2} (1+xi)^{-1} dxi = 1 on a 2x2 identity
        out = resolvent_inv_sqrt(identity_matrix(4))
        assert np.max(np.abs(out.mat - np.eye(4))) < 1e-10

    def test_diagonal_oracle(self):
        x = TruncatedOperator(np.diag([1.0, 2.0, 5.0]))
        out = resolvent_inv_sqrt(x)
        assert np.allclose(np.diag(out.mat), [1.0, 2.0**-0.5, 5.0**-0.5], atol=1e-8)

    def test_one_plus_h_matches_spectral(self):
        N = 32
        x = number_matrix(N) + identity_matrix(N)
        via_resolvent = resolvent_inv_sqrt(x)
        via_spectral = apply_spectral_function(x, lambda t: t**-0.5)
        assert np.max(np.abs(via_resolvent.mat - via_spectral.mat)) < 1e-6

    @staticmethod
    def _deviation(x, nodes, monkeypatch):
        monkeypatch.setattr(ladder, "_resolvent_nodes", lambda kappa: nodes)
        via_spectral = apply_spectral_function(x, lambda t: t**-0.5)
        return float(np.max(np.abs(resolvent_inv_sqrt(x).mat - via_spectral.mat)))

    @pytest.mark.parametrize("nodes", [4, 6, 8])
    def test_midpoint_error_decays_like_exp_minus_4am(self, nodes, monkeypatch):
        # diag(1 .. 32): the norm bounds are exact, kappa = 32 and a = artanh(32^(-1/4)); the eigenvalue
        # nearest a pole leaves 2 e^{-4aM}, so doubling M multiplies the deviation by e^{-4aM}
        x = number_matrix(32) + identity_matrix(32)
        rate = math.exp(-4.0 * math.atanh(32.0**-0.25) * nodes)
        once, twice = self._deviation(x, nodes, monkeypatch), self._deviation(x, 2 * nodes, monkeypatch)
        assert once == pytest.approx(2.0 * rate, rel=2e-3)
        assert twice / once == pytest.approx(rate, rel=2e-3)

    @pytest.mark.parametrize("kappa, nodes", [(1.0, 1), (32.0, 23), (512.0, 47), (1e8, 1000)])
    def test_node_rule(self, kappa, nodes):
        # ceil(10/a), a = artanh(kappa^(-1/4)): 23 nodes at c06's kappa = 32; at kappa = 1 the integrand is constant
        assert ladder._resolvent_nodes(kappa) == nodes

    @pytest.mark.parametrize("kappa", [289.0, 1e4])
    def test_rule_reaches_rounding_on_a_rotated_spectrum(self, kappa):
        # a dense symmetric matrix, whose infinity norms only bound kappa from above, against its exact root
        # q diag(mu^(-1/2)) q^T: at the rule's M the quadrature errs near e^-40, so what is left is the
        # rounding of forming and solving X, 1e-15 of the root's scale at kappa = 289 and 2e-14 at 1e4
        mu = np.geomspace(1.0, kappa, 40)
        q, _ = np.linalg.qr(np.random.default_rng(40).standard_normal((40, 40)))
        m = (q * mu) @ q.T
        root = (q * mu**-0.5) @ q.T
        deviation = np.max(np.abs(resolvent_inv_sqrt(TruncatedOperator((m + m.T) / 2.0)).mat - root))
        assert deviation < 1e-13 * np.max(np.abs(root))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            resolvent_inv_sqrt(TruncatedOperator(np.diag([1.0, -0.5])))

    def test_rejects_non_hermitian(self):
        # positive definite symmetric part, so only the Hermitian check can refuse it
        with pytest.raises(ValueError, match="not Hermitian"):
            resolvent_inv_sqrt(TruncatedOperator(np.array([[2.0, 1e-6], [0.0, 2.0]])))
