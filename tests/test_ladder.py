import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from isoladder.isospectral import b_matrix, u_matrix
from isoladder.ladder import (
    WeightError,
    c_coefficients_closed,
    c_coefficients_recursive,
    case_weights,
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


class TestWeightSequence:
    def test_variants(self):
        assert distorted_weights(2.0).weight(1) == 2.0
        assert distorted_weights(2.0).weight(5) == 1.0
        assert linear_weights().weight(7) == 7.0
        assert single_weight(3.0).weight(2) == 0.0
        assert geometric_weights(0.5).weight(3) == 0.125
        assert power_law_weights(2.0).weight(3) == 9.0
        assert custom_weights([1.0, 2.5]).weight(2) == 2.5

    def test_partial_sums(self):
        w = linear_weights()
        assert w.partial_sum(4) == 10.0
        assert np.allclose(w.partial_sum_array(5), [1, 3, 6, 10, 15])

    def test_invalid(self):
        with pytest.raises(WeightError):
            constant_weights(0.0)
        with pytest.raises(WeightError):
            geometric_weights(-1.0)
        with pytest.raises(WeightError):
            custom_weights([1.0, -0.5])
        with pytest.raises(WeightError):
            custom_weights([1.0]).weight(2)


class TestGeneralizedDoubleFactorial:
    """The W_n!! = W_n W_{n-2} ... products inside c_n = ((n-1)!!/n!!) (W_n!!/W_{n-1}!!)."""

    def test_reduces_to_integer_double_factorial(self):
        # w = 1 so W_k = k: W_6!! = 48 = 6!!, W_5!! = 15 = 5!!, and c_6 = 1
        c = c_coefficients_closed(constant_weights(1.0), 7).c
        assert c[6] == pytest.approx((15.0 / 48.0) * (48.0 / 15.0), rel=1e-13)

    def test_single_factor(self):
        assert c_coefficients_closed(custom_weights([4.0]), 2).c[1] == pytest.approx(4.0, rel=1e-14)

    def test_linear_weights_n3(self):
        # W = 1, 3, 6: c_3 = (2!!/3!!) (W_3 W_1 / W_2) = (2/3)(6/3)
        assert c_coefficients_closed(linear_weights(), 4).c[3] == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_empty_product(self):
        assert list(c_coefficients_closed(linear_weights(), 1).c) == [1.0]

    def test_out_of_range(self):
        with pytest.raises(WeightError):
            c_coefficients_closed(custom_weights([1.0]), 3)


class TestCoefficients:
    def test_unit_weights_all_one(self):
        table = c_coefficients_recursive(constant_weights(1.0), 50)
        assert np.allclose(table.c, 1.0, atol=1e-14)

    def test_c1_is_w1(self):
        for w in (0.3, 1.0, 4.5):
            assert c_coefficients_recursive(distorted_weights(w), 4).c[1] == pytest.approx(w)

    def test_distorted_w2_hand_unrolled(self):
        # c0 c1 = 2; 2 c1 c2 - c1 c0 = 1 -> c2 = 3/4; 3 c2 c3 = W3 = 4 -> c3 = 16/9
        c = c_coefficients_recursive(distorted_weights(2.0), 4).c
        assert c[0] == 1.0
        assert c[1] == pytest.approx(2.0, rel=1e-14)
        assert c[2] == pytest.approx(0.75, rel=1e-14)
        assert c[3] == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_closed_form_base_cases(self):
        clo = c_coefficients_closed(distorted_weights(2.0), 3).c
        assert clo[1] == pytest.approx(2.0, rel=1e-13)  # (0!!/1!!)(W1!!/W0!!) = W1
        assert clo[2] == pytest.approx(0.5 * 3.0 / 2.0, rel=1e-13)  # (1/2)(W2/W1)

    @pytest.mark.parametrize(
        "weights",
        [
            constant_weights(2.0),
            distorted_weights(0.5),
            linear_weights(),
            single_weight(2.0),
            geometric_weights(0.7),
        ],
        ids=lambda w: w.label(),
    )
    def test_closed_matches_recursive(self, weights):
        rec = c_coefficients_recursive(weights, 201)
        clo = c_coefficients_closed(weights, 201)
        assert np.max(np.abs(clo.c - rec.c) / np.abs(rec.c)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=8, max_size=40))
    def test_telescoped_identity(self, values):
        weights = custom_weights(values)
        n_max = len(values)
        c = c_coefficients_recursive(weights, n_max).c
        W = weights.partial_sum_array(n_max - 1)
        n = np.arange(n_max - 1)
        telescoped = (n + 1) * c[:-1] * c[1:]
        assert np.max(np.abs(telescoped - W) / np.abs(W)) < 1e-12

    def test_rejects_zero_first_weight(self):
        with pytest.raises(WeightError):
            c_coefficients_recursive(custom_weights([0.0, 1.0, 1.0]), 3)


class TestShift:
    def test_exact_partial_isometry_for_unit_weights(self):
        N = 16
        s = shift_matrix(constant_weights(1.0), N).op
        ssd = s.mat @ s.mat.conj().T
        sds = s.mat.conj().T @ s.mat
        assert np.allclose(ssd[: N - 2, : N - 2], np.eye(N - 2), atol=1e-13)
        vacuum_projector_complement = np.eye(N)
        vacuum_projector_complement[0, 0] = 0.0
        assert np.allclose(sds[: N - 2, : N - 2], vacuum_projector_complement[: N - 2, : N - 2], atol=1e-13)

    def test_unit_weights_closed_form(self):
        N = 24
        s = shift_matrix(constant_weights(1.0), N).op
        closed = apply_spectral_function(number_matrix(N), lambda t: (1 + t) ** -0.5) @ annihilation_matrix(N)
        assert np.max(np.abs(s.mat - closed.mat)) < 1e-12

    def test_distorted_diag_matches_table(self):
        N = 12
        shifted = shift_matrix(distorted_weights(2.0), N)
        ssd = shifted.op.mat @ shifted.op.mat.conj().T
        assert np.allclose(np.diag(ssd)[: N - 1], shifted.table.c[: N - 1], atol=1e-13)
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

    def test_two_path_agreement_is_enforced(self):
        low, _ = ladder_matrices(linear_weights(), 10)
        s = shift_matrix(linear_weights(), 10)
        conj = adjoint(s.op) @ annihilation_matrix(10) @ s.op
        assert np.max(np.abs(conj.mat - low.mat)) < 1e-12


class TestTransport:
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
        s = shift_matrix(weights, 64).op
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


class TestClosedForms:
    @pytest.mark.parametrize("case,kw", [
        ("i", {"w": 2.0}),
        ("ii", {"w": 0.5}),
        ("iii", {}),
        ("iv", {"w": 2.0}),
        ("v", {"q": 0.7}),
        ("v", {"q": 1.3}),
    ])
    def test_closed_equals_general(self, basis64, case, kw):
        b = b_matrix(basis64)
        u = u_matrix(basis64)
        closed = closed_form_case(case, b, **kw)
        general = transport_to_theta(ladder_fill(case_weights(case, **kw), 64), u, basis64.tag)
        assert interior_max_abs(closed.mat - general.mat) < 1e-7

    def test_case_ii_w1_equals_case_i_w1(self, basis64):
        b = b_matrix(basis64)
        one = closed_form_case("i", b, w=1.0)
        two = closed_form_case("ii", b, w=1.0)
        assert interior_max_abs(one.mat - two.mat) < 1e-10

    def test_q_to_one_limit(self, basis64):
        b = b_matrix(basis64)
        lim = closed_form_case("v", b, q=1.0 + 1e-8)
        ref = closed_form_case("i", b, w=1.0)
        assert interior_max_abs(lim.mat - ref.mat) < 1e-5

    def test_case_iii_commutator_is_h_tilde(self, basis64):
        # [a1, a1+] = b+ b for linear weights, checked in the theta representation
        u = u_matrix(basis64)
        b = b_matrix(basis64)
        low = closed_form_case("iii", b)
        comm = low @ adjoint(low) - adjoint(low) @ low
        comm_theta = represent_in_theta(comm, u, basis64.tag)
        h_theta = represent_in_theta(adjoint(b) @ b, u, basis64.tag)
        assert interior_max_abs(comm_theta.mat - h_theta.mat) < 1e-6

    def test_eq_317_bdagger_sandwich(self, basis64):
        # b+ [sum sqrt(W_{n+1}/((n+1)(n+2))) |n><n+1|] b reproduces the ladder
        b = b_matrix(basis64)
        u = u_matrix(basis64)
        N = 64
        for case, kw in [("i", {"w": 2.0}), ("ii", {"w": 0.5}), ("iii", {}), ("iv", {"w": 2.0}), ("v", {"q": 0.7})]:
            weights = case_weights(case, **kw)
            W = weights.partial_sum_array(N)
            mid = np.zeros((N, N))
            for n in range(N - 1):
                mid[n, n + 1] = math.sqrt(W[n] / ((n + 1) * (n + 2)))
            sandwich = adjoint(b) @ TruncatedOperator(mid, FOCK) @ b
            general = transport_to_theta(ladder_fill(weights, N), u, basis64.tag)
            assert interior_max_abs(sandwich.mat - general.mat) < 1e-7, case

    def test_eq_321_symmetric_form_case_i(self, basis64):
        # G(H) = w^{1/4} recovers the symmetric closed form sqrt(w) b+ R a R b
        w = 2.0
        b = b_matrix(basis64)
        N = 64
        r = apply_spectral_function(number_matrix(N), lambda t: (1 + t) ** -0.5)
        g = apply_spectral_function(number_matrix(N), lambda t: w**0.25)
        sym = adjoint(b) @ r @ g @ annihilation_matrix(N) @ g @ r @ b
        ref = closed_form_case("i", b, w=w)
        assert interior_max_abs(sym.mat - ref.mat) < 1e-10

    def test_bad_parameters(self, basis64):
        b = b_matrix(basis64)
        with pytest.raises(ValueError):
            closed_form_case("v", b, q=-1.0)
        with pytest.raises(ValueError):
            closed_form_case("i", b, w=-2.0)
        with pytest.raises(ValueError):
            closed_form_case("vi", b)


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

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            resolvent_inv_sqrt(TruncatedOperator(np.diag([1.0, -0.5])))
