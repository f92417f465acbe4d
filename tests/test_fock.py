import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoladder.fock import (
    FOCK,
    BasisMismatchError,
    StateVector,
    TruncatedOperator,
    adjoint,
    annihilation_matrix,
    apply_operator,
    apply_spectral_function,
    commutator,
    hermitian_eigensystem,
    identity_matrix,
    number_matrix,
    op_norm_inf,
    require_hermitian,
    theta_tag,
    times_one_diagonal,
)


class TestConstructors:
    def test_annihilation_entries(self):
        a = annihilation_matrix(3)
        assert a.mat[0, 1] == 1.0
        assert abs(a.mat[1, 2] - math.sqrt(2)) < 1e-15
        assert np.count_nonzero(a.mat) == 2

    def test_annihilation_action(self):
        a = annihilation_matrix(4)
        e1 = np.zeros(4)
        e1[1] = 1.0
        assert np.allclose(a.mat @ e1, np.eye(4)[0])
        assert np.allclose(a.mat @ np.eye(4)[0], 0.0)

    def test_number_operator(self):
        h = number_matrix(8)
        e5 = np.eye(8)[5]
        assert np.allclose(h.mat @ e5, 5.0 * e5)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            annihilation_matrix(1)

    @pytest.mark.parametrize("N", [1, 0, -1])
    @pytest.mark.parametrize("build", [annihilation_matrix, number_matrix, identity_matrix],
                             ids=lambda f: f.__name__)
    def test_constructors_reject_below_two(self, build, N):
        # each constructor refuses N < 2 itself, naming the N it was given
        with pytest.raises(ValueError, match=rf"got {N}$"):
            build(N)

    def test_commutator_interior_identity(self):
        N = 12
        c = commutator(annihilation_matrix(N), adjoint(annihilation_matrix(N)))
        assert np.allclose(c.mat[: N - 2, : N - 2], np.eye(N)[: N - 2, : N - 2], atol=1e-12)

    def test_commutator_truncation_edge(self):
        # direct matrix-product oracle for the corner entry
        N = 6
        a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
        oracle = (a @ a.conj().T - a.conj().T @ a)[N - 1, N - 1]
        c = commutator(annihilation_matrix(N), adjoint(annihilation_matrix(N)))
        assert c.mat[N - 1, N - 1] == pytest.approx(oracle)
        assert oracle == pytest.approx(1 - N)  # the dangling sqrt(N-1)^2 row is cut


class TestOneDiagonalProduct:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_equals_dense_product(self, k, dtype):
        # each entry of x @ np.diag(band, k) is one product plus exact zeros, so the column shift is it
        rng = np.random.default_rng(10 + k)
        x = rng.standard_normal((64, 64)).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal((64, 64))
        band = rng.standard_normal(64 - abs(k))
        out = times_one_diagonal(x, band, k)
        assert out.dtype == x.dtype
        assert np.array_equal(out, x @ np.diag(band, k))


class TestOwnership:
    """An operator keeps the array it is given unless another array could still write its memory."""

    def test_fresh_array_is_kept_read_only(self):
        m = np.random.default_rng(0).standard_normal((8, 8))
        op = TruncatedOperator(m)
        assert np.shares_memory(op.mat, m)
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    def test_view_of_a_writable_array_is_copied(self):
        big = np.arange(144.0).reshape(12, 12)
        op = TruncatedOperator(big[:8, :8])
        assert not np.shares_memory(op.mat, big)
        big[:8, :8] = -1.0
        assert np.array_equal(op.mat, np.arange(144.0).reshape(12, 12)[:8, :8])

    def test_adjoint_of_a_real_operator_is_a_view(self):
        op = TruncatedOperator(np.random.default_rng(1).standard_normal((6, 6)))
        ad = adjoint(op)
        assert np.shares_memory(ad.mat, op.mat)
        assert np.array_equal(ad.mat, op.mat.T)
        assert not ad.mat.flags.writeable

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_commutator_equals_the_two_products(self, dtype):
        rng = np.random.default_rng(2)
        x, y = (rng.standard_normal((64, 64)).astype(dtype) for _ in range(2))
        if dtype is complex:
            y += 1j * rng.standard_normal((64, 64))
        assert np.array_equal(commutator(TruncatedOperator(x), TruncatedOperator(y)).mat, x @ y - y @ x)


class TestAlgebra:
    def test_ladder_relation(self):
        N = 10
        h, a = number_matrix(N), annihilation_matrix(N)
        c = commutator(h, a)
        assert np.allclose(c.mat[: N - 2, : N - 2], -a.mat[: N - 2, : N - 2], atol=1e-12)

    def test_adjoint_moves_diagonal(self):
        a = annihilation_matrix(5)
        ad = adjoint(a)
        assert np.allclose(ad.mat, a.mat.T)

    def test_norm_of_identity(self):
        assert op_norm_inf(identity_matrix(7).mat) == 1.0

    def test_tag_mismatch(self):
        a = annihilation_matrix(4)
        b = TruncatedOperator(annihilation_matrix(4).mat, theta_tag(2.0))
        with pytest.raises(BasisMismatchError):
            commutator(a, b)
        with pytest.raises(BasisMismatchError):
            apply_operator(a, StateVector(np.ones(4), theta_tag(2.0)))

    def test_scalar_multiply_refuses_arrays(self):
        op = number_matrix(8)
        with pytest.raises(TypeError):
            op * np.arange(8)
        with pytest.raises(TypeError):
            op * np.array([2.0])

    def test_array_times_operator_does_not_broadcast(self):
        with pytest.raises(TypeError):
            np.arange(8) * number_matrix(8)
        with pytest.raises(TypeError):
            np.arange(8) + number_matrix(8)
        with pytest.raises(TypeError):
            np.float64(2.5) * number_matrix(8)

    def test_operator_has_no_scalar_product(self):
        # a scale goes on the matrix: TruncatedOperator(op.mat * s, op.basis)
        with pytest.raises(TypeError):
            number_matrix(8) * 2.5
        with pytest.raises(TypeError):
            2.5 * number_matrix(8)

    def test_dtype_follows_the_input(self):
        op = number_matrix(8)
        assert op.mat.dtype == np.float64
        assert TruncatedOperator(np.eye(3, dtype=int)).mat.dtype == np.float64
        assert TruncatedOperator(np.eye(3, dtype=np.float32)).mat.dtype == np.float64
        assert TruncatedOperator(op.mat * (1 + 2j)).mat.dtype == np.complex128
        assert TruncatedOperator(np.eye(3) + 0j).mat.dtype == np.complex128
        ints, cplx = np.eye(3, dtype=int), np.eye(3) + 0j
        assert not np.shares_memory(TruncatedOperator(ints).mat, ints)  # widened: a float64 copy
        assert np.shares_memory(TruncatedOperator(cplx).mat, cplx)  # complex128 already: kept
        assert StateVector(np.ones(3), FOCK).coeffs.dtype == np.complex128
        assert apply_spectral_function(op, math.sqrt).mat.dtype == np.float64

    def test_dim_mismatch(self):
        with pytest.raises(BasisMismatchError):
            annihilation_matrix(4) @ annihilation_matrix(5)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=999))
    def test_adjoint_of_product(self, seed):
        rng = np.random.default_rng(seed)
        x = TruncatedOperator(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        y = TruncatedOperator(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        lhs = adjoint(x @ y).mat
        rhs = (adjoint(y) @ adjoint(x)).mat
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEigensystem:
    def test_diagonal(self):
        x = TruncatedOperator(np.diag([0.0, 1.0, 2.0]))
        evals, v = hermitian_eigensystem(x)
        assert np.allclose(evals, [0, 1, 2])
        assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)

    def test_number_operator_exact(self):
        evals, _ = hermitian_eigensystem(number_matrix(16))
        assert np.allclose(evals, np.arange(16), atol=1e-12)

    def test_position_like_matrix_vs_quartic_oracle(self):
        # char poly of a + a^dagger at N=4 is mu^4 - 6 mu^2 + 3
        N = 4
        x = annihilation_matrix(N) + adjoint(annihilation_matrix(N))
        evals, v = hermitian_eigensystem(TruncatedOperator(x.mat))
        roots = np.sort(np.real(np.roots([1.0, 0.0, -6.0, 0.0, 3.0])))
        assert np.allclose(evals, roots, atol=1e-12)
        resid = np.max(np.abs(x.mat @ v - v @ np.diag(evals)))
        assert resid < 1e-9 * op_norm_inf(x.mat)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(annihilation_matrix(4))

    @pytest.mark.parametrize("g", [lambda t: (1 + t * t) ** -0.5, lambda t: cmath.exp(1j * t)],
                             ids=["inv_sqrt", "exp_it"])
    @pytest.mark.parametrize("kind", ["real", "swap_block", "complex"])
    def test_spectral_function_independent_of_eigenvector_phases(self, kind, g):
        # g(X) = (V g) V^dagger takes each column of V once plain and once conjugated: negating a real column
        # keeps every bit, even where the swap [[0, 1], [1, 0]] gives columns whose max is -min; a complex
        # unit phase cancels to rounding
        rng = np.random.default_rng(11)
        if kind == "swap_block":
            m = np.zeros((8, 8))
            m[:2, :2], m[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]], rng.normal(size=(6, 6))
        else:
            m = rng.normal(size=(40, 40)) + (1j * rng.normal(size=(40, 40)) if kind == "complex" else 0.0)
        m = m + m.conj().T
        evals, v = hermitian_eigensystem(TruncatedOperator(m))
        assert v.dtype == (np.complex128 if kind == "complex" else np.float64)
        assert np.linalg.norm(v.conj().T @ v - np.eye(len(m)), 2) < 1e-12
        assert np.linalg.norm((v * evals) @ v.conj().T - m, 2) < 1e-12 * np.linalg.norm(m, 2)
        gvals = np.array([g(float(mu)) for mu in evals])
        spectral = apply_spectral_function(TruncatedOperator(m), g).mat
        assert np.array_equal((v * gvals) @ v.conj().T, spectral)
        for _ in range(4):
            if kind == "complex":
                phases = np.exp(2j * np.pi * rng.random(len(m)))
            else:
                phases = np.where(rng.random(len(m)) < 0.5, -1.0, 1.0)
            w = v * phases
            moved = (w * gvals) @ w.conj().T
            if kind == "complex":
                assert np.max(np.abs(moved - spectral)) < 1e-13 * np.max(np.abs(spectral))
            else:
                assert np.array_equal(moved, spectral)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_non_finite_refused(self, bad, kind):
        # a NaN fails no tolerance comparison and inf - inf is NaN: both are refused by name, without a warning
        m = np.eye(6, dtype=float if kind == "real" else complex)
        m[2, 4] = m[4, 2] = bad
        with pytest.raises(ValueError, match="matrix is not finite: 2 entries are NaN or infinite"):
            require_hermitian(m)
        with pytest.raises(ValueError, match="not finite"):
            hermitian_eigensystem(TruncatedOperator(m))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_exact_and_scaled_symmetry_verdicts(self, kind):
        # exactly Hermitian passes the block comparison; within 1e-10 of the largest entry passes the scaled
        # deviation; beyond it, in any 64-row block, fails
        rng = np.random.default_rng(3)
        m = rng.normal(size=(150, 150)) * 1e3
        if kind == "complex":
            m = m + 1j * rng.normal(size=(150, 150))
        m = m + m.conj().T
        require_hermitian(m)
        scale = np.max(np.abs(m))
        for i, j in ((0, 149), (70, 3), (140, 130)):
            near, far = m.copy(), m.copy()
            near[i, j] += 0.5e-10 * scale
            far[i, j] += 2e-10 * scale
            require_hermitian(near)
            with pytest.raises(ValueError, match="matrix is not Hermitian"):
                require_hermitian(far)


class TestSpectralFunction:
    def test_identity_function(self):
        x = number_matrix(6)
        y = apply_spectral_function(x, lambda t: t)
        assert np.max(np.abs(y.mat - x.mat)) < 1e-12

    def test_inverse_sqrt_on_diagonal(self):
        y = apply_spectral_function(number_matrix(8), lambda t: (1 + t) ** -0.5)
        assert np.allclose(np.diag(y.mat), (1 + np.arange(8.0)) ** -0.5, atol=1e-13)

    def test_distorted_commutator_profile_w2(self):
        # f(t) = (1/(t+1)) sqrt((t+w)/(t+2)) collapses to 1/(t+1) at w = 2
        w = 2.0
        y = apply_spectral_function(number_matrix(8), lambda t: math.sqrt((t + w) / (t + 2)) / (t + 1))
        assert np.allclose(np.diag(y.mat), 1.0 / (1 + np.arange(8.0)), atol=1e-13)

    def test_composition(self):
        h = number_matrix(10)
        inner = apply_spectral_function(h, lambda t: t * t)
        lhs = apply_spectral_function(inner, lambda t: math.sqrt(1 + t))
        rhs = apply_spectral_function(h, lambda t: math.sqrt(1 + t * t))
        assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-9

    def test_undefined_value(self):
        with pytest.raises(ValueError):
            apply_spectral_function(number_matrix(4), lambda t: math.sqrt(t - 1.0) if t >= 1 else float("nan"))


class TestStateVector:
    def test_norm_and_normalize(self):
        v = StateVector(np.array([3.0, 4.0]), FOCK)
        assert v.norm() == pytest.approx(5.0)
        assert v.normalized().norm() == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(3), FOCK).normalized()
