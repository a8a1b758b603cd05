"""Kernel-level tests: every routine against an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matmul_loops, random_complex, random_hermitian, taylor_expm
from pfdamp.linalg import (
    ConvergenceError,
    GeneralEig,
    NotHermitianError,
    NotPositiveError,
    ShapeError,
    SingularMatrixError,
    adjoint,
    anticommutator,
    as_matrix,
    as_vector,
    commutator,
    effective_commutator,
    expm,
    frobenius_norm,
    general_eig,
    hermitian_eig,
    inverse,
    lu_factor,
    lu_solve,
    matmul,
    operator_norm,
    solve,
    sqrtm_psd,
)


# ---------------------------------------------------------------------------
# validation and elementary operations


class TestValidation:
    def test_as_matrix_accepts_square(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == complex and m.shape == (2, 2)

    def test_as_matrix_accepts_noncontiguous(self):
        m = np.arange(4.0).reshape(2, 2).T
        assert as_matrix(m).shape == (2, 2)

    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros(4))

    def test_as_matrix_rejects_oversized(self):
        with pytest.raises(ShapeError):
            as_matrix(np.eye(65))

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_as_matrix_rejects_imaginary_inf(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1.0, 1j * np.inf], [0.0, 1.0]]))

    def test_as_vector_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            as_vector([1.0, 2.0], dim=3)

    def test_frobenius_norm_oracle(self):
        rng = np.random.default_rng(0)
        m = random_complex(rng, 5)
        expected = np.sqrt(sum(abs(m[i, j]) ** 2 for i in range(5) for j in range(5)))
        assert abs(frobenius_norm(m) - expected) < 1e-14 * expected


class TestMatmul:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
    def test_against_triple_loop(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            a = random_complex(rng, dim)
            b = random_complex(rng, dim)
            got = matmul(a, b)
            want = matmul_loops(a, b)
            assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())

    def test_identity(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 4)
        assert np.abs(matmul(a, np.eye(4)) - a).max() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.eye(2), np.eye(3))


class TestCommutators:
    def test_commutator_antisymmetric(self):
        rng = np.random.default_rng(1)
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        assert np.abs(commutator(a, b) + commutator(b, a)).max() < 1e-13

    def test_anticommutator_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        assert np.abs(anticommutator(a, b) - anticommutator(b, a)).max() < 1e-13

    def test_effective_commutator_definition(self):
        rng = np.random.default_rng(3)
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        want = a @ b - b.conj().T @ a
        assert np.abs(effective_commutator(a, b) - want).max() == 0.0

    def test_effective_reduces_to_ordinary_for_hermitian(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 3)
        h = random_hermitian(rng, 3)
        dev = np.abs(effective_commutator(a, h) - commutator(a, h)).max()
        assert dev < 1e-13

    def test_adjoint(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 3)
        assert np.abs(adjoint(a) - a.conj().T).max() == 0.0


# ---------------------------------------------------------------------------
# matrix exponential


class TestExpm:
    def test_zero_matrix(self):
        assert np.abs(expm(np.zeros((3, 3))) - np.eye(3)).max() == 0.0

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            d = int(rng.integers(1, 7))
            scale = rng.uniform(0.1, 5.0) / d
            a = random_complex(rng, d, scale)
            dev = np.abs(expm(a) - taylor_expm(a)).max()
            worst = max(worst, dev)
        assert worst < 1e-12

    def test_diagonal_oracle(self):
        d = np.array([0.3 - 1.2j, -2.0 + 0.4j, 1.7j])
        got = expm(np.diag(d))
        assert np.abs(got - np.diag(np.exp(d))).max() < 1e-14

    def test_nilpotent_exact(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.abs(expm(n) - np.array([[1.0, 1.0], [0.0, 1.0]])).max() < 1e-16

    def test_inverse_pair(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_complex(rng, 4, 0.5)
            prod = expm(a) @ expm(-a)
            assert np.abs(prod - np.eye(4)).max() < 1e-11

    def test_semigroup_relative(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_complex(rng, 3, 0.8)
            whole = expm(2.5 * a)
            split = expm(1.0 * a) @ expm(1.5 * a)
            scale = max(np.abs(whole).max(), 1.0)
            assert np.abs(whole - split).max() < 1e-10 * scale

    def test_similarity_covariance(self):
        rng = np.random.default_rng(14)
        a = random_complex(rng, 3)
        t = random_complex(rng, 3) + 3.0 * np.eye(3)
        lhs = expm(t @ a @ inverse(t))
        rhs = t @ expm(a) @ inverse(t)
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            expm(np.diag([1000.0, 1000.0]))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
            min_size=8,
            max_size=8,
        )
    )
    def test_trace_determinant_identity(self, flat):
        # det(exp(A)) = exp(tr(A)) for every square A
        a = np.array(flat[:4]).reshape(2, 2) + 1j * np.array(flat[4:]).reshape(2, 2)
        det = np.linalg.det(expm(a))
        want = np.exp(np.trace(a))
        assert abs(det - want) < 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# operator norm


class TestOperatorNorm:
    def test_against_svd_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            a = random_complex(rng, d, rng.uniform(0.1, 4.0))
            want = np.linalg.svd(a, compute_uv=False)[0]
            assert abs(operator_norm(a) - want) < 1e-11 * max(want, 1.0)

    def test_orthogonal_start_adversary(self):
        # top singular direction orthogonal to the all-ones start vector
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert abs(operator_norm(a) - 2.0) < 1e-12

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_unitary_is_one(self):
        c, s = np.cos(0.7), np.sin(0.7)
        u = np.array([[c, -s], [s, c]])
        assert abs(operator_norm(u) - 1.0) < 1e-12

    def test_lower_bound_from_random_vectors(self):
        rng = np.random.default_rng(22)
        a = random_complex(rng, 5)
        norm = operator_norm(a)
        for _ in range(100):
            v = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
            assert np.linalg.norm(a @ v) <= norm * np.linalg.norm(v) * (1 + 1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(23)
        a = random_complex(rng, 4)
        assert abs(operator_norm(3.5 * a) - 3.5 * operator_norm(a)) < 1e-10

    def test_nearly_equal_top_singular_values(self):
        # top two singular values 1e-4 apart: a power iteration stalls here
        assert abs(operator_norm(np.diag([1.0, 1.0 - 1e-4, 0.5])) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# linear solves


class TestSolve:
    def test_inverse_against_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(1, 9))
            a = random_complex(rng, d) + 2.0 * np.eye(d)
            got = inverse(a)
            want = np.linalg.inv(a)
            assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(32)
        a = random_complex(rng, 6) + 3.0 * np.eye(6)
        assert np.abs(a @ inverse(a) - np.eye(6)).max() < 1e-11

    def test_solve_recovers_known_solution(self):
        rng = np.random.default_rng(33)
        a = random_complex(rng, 5) + 2.0 * np.eye(5)
        x = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        got = solve(a, a @ x)
        assert np.abs(got - x).max() < 1e-10

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(34)
        a = random_complex(rng, 4) + 2.0 * np.eye(4)
        b = random_complex(rng, 4)
        lu, piv = lu_factor(a)
        x = lu_solve(lu, piv, b)
        assert np.abs(a @ x - b).max() < 1e-11

    def test_needs_pivoting(self):
        # zero leading pivot: plain elimination would divide by zero
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert np.abs(inverse(a) - a).max() < 1e-14

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_fourlevel_similarity_map(self):
        t = np.array(
            [
                [0.0, 2.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [2.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 2.0],
            ],
            dtype=complex,
        )
        got = inverse(t)
        want = np.linalg.inv(t)
        assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# kernels and eigensystems


class TestHermitianEig:
    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            d = int(rng.integers(1, 9))
            a = random_hermitian(rng, d, rng.uniform(0.2, 3.0))
            w, v = hermitian_eig(a)
            w_ref = np.linalg.eigh(a)[0]
            scale = max(np.abs(w_ref).max(), 1.0)
            assert np.abs(w - w_ref).max() < 1e-12 * scale
            # every returned pair solves the eigenproblem
            for i in range(d):
                assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) < 1e-11 * scale

    def test_ascending_order(self):
        rng = np.random.default_rng(52)
        a = random_hermitian(rng, 6)
        w, _ = hermitian_eig(a)
        assert np.all(np.diff(w) >= 0)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(53)
        a = random_hermitian(rng, 5)
        _, v = hermitian_eig(a)
        assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(54)
        a = random_hermitian(rng, 5)
        w, v = hermitian_eig(a)
        assert np.abs((v * w) @ v.conj().T - a).max() < 1e-12

    def test_degenerate_spectrum(self):
        # U diag(1, 1, 2) U^dag: a doubly degenerate eigenvalue, as in the
        # vacua kernels, still gets an orthonormal eigenbasis
        rng = np.random.default_rng(55)
        u, _ = np.linalg.qr(random_complex(rng, 3))
        a = (u * np.array([1.0, 1.0, 2.0])) @ u.conj().T
        w, v = hermitian_eig(a)
        assert np.abs(w - np.array([1.0, 1.0, 2.0])).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12
        assert np.abs((v * w) @ v.conj().T - a).max() < 1e-12

    def test_zero_matrix(self):
        w, v = hermitian_eig(np.zeros((3, 3)))
        assert np.all(w == 0) and np.abs(v - np.eye(3)).max() == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSqrtmPsd:
    def test_square_recovers_input(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            d = int(rng.integers(1, 7))
            b = random_complex(rng, d)
            a = b.conj().T @ b
            root = sqrtm_psd(a)
            assert np.abs(root @ root - a).max() < 1e-11 * max(np.abs(a).max(), 1.0)

    def test_root_is_hermitian_psd(self):
        rng = np.random.default_rng(62)
        b = random_complex(rng, 4)
        a = b.conj().T @ b
        root = sqrtm_psd(a)
        assert np.abs(root - root.conj().T).max() < 1e-12
        w, _ = hermitian_eig(root)
        assert w[0] > -1e-12

    def test_commutes_with_input(self):
        rng = np.random.default_rng(63)
        b = random_complex(rng, 4)
        a = b.conj().T @ b
        root = sqrtm_psd(a)
        assert np.abs(root @ a - a @ root).max() < 1e-10 * np.abs(a).max()

    def test_tiny_negative_eigenvalue_clamped(self):
        a = np.diag([1.0, -1e-14])
        root = sqrtm_psd(a)
        assert np.abs(root @ root - np.diag([1.0, 0.0])).max() < 1e-12

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveError):
            sqrtm_psd(np.diag([1.0, -1.0]))


class TestGeneralEig:
    def test_two_level_spectrum(self):
        # [[-2i, 1], [1, -1i]]: eigenvalues -1.5i +- sqrt(0.75)
        h = np.array([[-2.0j, 1.0], [1.0, -1.0j]])
        eig = general_eig(h)
        want = np.array([-np.sqrt(0.75) - 1.5j, np.sqrt(0.75) - 1.5j])
        assert np.abs(eig.values - want).max() < 1e-10
        assert eig.is_diagonalizable

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            a = random_complex(rng, d)
            eig = general_eig(a)
            want = np.sort_complex(np.linalg.eigvals(a))
            got = np.sort_complex(eig.values)
            assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())

    def test_sorted_by_real_then_imag(self):
        eig = general_eig(np.diag([2.0 + 1.0j, 1.0 - 1.0j, 1.0 + 1.0j]))
        keys = [(z.real, z.imag) for z in eig.values]
        assert keys == sorted(keys)

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(72)
        a = random_complex(rng, 5)
        eig = general_eig(a)
        assert eig.is_diagonalizable
        for lam, vec in zip(eig.values, eig.vectors):
            assert vec is not None
            assert np.linalg.norm(a @ vec - lam * vec) < 1e-9 * frobenius_norm(a)

    def test_jordan_block_reports_defect(self):
        eig = general_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not eig.is_diagonalizable
        assert any(v is None for v in eig.vectors)
        assert any("defective" in msg or "residual" in msg for msg in eig.defects)

    def test_diagonal_exact(self):
        eig = general_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.abs(eig.values - np.array([-1.0, 2.0, 3.0])).max() < 1e-14

    def test_dataclass_shape(self):
        eig = general_eig(np.eye(2))
        assert isinstance(eig, GeneralEig)
        assert len(eig.vectors) == 2


class TestConvergenceGuards:
    def test_power_iteration_terminates_on_degenerate_spectrum(self):
        # equal singular values: Rayleigh quotient is stationary immediately
        assert abs(operator_norm(np.eye(4) * 2.0) - 2.0) < 1e-12

    def test_jacobi_handles_already_diagonal(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.abs(w - np.array([1.0, 2.0, 3.0])).max() == 0.0

    def test_convergence_error_is_exception(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "norm", fail)
        with pytest.raises(ConvergenceError):
            hermitian_eig(np.diag([1.0, 2.0]))
        with pytest.raises(ConvergenceError):
            operator_norm(np.diag([1.0, 2.0]))
