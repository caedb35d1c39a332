import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matmean.errors import MatrixFormatError, NotPositiveDefiniteError, NumericalFailure
from matmean.linalg import (
    HermitianMatrix,
    PDMatrix,
    complex_gaussian,
    congruence,
    eig_hermitian,
    gate_eig,
    gate_stack,
    haar_unitaries,
    haar_unitary,
    inverse,
    pd_power,
    positive_part,
    principal_sqrt,
    random_pd,
)

from conftest import rand_pd, rand_pd_pairs

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


class TestHermitianConstruction:
    def test_symmetrizes_tiny_asymmetry(self):
        M = np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]])
        H = HermitianMatrix(M)
        np.testing.assert_allclose(H.mat, H.mat.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(MatrixFormatError):
            HermitianMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixFormatError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixFormatError):
            HermitianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_zero_matrix_allowed(self):
        H = HermitianMatrix(np.zeros((3, 3)))
        assert H.dim == 3

    def test_immutable(self):
        H = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            H.mat[0, 0] = 5.0


class TestEig:
    def test_identity(self):
        dec = eig_hermitian(HermitianMatrix(np.eye(3)))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diag_1_20_40_sorted_decreasing(self):
        dec = eig_hermitian(HermitianMatrix(np.diag([1.0, 20.0, 40.0])))
        np.testing.assert_allclose(dec.eigenvalues, [40.0, 20.0, 1.0])

    @given(a=finite, d=finite, re=finite, im=finite)
    def test_2x2_against_quadratic_formula(self, a, d, re, im):
        # closed-form roots of the characteristic polynomial
        H = HermitianMatrix(np.array([[a, re + 1j * im], [re - 1j * im, d]]))
        tr = a + d
        disc = np.sqrt((a - d) ** 2 + 4 * (re * re + im * im))
        expected = np.array([(tr + disc) / 2, (tr - disc) / 2])
        dec = eig_hermitian(H)
        scale = 1.0 + float(np.abs(expected).max())
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12 * scale)

    def test_spectrum_invariant_under_conjugation(self, rng):
        for dim in (2, 4, 7):
            H = rand_pd(dim, seed=dim).base
            U = haar_unitary(dim, rng)
            H2 = HermitianMatrix(U.conj().T @ H.mat @ U)
            tol = 1e-9 * float(np.linalg.norm(H.mat))
            np.testing.assert_allclose(
                eig_hermitian(H).eigenvalues, eig_hermitian(H2).eigenvalues, atol=tol
            )

    def test_jacobi_matches_lapack(self):
        for dim in range(1, 9):
            H = rand_pd(dim, seed=100 + dim, cond=1e4).base
            lapack = eig_hermitian(H, method="lapack")
            jacobi = eig_hermitian(H, method="jacobi")
            np.testing.assert_allclose(
                jacobi.eigenvalues, lapack.eigenvalues,
                atol=1e-12 * (1.0 + float(np.abs(lapack.eigenvalues).max())),
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            eig_hermitian(HermitianMatrix(np.eye(2)), method="qr")

    def test_jacobi_budget_exhaustion_is_diagnosed(self, monkeypatch):
        import matmean.linalg as linalg

        monkeypatch.setattr(linalg, "JACOBI_BUDGET_PER_DIM2", 0)
        H = rand_pd(3, seed=55).base
        with pytest.raises(linalg.NumericalFailure):
            eig_hermitian(H, method="jacobi")


class TestPrincipalSqrt:
    def test_diagonal(self):
        S = principal_sqrt(PDMatrix(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(S.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_2x2_closed_form(self):
        # (D + sqrt(det D) I) / sqrt(tr D + 2 sqrt(det D)) for 2x2 PD D
        D = np.array([[2.0, 1.25], [1.25, 17.0 / 16.0]])
        expected = (D + 0.75 * np.eye(2)) / (np.sqrt(73.0) / 4.0)
        S = principal_sqrt(PDMatrix(D))
        np.testing.assert_allclose(S.mat, expected, atol=1e-14)

    def test_square_reproduces_input(self):
        for dim, A, _ in rand_pd_pairs(8, cond=1e4):
            S = principal_sqrt(A)
            err = np.linalg.norm(S.mat @ S.mat - A.mat)
            assert err <= 1e-9 * np.linalg.norm(A.mat)

    def test_commutes_with_input(self):
        for dim, A, _ in rand_pd_pairs(8):
            S = principal_sqrt(A)
            comm = np.linalg.norm(S.mat @ A.mat - A.mat @ S.mat)
            assert comm <= 1e-9 * np.linalg.norm(A.mat) ** 2


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(PDMatrix(np.eye(3))).mat, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        Inv = inverse(PDMatrix(np.diag([1.0, 20.0, 40.0])))
        np.testing.assert_allclose(Inv.mat, np.diag([1.0, 1 / 20, 1 / 40]), atol=1e-15)

    def test_residual(self):
        for dim, A, _ in rand_pd_pairs(8, cond=1e4):
            cond = A.eig().eigenvalues[0] / A.eig().eigenvalues[-1]
            err = np.linalg.norm(A.mat @ inverse(A).mat - np.eye(dim))
            assert err <= 1e-9 * cond


class TestPositivePart:
    def test_diagonal(self):
        H = positive_part(HermitianMatrix(np.diag([1.0, -2.0])))
        np.testing.assert_allclose(H.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_psd_fixed_point(self):
        A = rand_pd(4, seed=3)
        np.testing.assert_allclose(positive_part(A.base).mat, A.mat, atol=1e-14)

    def test_clamps_eigenvalues(self, rng):
        Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        H = HermitianMatrix((Z + Z.conj().T) / 2)
        P = positive_part(H)
        expected = np.maximum(H.eig().eigenvalues, 0.0)
        np.testing.assert_allclose(P.eig().eigenvalues, expected, atol=1e-12)
        # H_+ - H is PSD and the trace can only grow
        diff_min = np.linalg.eigvalsh(P.mat - H.mat)[0]
        assert diff_min >= -1e-12 * np.linalg.norm(H.mat)
        assert P.trace() >= H.trace() - 1e-12


class TestCongruence:
    def test_identity_transform(self):
        C = rand_pd(3, seed=5).base
        np.testing.assert_allclose(congruence(np.eye(3), C).mat, C.mat, atol=1e-15)

    def test_diagonal_scaling(self):
        out = congruence(np.diag([2.0, 3.0]), HermitianMatrix(np.eye(2)))
        np.testing.assert_allclose(out.mat, np.diag([4.0, 9.0]), atol=1e-15)

    def test_against_naive_product(self, rng):
        T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        C = rand_pd(4, seed=6).base
        naive = T @ C.mat @ T.conj().T
        np.testing.assert_allclose(congruence(T, C).mat, naive, atol=1e-12 * np.linalg.norm(naive))

    def test_preserves_psd(self, rng):
        T = rng.standard_normal((4, 4))
        C = rand_pd(4, seed=7)
        out = congruence(T, C.base)
        scale = float(np.abs(out.eig().eigenvalues).max())
        assert out.eig().eigenvalues[-1] >= -1e-10 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixFormatError):
            congruence(np.eye(2), HermitianMatrix(np.eye(3)))


class TestRandomPD:
    def test_dim_1_positive_scalar(self):
        A = random_pd(1, 10.0, seed=0)
        assert A.mat.shape == (1, 1)
        assert A.mat[0, 0].real > 0

    def test_deterministic(self):
        A = random_pd(5, 100.0, seed=11)
        B = random_pd(5, 100.0, seed=11)
        np.testing.assert_array_equal(A.mat, B.mat)

    def test_condition_bound(self):
        A = random_pd(5, 100.0, seed=12)
        vals = A.eig().eigenvalues
        assert vals[0] / vals[-1] <= 100.0 * (1 + 1e-9)
        np.testing.assert_allclose(vals[0], 1.0)

    def test_rejects_dim_zero(self):
        with pytest.raises(MatrixFormatError):
            random_pd(0, 10.0, seed=0)

    @pytest.mark.parametrize("vals, vecs, error", [
        ([1.0, 0.5], [[1.0, 0.0], [0.0, np.nan]], NumericalFailure),
        ([1.0, 0.5], [[2.0, 0.0], [0.0, 2.0]], NumericalFailure),
        ([1.0, np.nan], np.eye(2), NotPositiveDefiniteError),
        ([1.0, 1e-14], np.eye(2), NotPositiveDefiniteError),
    ], ids=["nan-eigenvectors", "twice-unitary", "nan-eigenvalue", "not-pd-ratio"])
    def test_from_eig_checks_without_a_second_gate(self, vals, vecs, error):
        # U diag(lambda) U* is not gated again, so the decomposition's own
        # checks must reject what the Hermitian gate rejected before; the
        # stacked check of drawn eigen-data raises the same for one bad
        # slice, and names it
        vals, vecs = np.array(vals), np.array(vecs, dtype=np.complex128)
        with pytest.raises(error):
            PDMatrix._from_eig(vals, vecs)
        good_vals, good_vecs = np.array([1.0, 0.25]), haar_unitary(2, np.random.default_rng(1))
        with pytest.raises(error, match=r"stack index \(1,\)"):
            gate_eig(np.stack([good_vals, vals, good_vals]), np.stack([good_vecs, vecs, good_vecs]))
        A = PDMatrix._from_eig(good_vals, np.eye(2, dtype=np.complex128))
        np.testing.assert_array_equal(A.mat, np.diag(good_vals))
        assert A.eig().eigenvalues.tolist() == good_vals.tolist()

    def test_stacked_draw_check_exempts_semidefinite_slices(self):
        vals = np.array([[1.0, 0.5], [1.0, 0.0]])
        vecs = np.stack([np.eye(2, dtype=np.complex128)] * 2)
        gate_eig(vals, vecs, [True, False])
        with pytest.raises(NotPositiveDefiniteError, match=r"stack index \(1,\)"):
            gate_eig(vals, vecs)

    def test_haar_unitaries_match_one_at_a_time_bitwise(self):
        rng = np.random.default_rng(3)
        gaussians = [complex_gaussian(dim, rng) for dim in (1, 4, 4, 4)]
        stacked = haar_unitaries(np.stack(gaussians[1:]))
        for Z, U in zip(gaussians[1:], stacked):
            np.testing.assert_array_equal(haar_unitaries(Z), U)
        rng = np.random.default_rng(3)
        assert all((haar_unitary(Z.shape[0], rng) == haar_unitaries(Z)).all() for Z in gaussians)


class TestPDMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(np.diag([1.0, -1.0]))

    def test_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(np.diag([1.0, 1e-14]))

    def test_witness_is_min_eigenvalue(self):
        A = rand_pd(4, seed=8)
        np.testing.assert_allclose(A.min_eigenvalue_witness, A.eig().eigenvalues[-1])


class TestStackedGate:
    """gate_stack raises, for a stack with one bad matrix, what the scalar
    constructors raise for that matrix."""

    @staticmethod
    def _stack_with(bad):
        good = rand_pd(3, seed=21).mat
        return np.stack([good, bad, 2.0 * good])

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), MatrixFormatError),
        (np.diag([1.0, np.nan, 1.0]), MatrixFormatError),
        (np.diag([1.0, -0.5, 1.0]), NotPositiveDefiniteError),
    ], ids=["non-hermitian", "nan", "indefinite"])
    def test_one_bad_matrix_raises_like_the_scalar_gate(self, bad, error):
        with pytest.raises(error):
            PDMatrix(bad)
        with pytest.raises(error, match=r"stack index \(1,\)"):
            gate_stack(self._stack_with(bad))

    def test_pd_mask_exempts_selected_matrices(self):
        stack = self._stack_with(np.diag([1.0, -0.5, 1.0]))
        vals, _ = gate_stack(stack, pd=[True, False, True])
        np.testing.assert_array_equal(vals[1], [1.0, 1.0, -0.5])

    def test_matches_scalar_decompositions_bitwise(self):
        mats = [rand_pd(5, seed=s, cond=1e6).mat for s in range(6)]
        vals, vecs = gate_stack(np.stack(mats))
        for i, M in enumerate(mats):
            dec = PDMatrix(M).eig()
            np.testing.assert_array_equal(vals[i], dec.eigenvalues)
            np.testing.assert_array_equal(vecs[i], dec.eigenvectors)


class TestDerivedValues:
    def test_derived_eigenvalues_keep_the_pd_check(self):
        # the eigenvectors of P are reused unchecked, but P**2 has
        # condition number 1e14 and must still fail the PD ratio
        P = PDMatrix(np.diag([1.0, 1e-7]))
        with pytest.raises(NotPositiveDefiniteError):
            pd_power(P, 2)

    def test_derived_values_share_the_gated_eigenvectors(self):
        P = rand_pd(4, seed=31)
        assert principal_sqrt(P).eig().eigenvectors is P.eig().eigenvectors
