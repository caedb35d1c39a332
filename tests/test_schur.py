import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matmean.errors import MatrixFormatError, NotPositiveDefiniteError
from matmean.linalg import HermitianMatrix, PDMatrix, complex_gaussian, hermitian_part, principal_sqrt
from matmean.majorization import verdict
from matmean.means import heron_kubo, riccati_mean, spectral_mean, wasserstein_expression
from matmean.schur import pinching_map

from conftest import rand_pd, rand_pd_pairs

positive_vectors = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False), min_size=1, max_size=8
)
weights = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)


def gamma_multiplier(r, a, b, c) -> np.ndarray:
    """The spectral theorem's Schur multiplier Gamma_c, entries
    (alpha_i alpha_j + beta_i beta_j + c) / (d_i d_j) with alpha = a / r,
    beta = b r and d = alpha + beta."""
    r = np.asarray(r, dtype=np.float64)
    alpha, beta = a / r, b * r
    d = alpha + beta
    return (np.outer(alpha, alpha) + np.outer(beta, beta) + c) / np.outer(d, d)


class TestSchurProduct:
    def test_all_ones_is_identity_map(self):
        M = rand_pd(3, seed=21)
        np.testing.assert_allclose(M.mat * np.ones((3, 3)), M.mat, atol=1e-15, rtol=0)

    def test_diagonal_times_diagonal(self):
        np.testing.assert_allclose(np.diag([1.0, 2.0]) * np.diag([3.0, 4.0]), np.diag([3.0, 8.0]), atol=1e-15, rtol=0)

    def test_psd_of_psd_pair(self):
        for dim, A, B in rand_pd_pairs(8):
            vals = HermitianMatrix(A.mat * B.mat).eig().eigenvalues
            assert vals[-1] >= -1e-10 * max(vals[0], 1.0)


class TestGammaMultiplier:
    def test_constant_r_collapses_to_all_ones(self):
        np.testing.assert_allclose(gamma_multiplier(np.ones(4), 0.5, 0.5, 0.5), np.ones((4, 4)), atol=1e-14, rtol=0)

    def test_dim_one_endpoint(self):
        np.testing.assert_allclose(gamma_multiplier([3.7], 1.2, 0.4, 2 * 1.2 * 0.4), [[1.0]], atol=1e-14, rtol=0)

    @given(positive_vectors, weights, weights)
    def test_endpoint_invariants(self, r, a, b):
        g = gamma_multiplier(r, a, b, 2.0 * a * b)
        np.testing.assert_allclose(np.diag(g), np.ones(len(r)), atol=1e-12, rtol=0)
        vals = HermitianMatrix(g).eig().eigenvalues
        assert vals[-1] >= -1e-10 * vals[0]
        if len(r) > 3:
            assert vals[3] <= 1e-10 * vals[0]

    @given(positive_vectors, weights, weights, st.floats(min_value=0.0, max_value=1.0))
    def test_subcorrelation_diagonal(self, r, a, b, frac):
        assert np.diag(gamma_multiplier(r, a, b, frac * 2.0 * a * b)).max() <= 1.0 + 1e-12


class TestCorrelationDecomposition:
    """Gamma_{2ab} = (11^T + s s^T + t t^T) / 2 with the unit vectors
    s_i = (alpha_i - beta_i) / d_i and t_i = 2 sqrt(ab) / d_i."""

    @staticmethod
    def decomposition(r, a, b):
        alpha, beta = a / r, b * r
        d = alpha + beta
        return (alpha - beta) / d, 2.0 * np.sqrt(a * b) / d

    def test_balanced_weights_constant_r(self):
        s, t = self.decomposition(np.ones(3), 1.0, 1.0)
        np.testing.assert_allclose(s, np.zeros(3), atol=1e-15, rtol=0)
        np.testing.assert_allclose(t, np.ones(3), atol=1e-15, rtol=0)

    @given(positive_vectors, weights, weights)
    def test_unit_circle_and_reconstruction(self, r, a, b):
        r = np.asarray(r)
        s, t = self.decomposition(r, a, b)
        np.testing.assert_allclose(s * s + t * t, np.ones(len(r)), atol=1e-12, rtol=0)
        recon = 0.5 * (np.ones((len(r), len(r))) + np.outer(s, s) + np.outer(t, t))
        gamma = gamma_multiplier(r, a, b, 2.0 * a * b)
        np.testing.assert_allclose(recon, gamma, atol=1e-12 * max(1.0, np.abs(gamma).max()), rtol=0)


def random_correlation(dim, rng):
    W = rand_pd(dim, seed=int(rng.integers(0, 2**31))).mat.real
    d = np.sqrt(np.diag(W))
    return HermitianMatrix(W / np.outer(d, d))


class TestSchurMajorizationProperties:
    def test_correlation_multiplier_majorizes(self, rng):
        # unit-diagonal PSD multiplier: lambda(Gamma o M) prec lambda(M)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            Gamma = random_correlation(dim, rng)
            seed = int(rng.integers(0, 2**31))
            M = HermitianMatrix(hermitian_part(complex_gaussian(dim, np.random.default_rng(seed))))
            v = verdict("major", HermitianMatrix(Gamma.mat * M.mat).eig().eigenvalues, M.eig().eigenvalues, 1e-8)
            assert v.holds

    def test_subcorrelation_weakly_majorizes(self, rng):
        # diagonal <= 1 and PSD M: lambda(Gamma o M) prec_w lambda(M)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            Gamma = random_correlation(dim, rng)
            shrink = np.diag(rng.uniform(0.2, 1.0, dim))
            Gamma = HermitianMatrix(shrink @ Gamma.mat @ shrink)
            M = rand_pd(dim, seed=int(rng.integers(0, 2**31)))
            v = verdict("weak", HermitianMatrix(Gamma.mat * M.mat).eig().eigenvalues, M.eig().eigenvalues, 1e-8)
            assert v.holds

    def test_entrywise_reduction_identity(self, rng):
        # with diagonal R the quadratic expressions factor entrywise
        # through the multiplier: T = Gamma_c o S
        for _ in range(10):
            dim = int(rng.integers(1, 7))
            r = rng.uniform(0.2, 3.0, dim)
            a, b = rng.uniform(0.1, 2.0, 2)
            c = rng.uniform(0.0, 1.0) * 2 * a * b
            C = rand_pd(dim, seed=int(rng.integers(0, 2**31)))
            R = np.diag(r)
            Rinv = np.diag(1.0 / r)
            S_expr = (a * Rinv + b * R) @ C.mat @ (a * Rinv + b * R)
            T_expr = a * a * Rinv @ C.mat @ Rinv + b * b * R @ C.mat @ R + c * C.mat
            gamma = gamma_multiplier(r, a, b, c)
            recon = gamma * S_expr
            np.testing.assert_allclose(
                T_expr, recon, atol=1e-12 * np.abs(S_expr).max(), rtol=1e-12
            )


def spectral_change_of_vars(A: PDMatrix, B: PDMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(R, C) with R = (A^{-1} # B)^{1/2} and C = R A R."""
    R = principal_sqrt(riccati_mean(A, B)).mat
    return R, R @ A.mat @ R


class TestSpectralChangeOfVars:
    """C = R A R is the spectral mean A natural B, and R C R = B."""

    def test_equal_operands(self):
        A = rand_pd(3, seed=31)
        R, C = spectral_change_of_vars(A, A)
        np.testing.assert_allclose(C, A.mat, atol=1e-10 * np.linalg.norm(A.mat), rtol=0)

    def test_certified_instance_recovers_b(self):
        A = PDMatrix(np.diag([1.0, 20.0, 40.0]))
        R_fixed = np.array([[42.0, -4.0, 2.0], [-4.0, 6.0, 2.0], [2.0, 2.0, 1.0]]) / 20.0
        X = R_fixed @ R_fixed
        B = PDMatrix(X @ np.diag([1.0, 20.0, 40.0]) @ X)
        R, C = spectral_change_of_vars(A, B)
        np.testing.assert_allclose(R.real, R_fixed, atol=1e-8, rtol=0)
        np.testing.assert_allclose(R @ C @ R, B.mat, atol=1e-8 * np.linalg.norm(B.mat), rtol=0)

    def test_residuals_and_spectral_mean_identity(self):
        for dim, A, B in rand_pd_pairs(6, cond=1e3):
            R, C = spectral_change_of_vars(A, B)
            Rinv = np.linalg.inv(R)
            assert np.linalg.norm(Rinv @ C @ Rinv - A.mat) <= 1e-8 * np.linalg.norm(A.mat)
            assert np.linalg.norm(R @ C @ R - B.mat) <= 1e-8 * np.linalg.norm(B.mat)
            nat = spectral_mean(A, B)
            assert np.linalg.norm(nat.mat - C) <= 1e-8 * np.linalg.norm(C)


class TestPinchingMap:
    def test_identity_input(self):
        R = rand_pd(3, seed=41)
        R = PDMatrix(0.2 * R.mat + 0.2 * np.eye(3))  # spectrum inside (0, 1)
        out = pinching_map(PDMatrix(np.eye(3)), R)
        np.testing.assert_allclose(out.phi, np.eye(3), atol=1e-10, rtol=0)

    def test_scalar_r_collapses(self):
        C = rand_pd(4, seed=42)
        out = pinching_map(C, PDMatrix(0.5 * np.eye(4)))
        np.testing.assert_allclose(out.phi, C.mat, atol=1e-10 * np.linalg.norm(C.mat), rtol=0)

    def test_trace_identity_for_compressions(self):
        for dim, C, R0 in rand_pd_pairs(8, dims=(2, 3, 5, 7)):
            R = PDMatrix(0.9 * R0.mat / R0.eig().eigenvalues[0] * 0.9 + 0.05 * np.eye(dim))
            S = PDMatrix(np.eye(dim) - R.mat)
            P = PDMatrix((R.mat @ C.mat @ R.mat + (R.mat @ C.mat @ R.mat).conj().T) / 2)
            Q = PDMatrix((S.mat @ C.mat @ S.mat + (S.mat @ C.mat @ S.mat).conj().T) / 2)
            lhs = spectral_mean(P, Q).trace()
            rhs = float(np.trace(R.mat @ S.mat @ C.mat).real)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_trace_subpreserving_and_unital(self):
        C = rand_pd(5, seed=44, cond=1e4)
        R = PDMatrix(np.diag(np.linspace(0.1, 0.9, 5)))
        out = pinching_map(C, R).matrix()
        assert out.trace() <= C.trace() * (1.0 + 1e-9)
        eye_out = pinching_map(PDMatrix(np.eye(5)), R)
        assert np.linalg.norm(eye_out.phi - np.eye(5)) <= 1e-10

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    def test_stacked_maps_equal_per_c_maps(self, cond):
        for dim in range(1, 9):
            U = rand_pd(dim, seed=dim).eig().eigenvectors
            R = PDMatrix((U * np.linspace(0.1, 0.9, dim)) @ U.conj().T)
            Cs = [rand_pd(dim, 10 * dim + i, cond) for i in range(3)]
            stacked = pinching_map(np.stack([C.mat for C in Cs]), R)
            for i, C in enumerate(Cs):
                single = pinching_map(C, R)
                np.testing.assert_array_equal(stacked.phi[i], single.phi)
                np.testing.assert_array_equal(stacked.eigenvalues[i], single.eigenvalues)
                np.testing.assert_array_equal(stacked.compressions.A[i], single.compressions.A)
                np.testing.assert_array_equal(stacked.S, single.S)
                np.testing.assert_array_equal(stacked.matrix(i).mat, single.matrix().mat)

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, 2.0], [0.0, 1.0]]), MatrixFormatError),
        (np.diag([1.0, -0.5]), NotPositiveDefiniteError),
    ], ids=["non-hermitian", "indefinite"])
    def test_one_bad_c_raises_like_the_scalar_gate(self, bad, error):
        with pytest.raises(error):
            PDMatrix(bad)
        R = PDMatrix(np.diag([0.3, 0.6]))
        good = rand_pd(2, seed=46).mat
        with pytest.raises(error, match=r"stack index \((1,|0, 1)\)"):
            pinching_map(np.stack([good, bad]), R)

    def test_rejects_spectrum_outside_unit_interval(self):
        C = rand_pd(2, seed=45)
        with pytest.raises(NotPositiveDefiniteError):
            pinching_map(C, PDMatrix(np.diag([0.5, 1.5])))

    @pytest.mark.parametrize("C", [rand_pd(3, seed=45), np.stack([np.eye(3)] * 2)], ids=["3x3", "stack-3x3"])
    def test_rejects_a_c_of_another_shape_than_r(self, C):
        with pytest.raises(MatrixFormatError, match=r"^dimension mismatch: C \("):
            pinching_map(C, PDMatrix(np.diag([0.3, 0.6])))


def kubo_change_of_vars(A: PDMatrix, B: PDMatrix, a: float, b: float) -> tuple[PDMatrix, PDMatrix]:
    """(R, W) with T = aI + bX, R = a T^{-1} and W = W_{a,b}(A, B) = T A T."""
    T = PDMatrix(a * np.eye(A.dim) + b * riccati_mean(A, B).mat)
    return PDMatrix(a * np.linalg.inv(T.mat)), PDMatrix(wasserstein_expression(A, B, a, b).mat)


class TestKuboChangeOfVars:
    """With S = I - R: R W R = a^2 A, S W S = b^2 B, and the Kubo Heron
    sum a^2 A + b^2 B + 2ab (A # B) is Phi_R(W)."""

    def test_identity_balanced(self):
        I = PDMatrix(np.eye(3))
        R, C = kubo_change_of_vars(I, I, 0.5, 0.5)
        np.testing.assert_allclose(R.mat, 0.5 * np.eye(3), atol=1e-12, rtol=0)
        np.testing.assert_allclose(C.mat, np.eye(3), atol=1e-12, rtol=0)

    def test_equal_operands(self):
        A = rand_pd(3, seed=51)
        R, C = kubo_change_of_vars(A, A, 1.0, 1.0)
        np.testing.assert_allclose(R.mat, 0.5 * np.eye(3), atol=1e-10, rtol=0)
        np.testing.assert_allclose(C.mat, 4.0 * A.mat, atol=1e-10 * np.linalg.norm(A.mat), rtol=0)

    def test_reduction_identity(self):
        for dim, A, B in rand_pd_pairs(6, cond=1e3):
            for a, b in ((1.0, 1.0), (0.7, 1.3)):
                R, C = kubo_change_of_vars(A, B, a, b)
                S = np.eye(dim) - R.mat
                for M, target in ((R.mat, a * a * A.mat), (S, b * b * B.mat)):
                    assert np.linalg.norm(M @ C.mat @ M - target) <= 1e-8 * np.linalg.norm(target)
                lhs = pinching_map(C, R).phi
                rhs = heron_kubo(A, B, a, b).mat
                assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_non_loewner_witness():
    # the endpoint comparison is not a Loewner-order comparison: this
    # difference matrix has eigenvalues of both signs
    R = np.diag([1.0, 2.0])
    C = np.array([[1.0, 0.5], [0.5, 1.0]])
    Rinv = np.linalg.inv(R)
    diff = Rinv @ C @ R + R @ C @ Rinv - 2.0 * C
    vals = np.linalg.eigvalsh(diff)
    assert vals[0] <= -0.2
    assert vals[-1] >= 0.2
