import numpy as np
import pytest

from matmean.errors import InvalidWeightsError, MatrixFormatError, NotPositiveDefiniteError
from matmean.linalg import PDMatrix, inverse
from matmean.means import (
    MeanWeights,
    Pair,
    bw_geodesic,
    geometric_mean,
    geometric_mean_weighted,
    heron_kubo,
    heron_spectral,
    product_sqrt_pair,
    riccati_mean,
    spectral_mean,
    spectral_mean_weighted,
    wasserstein_expression,
    wasserstein_residual,
)

from conftest import rand_pd, rand_pd_pairs


def certified_pair_2x2():
    A = PDMatrix(np.diag([1.0, 4.0]))
    X = np.array([[1.0, 0.5], [0.5, 1.0]])
    B = PDMatrix(X @ A.mat @ X)
    return A, X, B


def commuting_diag_pair():
    return PDMatrix(np.diag([1.0, 4.0, 9.0])), PDMatrix(np.diag([2.0, 3.0, 5.0]))


class TestRiccati:
    def test_identity_pair(self):
        I = PDMatrix(np.eye(3))
        np.testing.assert_allclose(riccati_mean(I, I).mat, np.eye(3), atol=1e-14)

    def test_recovers_known_solution(self):
        A, X, B = certified_pair_2x2()
        np.testing.assert_allclose(riccati_mean(A, B).mat, X, atol=1e-12)

    def test_residual_on_random_pairs(self):
        for dim, A, B in rand_pd_pairs(10, cond=1e4):
            X = riccati_mean(A, B)
            res = np.linalg.norm(X.mat @ A.mat @ X.mat - B.mat)
            assert res <= 1e-8 * np.linalg.norm(B.mat)

    def test_consistency_with_geometric_mean(self):
        for dim, A, B in rand_pd_pairs(6):
            X = riccati_mean(A, B)
            Y = geometric_mean(inverse(A), B)
            np.testing.assert_allclose(X.mat, Y.mat, atol=1e-10 * np.linalg.norm(Y.mat))


class TestGeometricMean:
    def test_endpoints(self):
        A, _, B = certified_pair_2x2()
        assert geometric_mean_weighted(A, B, 0.0) is A
        assert geometric_mean_weighted(A, B, 1.0) is B

    def test_commuting_diagonal_weighted(self):
        A, B = commuting_diag_pair()
        t = 0.3
        expected = np.diag(np.diag(A.mat).real ** (1 - t) * np.diag(B.mat).real ** t)
        np.testing.assert_allclose(geometric_mean_weighted(A, B, t).mat, expected, atol=1e-13)

    def test_self_mean(self):
        A = rand_pd(4, seed=1)
        np.testing.assert_allclose(geometric_mean(A, A).mat, A.mat, atol=1e-12)

    def test_certified_trace(self):
        A, _, B = certified_pair_2x2()
        assert geometric_mean(A, B).trace() == pytest.approx(40.0 / np.sqrt(73.0), rel=1e-12)

    def test_symmetry(self):
        for dim, A, B in rand_pd_pairs(6):
            G1 = geometric_mean(A, B)
            G2 = geometric_mean(B, A)
            np.testing.assert_allclose(G1.mat, G2.mat, atol=1e-9 * np.linalg.norm(G1.mat))

    def test_congruence_invariance(self, rng):
        for dim, A, B in rand_pd_pairs(6, dims=(2, 3, 5)):
            T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = T @ geometric_mean(A, B).mat @ T.conj().T
            rhs = geometric_mean(
                PDMatrix(T @ A.mat @ T.conj().T), PDMatrix(T @ B.mat @ T.conj().T)
            ).mat
            np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.linalg.norm(rhs))

    def test_rejects_bad_t(self):
        A, _, B = certified_pair_2x2()
        with pytest.raises(InvalidWeightsError):
            geometric_mean_weighted(A, B, 1.5)


class TestSpectralMean:
    def test_t_zero(self):
        A, _, B = certified_pair_2x2()
        assert spectral_mean_weighted(A, B, 0.0) is A

    def test_commuting_diagonal_midpoint(self):
        A, B = commuting_diag_pair()
        expected = np.diag(np.sqrt(np.diag(A.mat).real * np.diag(B.mat).real))
        np.testing.assert_allclose(spectral_mean(A, B).mat, expected, atol=1e-13)

    def test_certified_trace_is_five(self):
        A, X, B = certified_pair_2x2()
        assert spectral_mean(A, B).trace() == pytest.approx(np.trace(A.mat @ X).real, rel=1e-12)
        assert spectral_mean(A, B).trace() == pytest.approx(5.0, rel=1e-12)

    def test_weighted_formula(self):
        for dim, A, B in rand_pd_pairs(5, dims=(2, 4)):
            X = riccati_mean(A, B)
            for t in (0.25, 0.5, 0.75):
                vals, vecs = np.linalg.eigh(X.mat)
                Xt = (vecs * vals ** t) @ vecs.conj().T
                expected = Xt @ A.mat @ Xt
                got = spectral_mean_weighted(A, B, t).mat
                np.testing.assert_allclose(got, expected, atol=1e-10 * np.linalg.norm(expected))


class TestWasserstein:
    def test_identity_pair(self):
        I = PDMatrix(np.eye(2))
        W = wasserstein_expression(I, I, 1.5, 0.5)
        np.testing.assert_allclose(W.mat, 4.0 * np.eye(2), atol=1e-13)

    def test_b_zero_returns_scaled_a(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(wasserstein_expression(A, B, 1.0, 0.0).mat, A.mat, atol=1e-14)

    def test_dual_formulas_agree(self):
        for dim, A, B in rand_pd_pairs(10, cond=1e4):
            res = wasserstein_residual(A, B, 1.0, 0.7)
            W = wasserstein_expression(A, B, 1.0, 0.7)
            assert res <= 1e-8 * np.linalg.norm(W.mat)

    def test_rejects_negative_weights(self):
        A, _, B = certified_pair_2x2()
        with pytest.raises(InvalidWeightsError):
            wasserstein_expression(A, B, -1.0, 1.0)


class TestGeodesic:
    def test_endpoints(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(bw_geodesic(A, B, 0.0).mat, A.mat, atol=1e-14)
        np.testing.assert_allclose(bw_geodesic(A, B, 1.0).mat, B.mat, atol=1e-12)

    def test_midpoint_of_equal_operands(self):
        A = rand_pd(3, seed=2)
        np.testing.assert_allclose(bw_geodesic(A, A, 0.5).mat, A.mat, atol=1e-12)

    def test_matches_wasserstein_weights(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(
            bw_geodesic(A, B, 0.3).mat,
            wasserstein_expression(A, B, 0.7, 0.3).mat,
            atol=1e-14,
        )


class TestHeron:
    def test_spectral_no_cross_term(self):
        A, _, B = certified_pair_2x2()
        H = heron_spectral(A, B, MeanWeights(2.0, 3.0, 0.0))
        np.testing.assert_allclose(H.mat, 4.0 * A.mat + 9.0 * B.mat, atol=1e-13)

    def test_scalar_case(self):
        one = PDMatrix(np.array([[1.0]]))
        for a, b, c in ((1.0, 1.0, 2.0), (0.5, 2.0, 1.0)):
            H = heron_spectral(one, one, MeanWeights(a, b, c))
            assert H.mat[0, 0].real == pytest.approx(a * a + b * b + c, rel=1e-15)

    def test_commuting_endpoint_equals_wasserstein(self):
        A, B = commuting_diag_pair()
        H = heron_spectral(A, B, MeanWeights.sharp(0.8, 1.1))
        W = wasserstein_expression(A, B, 0.8, 1.1)
        np.testing.assert_allclose(H.mat, W.mat, atol=1e-12 * np.linalg.norm(W.mat))

    def test_kubo_no_cross_term(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(heron_kubo(A, B, 2.0, 3.0, 0.0).mat, 4.0 * A.mat + 9.0 * B.mat,
                                   atol=1e-13)

    def test_kubo_equal_operands(self):
        A = rand_pd(3, seed=9)
        np.testing.assert_allclose(heron_kubo(A, A, 1.0, 1.0, 2.0).mat, 4.0 * A.mat, atol=1e-12)

    def test_kubo_certified_trace(self):
        A, _, B = certified_pair_2x2()
        expected = A.trace() + B.trace() + 2 * 40.0 / np.sqrt(73.0)
        assert heron_kubo(A, B, 1.0, 1.0).trace() == pytest.approx(expected, rel=1e-12)

    def test_weights_validation(self):
        with pytest.raises(InvalidWeightsError):
            MeanWeights(-1.0, 1.0, 0.0)
        assert MeanWeights.sharp(2.0, 3.0).c == 12.0


class TestProductSqrt:
    def test_identity_pair(self):
        I = PDMatrix(np.eye(3))
        left, right = product_sqrt_pair(I, I)
        np.testing.assert_allclose(left, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(right, np.eye(3), atol=1e-14)

    def test_commuting_diagonal(self):
        A, B = commuting_diag_pair()
        left, right = product_sqrt_pair(A, B)
        expected = np.diag(np.sqrt(np.diag(A.mat).real * np.diag(B.mat).real))
        np.testing.assert_allclose(left, expected, atol=1e-13)
        np.testing.assert_allclose(right, expected, atol=1e-13)

    def test_squares_reproduce_products(self):
        for dim, A, B in rand_pd_pairs(8, cond=1e4):
            left, right = product_sqrt_pair(A, B)
            AB = A.mat @ B.mat
            assert np.linalg.norm(left @ left - AB) <= 1e-8 * np.linalg.norm(AB)
            assert np.linalg.norm(right @ right - AB.conj().T) <= 1e-8 * np.linalg.norm(AB)

    def test_sum_is_hermitian(self):
        for dim, A, B in rand_pd_pairs(8, cond=1e4):
            left, right = product_sqrt_pair(A, B)
            total = left + right
            skew = np.linalg.norm(total - total.conj().T)
            assert skew <= 1e-10 * np.linalg.norm(total)


class TestStructuralInvariants:
    def test_commuting_collapse(self):
        # with commuting operands all three cross terms coincide
        A, B = commuting_diag_pair()
        left, right = product_sqrt_pair(A, B)
        cross_w = left + right
        cross_geo = 2.0 * geometric_mean(A, B).mat
        cross_spec = 2.0 * spectral_mean(A, B).mat
        np.testing.assert_allclose(cross_geo, cross_w, atol=1e-12 * np.linalg.norm(cross_w))
        np.testing.assert_allclose(cross_spec, cross_w, atol=1e-12 * np.linalg.norm(cross_w))

    def test_homogeneity(self):
        A, _, B = certified_pair_2x2()
        alpha = 2.75
        As, Bs = PDMatrix(alpha * A.mat), PDMatrix(alpha * B.mat)
        for f in (
            geometric_mean,
            spectral_mean,
            lambda P, Q: wasserstein_expression(P, Q, 0.6, 0.9),
            lambda P, Q: heron_kubo(P, Q, 0.6, 0.9),
            lambda P, Q: heron_spectral(P, Q, MeanWeights.sharp(0.6, 0.9)),
        ):
            ref = f(A, B).mat
            scaled = f(As, Bs).mat
            np.testing.assert_allclose(scaled, alpha * ref, atol=1e-10 * np.linalg.norm(alpha * ref))


def _rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


class TestStackedPair:
    """A Pair over a stack of operand pairs computes, slice by slice, what
    one-pair Pairs compute."""

    WEIGHTS = ((1.0, 1.0), (0.3, 0.9), (1.0, 0.0), (0.0, 0.5))

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_stack_equals_per_slice_pairs(self, dim, cond):
        pairs = [(rand_pd(dim, 100 * dim + 2 * i, cond), rand_pd(dim, 100 * dim + 2 * i + 1, cond))
                 for i in range(3)]
        # Pair.gated decomposes afresh, as the PDMatrix constructor does
        regated = [(PDMatrix(A.mat), PDMatrix(B.mat)) for A, B in pairs]
        for stacked, singles in ((Pair.stack(pairs), pairs),
                                 (Pair.gated(np.stack([A.mat for A, _ in pairs]),
                                             np.stack([B.mat for _, B in pairs])), regated)):
            for i, (A, B) in enumerate(singles):
                single = Pair(A, B)
                assert _rel(stacked.riccati()[i], single.riccati()) <= 1e-12
                assert _rel(stacked.geometric()[i], single.geometric()) <= 1e-12
                assert _rel(stacked.spectral()[i], single.spectral()) <= 1e-12
                for a, b in self.WEIGHTS:
                    W, residual = stacked.wasserstein(a, b)
                    assert _rel(W[i], single.wasserstein(a, b)[0]) <= 1e-12
                    assert residual.shape == (3,)

    def test_slice_of_a_stack_is_a_pair(self):
        pairs = [(rand_pd(4, 2 * i, 1e3), rand_pd(4, 2 * i + 1, 1e3)) for i in range(2)]
        second = Pair.stack(pairs)[1]
        np.testing.assert_allclose(second.spectral(), Pair(*pairs[1]).spectral(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), MatrixFormatError),
        (np.diag([1.0, -0.5, 1.0]), NotPositiveDefiniteError),
    ], ids=["non-hermitian", "indefinite"])
    def test_one_bad_slice_raises_like_the_scalar_gate(self, bad, error):
        with pytest.raises(error):
            PDMatrix(bad)
        good = rand_pd(3, seed=5).mat
        # the index names the operand (0 for A, 1 for B) and the slice
        with pytest.raises(error, match=r"stack index \(1, 2\)"):
            Pair.gated(np.stack([good, good, good]), np.stack([good, good, bad]))

    def test_mismatched_dimensions_are_rejected(self):
        with pytest.raises(MatrixFormatError):
            Pair.stack([(rand_pd(2, seed=1), rand_pd(2, seed=2)), (rand_pd(3, seed=3), rand_pd(3, seed=4))])
        with pytest.raises(MatrixFormatError):
            Pair.gated(rand_pd(2, seed=1).mat, rand_pd(3, seed=2).mat)
