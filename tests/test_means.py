import numpy as np
import pytest

from matmean import means
from matmean.errors import InvalidWeightsError, MatrixFormatError, NotPositiveDefiniteError, NumericalFailure
from matmean.linalg import PDMatrix, as_stack, assemble, derived
from matmean.means import (
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
        np.testing.assert_allclose(riccati_mean(I, I).mat, np.eye(3), atol=1e-14, rtol=0)

    def test_recovers_known_solution(self):
        A, X, B = certified_pair_2x2()
        np.testing.assert_allclose(riccati_mean(A, B).mat, X, atol=1e-12, rtol=0)

    def test_residual_on_random_pairs(self):
        for dim, A, B in rand_pd_pairs(10, cond=1e4):
            X = riccati_mean(A, B)
            res = np.linalg.norm(X.mat @ A.mat @ X.mat - B.mat)
            assert res <= 1e-8 * np.linalg.norm(B.mat)

    def test_consistency_with_geometric_mean(self):
        for dim, A, B in rand_pd_pairs(6):
            X = riccati_mean(A, B)
            Y = geometric_mean(PDMatrix(np.linalg.inv(A.mat)), B)
            np.testing.assert_allclose(X.mat, Y.mat, atol=1e-10 * np.linalg.norm(Y.mat), rtol=0)


class TestNaNFailsItsCheck:
    """A NaN or inf reaching a check fails it: a comparison that NaN
    makes False once let NaN matrices through."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_psd_power_of_a_non_finite_intermediate(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            means._psd_pow_raw(means._eigh(np.array([[bad, 0.0], [0.0, 1.0]])), 0.5)

    @pytest.mark.parametrize("warm, compute, message", [
        (lambda pair: None, lambda pair: pair.riccati(), "Riccati residual"),
        (lambda pair: pair.riccati(), lambda pair: pair.wasserstein(1.0, 1.0), "Wasserstein dual formulas"),
    ], ids=["riccati", "dual-form"])
    def test_nan_residual(self, monkeypatch, warm, compute, message):
        pair = Pair(rand_pd(3, seed=61), rand_pd(3, seed=62))
        warm(pair)  # X is computed before the patch, so only `compute` reads NaN norms
        monkeypatch.setattr(means, "frobenius", lambda mats: np.full(np.shape(mats)[:-2], np.nan))
        with pytest.raises(NumericalFailure, match=message):
            compute(pair)


class TestPsdPower:
    @pytest.mark.parametrize("t", [0.5, 0.3])
    def test_stack_is_assembled_from_eigh_in_its_order(self, t):
        # a rank-one slice, whose zero eigenvalues go through the clamp to 0
        v = np.array([1.0, 2.0j, -1.0])
        mats = np.stack([rand_pd(3, seed=80).mat, np.outer(v, v.conj()), rand_pd(3, seed=81, cond=1e8).mat])
        vals, vecs = np.linalg.eigh(mats)
        expected = assemble(np.maximum(vals, 0.0) ** t, vecs)
        np.testing.assert_array_equal(means._psd_pow_raw(means._eigh(mats), t), expected)


class TestGeometricMean:
    def test_endpoints(self):
        A, _, B = certified_pair_2x2()
        assert geometric_mean_weighted(A, B, 0.0) is A
        assert geometric_mean_weighted(A, B, 1.0) is B

    def test_commuting_diagonal_weighted(self):
        A, B = commuting_diag_pair()
        t = 0.3
        expected = np.diag(np.diag(A.mat).real ** (1 - t) * np.diag(B.mat).real ** t)
        np.testing.assert_allclose(geometric_mean_weighted(A, B, t).mat, expected, atol=1e-13, rtol=0)

    def test_self_mean(self):
        A = rand_pd(4, seed=1)
        np.testing.assert_allclose(geometric_mean(A, A).mat, A.mat, atol=1e-12, rtol=0)

    def test_certified_trace(self):
        A, _, B = certified_pair_2x2()
        assert geometric_mean(A, B).trace() == pytest.approx(40.0 / np.sqrt(73.0), rel=1e-12)

    def test_symmetry(self):
        for dim, A, B in rand_pd_pairs(6):
            G1 = geometric_mean(A, B)
            G2 = geometric_mean(B, A)
            np.testing.assert_allclose(G1.mat, G2.mat, atol=1e-9 * np.linalg.norm(G1.mat), rtol=0)

    def test_congruence_invariance(self, rng):
        for dim, A, B in rand_pd_pairs(6, dims=(2, 3, 5)):
            T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = T @ geometric_mean(A, B).mat @ T.conj().T
            rhs = geometric_mean(
                PDMatrix(T @ A.mat @ T.conj().T), PDMatrix(T @ B.mat @ T.conj().T)
            ).mat
            np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.linalg.norm(rhs), rtol=0)

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
        np.testing.assert_allclose(spectral_mean(A, B).mat, expected, atol=1e-13, rtol=0)

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
                np.testing.assert_allclose(got, expected, atol=1e-10 * np.linalg.norm(expected), rtol=0)


class TestWasserstein:
    def test_identity_pair(self):
        I = PDMatrix(np.eye(2))
        W = wasserstein_expression(I, I, 1.5, 0.5)
        np.testing.assert_allclose(W.mat, 4.0 * np.eye(2), atol=1e-13, rtol=0)

    def test_b_zero_returns_scaled_a(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(wasserstein_expression(A, B, 1.0, 0.0).mat, A.mat, atol=1e-14, rtol=0)

    def test_dual_formulas_agree(self):
        for dim, A, B in rand_pd_pairs(10, cond=1e4):
            res = Pair(A, B).wasserstein(1.0, 0.7)[1]
            W = wasserstein_expression(A, B, 1.0, 0.7)
            assert res <= 1e-8 * np.linalg.norm(W.mat)

    def test_rejects_negative_weights(self):
        A, _, B = certified_pair_2x2()
        with pytest.raises(InvalidWeightsError):
            wasserstein_expression(A, B, -1.0, 1.0)


class TestGeodesic:
    def test_endpoints(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(bw_geodesic(A, B, 0.0).mat, A.mat, atol=1e-14, rtol=0)
        np.testing.assert_allclose(bw_geodesic(A, B, 1.0).mat, B.mat, atol=1e-12, rtol=0)

    def test_midpoint_of_equal_operands(self):
        A = rand_pd(3, seed=2)
        np.testing.assert_allclose(bw_geodesic(A, A, 0.5).mat, A.mat, atol=1e-12, rtol=0)

    def test_matches_wasserstein_weights(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(
            bw_geodesic(A, B, 0.3).mat,
            wasserstein_expression(A, B, 0.7, 0.3).mat,
            atol=1e-14, rtol=0,
        )


class TestHeron:
    def test_spectral_no_cross_term(self):
        A, _, B = certified_pair_2x2()
        H = heron_spectral(A, B, 2.0, 3.0, 0.0)
        np.testing.assert_allclose(H.mat, 4.0 * A.mat + 9.0 * B.mat, atol=1e-13, rtol=0)

    def test_scalar_case(self):
        one = PDMatrix(np.array([[1.0]]))
        for a, b, c in ((1.0, 1.0, 2.0), (0.5, 2.0, 1.0)):
            H = heron_spectral(one, one, a, b, c)
            assert H.mat[0, 0].real == pytest.approx(a * a + b * b + c, rel=1e-15)

    def test_commuting_endpoint_equals_wasserstein(self):
        A, B = commuting_diag_pair()
        H = heron_spectral(A, B, 0.8, 1.1)
        W = wasserstein_expression(A, B, 0.8, 1.1)
        np.testing.assert_allclose(H.mat, W.mat, atol=1e-12 * np.linalg.norm(W.mat), rtol=0)

    def test_kubo_no_cross_term(self):
        A, _, B = certified_pair_2x2()
        np.testing.assert_allclose(heron_kubo(A, B, 2.0, 3.0, 0.0).mat, 4.0 * A.mat + 9.0 * B.mat,
                                   atol=1e-13, rtol=0)

    def test_kubo_equal_operands(self):
        A = rand_pd(3, seed=9)
        np.testing.assert_allclose(heron_kubo(A, A, 1.0, 1.0, 2.0).mat, 4.0 * A.mat, atol=1e-12, rtol=0)

    def test_kubo_certified_trace(self):
        A, _, B = certified_pair_2x2()
        expected = A.trace() + B.trace() + 2 * 40.0 / np.sqrt(73.0)
        assert heron_kubo(A, B, 1.0, 1.0).trace() == pytest.approx(expected, rel=1e-12)

    def test_weights_validation(self):
        A, _, B = certified_pair_2x2()
        with pytest.raises(InvalidWeightsError):
            heron_spectral(A, B, -1.0, 1.0, 0.0)
        np.testing.assert_array_equal(heron_spectral(A, B, 2.0, 3.0).mat, heron_spectral(A, B, 2.0, 3.0, 12.0).mat)

    # both Heron functions take (a, b, c=None) and check their weights alike
    @pytest.mark.parametrize("heron", [heron_spectral, heron_kubo])
    def test_default_c_is_the_endpoint_bitwise(self, heron):
        for dim, A, B in rand_pd_pairs(4, cond=1e4):
            for a, b in ((1.0, 1.0), (0.3, 0.9), (2.0, 0.5)):
                np.testing.assert_array_equal(heron(A, B, a, b).mat, heron(A, B, a, b, 2.0 * a * b).mat)

    @pytest.mark.parametrize("heron", [heron_spectral, heron_kubo])
    @pytest.mark.parametrize("a, b, c", [(np.nan, 1.0, None), (1.0, 1.0, np.nan), (1.0, -0.5, None),
                                         (np.inf, 1.0, 0.0)])
    def test_bad_weights_rejected_by_name(self, heron, a, b, c):
        A, _, B = certified_pair_2x2()
        with pytest.raises(InvalidWeightsError, match=f"^{heron.__name__}: weights must be finite"):
            heron(A, B, a, b, c)

    @pytest.mark.parametrize("cross", ["spectral", "geometric"])
    @pytest.mark.parametrize("a, b, c", [(-1.0, 1.0, 2.0), (1.0, 1.0, -3.0), (1.0, 1.0, np.nan), (1.0, np.inf, 2.0)])
    def test_pair_heron_checks_its_weights(self, cross, a, b, c):
        # as Pair.wasserstein does, naming no stack index for one pair
        pair = Pair(rand_pd(3, seed=61, cond=10.0), rand_pd(3, seed=62, cond=10.0))
        with pytest.raises(InvalidWeightsError) as error:
            pair.heron(cross, a, b, c)
        assert str(error.value) == f"heron: weights must be finite and nonnegative, got a = {a}, b = {b}, c = {c}"


class TestProductSqrt:
    def test_identity_pair(self):
        I = PDMatrix(np.eye(3))
        left, right = product_sqrt_pair(I, I)
        np.testing.assert_allclose(left, np.eye(3), atol=1e-14, rtol=0)
        np.testing.assert_allclose(right, np.eye(3), atol=1e-14, rtol=0)

    def test_commuting_diagonal(self):
        A, B = commuting_diag_pair()
        left, right = product_sqrt_pair(A, B)
        expected = np.diag(np.sqrt(np.diag(A.mat).real * np.diag(B.mat).real))
        np.testing.assert_allclose(left, expected, atol=1e-13, rtol=0)
        np.testing.assert_allclose(right, expected, atol=1e-13, rtol=0)

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
        np.testing.assert_allclose(cross_geo, cross_w, atol=1e-12 * np.linalg.norm(cross_w), rtol=0)
        np.testing.assert_allclose(cross_spec, cross_w, atol=1e-12 * np.linalg.norm(cross_w), rtol=0)

    def test_homogeneity(self):
        A, _, B = certified_pair_2x2()
        alpha = 2.75
        As, Bs = PDMatrix(alpha * A.mat), PDMatrix(alpha * B.mat)
        for f in (
            geometric_mean,
            spectral_mean,
            lambda P, Q: wasserstein_expression(P, Q, 0.6, 0.9),
            lambda P, Q: heron_kubo(P, Q, 0.6, 0.9),
            lambda P, Q: heron_spectral(P, Q, 0.6, 0.9),
        ):
            ref = f(A, B).mat
            scaled = f(As, Bs).mat
            np.testing.assert_allclose(scaled, alpha * ref, atol=1e-10 * np.linalg.norm(alpha * ref), rtol=0)


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

    def test_stack_joins_pairs_in_order_bitwise(self):
        pairs = [(rand_pd(4, 2 * i, 1e3), rand_pd(4, 2 * i + 1, 1e3)) for i in range(3)]
        gated = Pair.gated(np.stack([A.mat for A, _ in pairs[1:]]), np.stack([B.mat for _, B in pairs[1:]]))
        joined = Pair.stack([pairs[0], gated])
        # the first pair's decompositions, then those the gate made
        for name in ("A", "B"):
            np.testing.assert_array_equal(getattr(joined, name), [getattr(Pair.stack(pairs[:1]), name)[0],
                                                                   *getattr(gated, name)])
        for name in ("_eig_A", "_eig_B"):
            for part, first, rest in zip(getattr(joined, name), getattr(Pair.stack(pairs[:1]), name), getattr(gated, name)):
                np.testing.assert_array_equal(part, np.concatenate([first, rest]))
        assert len(joined) == 3
        np.testing.assert_array_equal(joined.spectral()[1:], gated.spectral())

    def test_taken_pairs_compute_the_means_of_their_rows_bitwise(self):
        pairs = [(rand_pd(4, 2 * i, 1e3), rand_pd(4, 2 * i + 1, 1e3)) for i in range(3)]
        parent, full = Pair.stack(pairs), Pair.stack(pairs)
        taken = parent.take([0, 2])
        for name in ("spectral", "riccati", "geometric"):
            mean = getattr(taken, name)()
            assert mean.shape == (2, 4, 4)
            np.testing.assert_array_equal(mean, getattr(full, name)()[[0, 2]])
        for root, full_root in zip(parent.take([1]).sqrt(), full.sqrt()):
            assert root.shape == (1, 4, 4)
            np.testing.assert_array_equal(root, full_root[[1]])
        # the sub-Pairs' means leave the parent's uncomputed
        assert parent._riccati is parent._spectral is parent._geometric is parent._sqrt is None
        assert parent.take(range(len(parent))) is parent

    def test_slice_of_a_stack_is_a_pair(self):
        pairs = [(rand_pd(4, 2 * i, 1e3), rand_pd(4, 2 * i + 1, 1e3)) for i in range(2)]
        second = Pair.stack(pairs).take([1])
        np.testing.assert_allclose(second.spectral()[0], Pair(*pairs[1]).spectral(), rtol=0, atol=1e-12)

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
        with pytest.raises(MatrixFormatError):
            Pair.stack([(rand_pd(2, seed=1), rand_pd(2, seed=2)), Pair.gated(rand_pd(3, seed=3).mat, rand_pd(3, seed=4).mat)])


def _separate_passes(pair: Pair, i: int) -> tuple[np.ndarray, np.ndarray]:
    """X and A # B of slice i of a Pair, each by its own `_geometric_raw`
    pass over that one matrix: X = (A^{-1}) # B, A^{-1} from A's
    eigen-data as reversed reciprocals."""
    eig_A = means._flat(pair._eig_A).at(i)
    B = as_stack(pair.B)[i]
    X = means._geometric_raw(*means._middle(derived(eig_A, np.reciprocal, reverse=True), B), 0.5)
    return X, means._geometric_raw(*means._middle(eig_A, B), 0.5)


class TestJointMeans:
    """One `joint_means` pass gives X and A # B bit for bit as two
    separate `_geometric_raw` passes, slice by slice, with one eigh for
    both middles."""

    def test_one_pair(self, monkeypatch):
        pair = Pair(rand_pd(5, seed=90, cond=1e4), rand_pd(5, seed=91, cond=1e4))
        X, G = _separate_passes(pair, 0)
        middles = []
        eigh = means._eigh
        monkeypatch.setattr(means, "_eigh", lambda mats: middles.append(mats.shape) or eigh(mats))
        means.joint_means(pair, pair)
        assert middles == [(2, 5, 5)]
        assert pair.riccati().shape == pair.geometric().shape == (5, 5)
        np.testing.assert_array_equal(pair.riccati(), X)
        np.testing.assert_array_equal(pair.geometric(), G)

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_riccati_pairs_a_strict_subset_of_the_geometric_ones(self, dim):
        pairs = [(rand_pd(dim, 200 + 2 * i, 1e6), rand_pd(dim, 201 + 2 * i, 1e6)) for i in range(5)]
        stack = Pair.stack(pairs)
        x, g = stack.take([1, 3]), stack.take(range(5))
        means.joint_means(x, g)
        assert g is stack and x._riccati is not None and g._riccati is None
        for k, i in enumerate([1, 3]):
            np.testing.assert_array_equal(x.riccati()[k], _separate_passes(stack, i)[0])
        for i in range(5):
            np.testing.assert_array_equal(g.geometric()[i], _separate_passes(stack, i)[1])
        # a computed mean is not computed again
        X, G = x.riccati(), g.geometric()
        means.joint_means(x, g)
        assert x.riccati() is X and g.geometric() is G

    def test_checks_keep_the_order_of_two_passes(self, monkeypatch):
        # X's middle, X's gate (and residual), then the middle of A # B
        order = []
        pow_raw, gate = means._psd_pow_raw, means.gate_stack
        monkeypatch.setattr(means, "_psd_pow_raw", lambda middle, t: order.append(("middle", len(middle[0])))
                            or pow_raw(middle, t))
        monkeypatch.setattr(means, "gate_stack", lambda mats: order.append(("gate", len(mats))) or gate(mats))
        stack = Pair.stack([(rand_pd(3, 300 + 2 * i), rand_pd(3, 301 + 2 * i)) for i in range(3)])
        means.joint_means(stack.take([0]), stack)
        assert order == [("middle", 1), ("gate", 1), ("middle", 3)]

    def test_middle_failure_names_the_index_within_its_pair(self, monkeypatch):
        stack = Pair.stack([(rand_pd(3, 310 + 2 * i), rand_pd(3, 311 + 2 * i)) for i in range(3)])
        eigh = means._eigh

        def negative_last(mats):
            vals, vecs = eigh(mats)
            vals = vals.copy()
            vals[-1, 0] = -1.0  # the middle of A # B of pair 2
            return vals, vecs

        monkeypatch.setattr(means, "_eigh", negative_last)
        with pytest.raises(NotPositiveDefiniteError, match=r"not PSD.*\(stack index \(2,\)\)$"):
            means.joint_means(stack.take([0, 1]), stack)
