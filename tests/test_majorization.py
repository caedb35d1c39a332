import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matmean.errors import MatrixFormatError, NotPositiveDefiniteError
from matmean.linalg import HermitianMatrix, complex_gaussian, haar_unitaries, hermitian_part
from matmean.majorization import ky_fan_margins, ky_fan_threshold, verdict, weak_margin
from matmean.means import geometric_mean, spectral_mean

from conftest import rand_pd_pairs

vectors = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=10)


def decreasing(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=np.float64))[::-1].copy()


class TestSpectrum:
    # the kernel reads spectra in decreasing order, as eig() returns them
    def test_sorts_decreasing(self):
        s = HermitianMatrix(np.diag([1.0, 3.0, 2.0])).eig().eigenvalues
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0])

    def test_identity(self):
        np.testing.assert_allclose(HermitianMatrix(np.eye(4)).eig().eigenvalues, np.ones(4))

    def test_conjugation_invariance(self, rng):
        H = HermitianMatrix(hermitian_part(complex_gaussian(5, np.random.default_rng(13))))
        U = haar_unitaries(complex_gaussian(5, rng))
        H2 = HermitianMatrix(U.conj().T @ H.mat @ U)
        tol = 1e-9 * np.linalg.norm(H.mat)
        np.testing.assert_allclose(H.eig().eigenvalues, H2.eig().eigenvalues, atol=tol, rtol=0)


class TestKyFanSums:
    # against x = 0 the Ky Fan margins are the Ky Fan sums of y
    def test_example(self):
        margins, scale = ky_fan_margins(np.zeros(3), np.array([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(margins, [3, 5, 6])
        assert scale == 4.0

    def test_zeros(self):
        np.testing.assert_allclose(ky_fan_margins(np.zeros(2), np.zeros(2))[0], [0.0, 0.0])

    @given(vectors)
    def test_against_naive_partial_sums(self, values):
        naive = [sum(sorted(values, reverse=True)[: k + 1]) for k in range(len(values))]
        np.testing.assert_allclose(ky_fan_margins(np.zeros(len(values)), decreasing(values))[0], naive, atol=1e-9, rtol=0)

    def test_stack_equals_one_row_at_a_time_bitwise(self, rng):
        # a (k, n) stack gives each row the margins of a one-row call
        for n in (1, 2, 5, 8, 17):
            x = -np.sort(-rng.standard_normal((6, n)), axis=-1)
            y = -np.sort(-rng.standard_normal((6, n)), axis=-1)
            margins, scale = ky_fan_margins(x, y)
            weak = weak_margin(x, y)
            for i in range(6):
                one_margins, one_scale = ky_fan_margins(x[i], y[i])
                assert np.array_equal(margins[i], one_margins) and scale[i] == one_scale
                assert weak[i] == weak_margin(x[i], y[i])
            # a single y against a stack of x broadcasts
            assert np.array_equal(weak_margin(x, y[0]), [weak_margin(row, y[0]) for row in x])


class TestWeakMajorization:
    def test_reflexive(self):
        x = np.array([2.0, 1.0])
        v = verdict("weak", x, x, 1e-12)
        assert v.holds
        np.testing.assert_allclose(v.per_k_margins, [0.0, 0.0])
        assert weak_margin(x, x) == 0.0

    def test_holds_case(self):
        v = verdict("weak", np.array([1.0, 1.0]), np.array([2.0, 0.0]), 1e-12)
        assert v.holds
        np.testing.assert_allclose(v.per_k_margins, [1.0, 0.0])

    def test_fails_reversed(self):
        x, y = np.array([2.0, 0.0]), np.array([1.0, 1.0])
        v = verdict("weak", x, y, 1e-12)
        assert not v.holds
        assert v.per_k_margins[0] == pytest.approx(-1.0)
        # normalized by 1 + max|y| = 2
        assert weak_margin(x, y) == pytest.approx(-0.5)

    def test_length_mismatch(self):
        with pytest.raises(MatrixFormatError):
            verdict("weak", np.array([1.0]), np.array([2.0, 1.0]), 1e-12)

    @given(vectors, st.floats(min_value=1e-12, max_value=1e-2))
    def test_monotone_in_tol(self, values, tol):
        x = decreasing(values)
        y = x + 0.5
        tight = verdict("weak", x, y, tol)
        loose = verdict("weak", x, y, 10 * tol)
        if tight.holds:
            assert loose.holds


class TestMajorization:
    def test_reflexive(self):
        x = np.array([3.0, 1.0])
        assert verdict("major", x, x, 1e-12).holds

    def test_trace_equality_required(self):
        holds = verdict("major", np.array([1.0, 1.0]), np.array([2.0, 0.0]), 1e-12)
        assert holds.holds and holds.trace_gap == pytest.approx(0.0)
        x, y = np.array([1.0, 0.0]), np.array([2.0, 0.0])
        fails = verdict("major", x, y, 1e-12)
        assert not fails.holds
        # weak majorization alone holds
        assert verdict("weak", x, y, 1e-12).holds


class TestLogMajorization:
    def test_reflexive(self):
        x = np.array([4.0, 0.5])
        assert verdict("log", x, x, 1e-12).holds

    def test_example(self):
        v = verdict("log", np.array([4.0, 1.0]), np.array([8.0, 0.5]), 1e-12)
        assert v.holds
        # margins of the logs, normalized by 1 + max|log y|
        margins, scale = ky_fan_margins(np.log([4.0, 1.0]), np.log([8.0, 0.5]))
        np.testing.assert_allclose(v.per_k_margins, margins)
        assert v.tolerance_used == 1e-12 * scale

    def test_rejects_nonpositive(self):
        with pytest.raises(MatrixFormatError):
            verdict("log", np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1e-12)

    def test_geometric_vs_spectral_mean_pairs(self):
        # log-majorized pairs from the two means, and log implies weak
        for dim, P, Q in rand_pd_pairs(8, cond=100.0):
            sg = geometric_mean(P, Q).eig().eigenvalues
            sn = spectral_mean(P, Q).eig().eigenvalues
            assert verdict("log", sg, sn, 1e-8).holds
            assert verdict("weak", sg, sn, 1e-8).holds


class TestKyFanThreshold:
    def test_identity(self):
        assert ky_fan_threshold(HermitianMatrix(np.eye(3)), 2) == pytest.approx(2.0)

    def test_diagonal(self):
        Y = HermitianMatrix(np.diag([3.0, 2.0, 1.0]))
        assert ky_fan_threshold(Y, 2) == pytest.approx(5.0)

    def test_matches_direct_sums(self):
        for dim, A, _ in rand_pd_pairs(10, cond=1e4):
            sums = np.cumsum(A.eig().eigenvalues)
            budget = 1e-9 * (1.0 + A.trace())
            for k in range(1, dim + 1):
                assert abs(ky_fan_threshold(A, k) - sums[k - 1]) <= budget

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            ky_fan_threshold(HermitianMatrix(np.diag([1.0, -1.0])), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(MatrixFormatError):
            ky_fan_threshold(HermitianMatrix(np.eye(2)), 3)


class TestAbelSummation:
    @given(vectors, st.floats(min_value=0.05, max_value=1.0))
    def test_weighted_prefix_bound(self, values, shrink):
        # for sorted nonnegative x and y prec_w x, each weighted prefix
        # sum_{j<=k} x_j y_j stays below sum_{j<=k} x_j^2
        x = decreasing(np.abs(np.asarray(values)))
        y = shrink * x
        assert weak_margin(y, x) >= -1e-12
        for k in range(1, len(x) + 1):
            lhs = float((x[:k] * y[:k]).sum())
            rhs = float((x[:k] ** 2).sum())
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    def test_weighted_prefix_bound_random_dominated(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = np.sort(rng.uniform(0, 10, n))[::-1]
            y = np.sort(rng.uniform(0, 10, n))[::-1]
            # rescale y until it is weakly dominated by x
            scale = min(np.cumsum(x) / np.maximum(np.cumsum(y), 1e-300))
            y = y * min(1.0, scale)
            for k in range(1, n + 1):
                assert (x[:k] * y[:k]).sum() <= (x[:k] ** 2).sum() + 1e-9
