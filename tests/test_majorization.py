import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matmean.errors import MatrixFormatError, NotPositiveDefiniteError
from matmean.linalg import HermitianMatrix, haar_unitary, random_hermitian
from matmean.majorization import (
    SpectrumVector,
    ky_fan_sums,
    ky_fan_threshold,
    log_majorization,
    majorization,
    spectrum,
    weak_majorization,
)
from matmean.means import geometric_mean, spectral_mean

from conftest import rand_pd_pairs

vectors = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=10)


class TestSpectrum:
    def test_sorts_decreasing(self):
        s = spectrum(HermitianMatrix(np.diag([1.0, 3.0, 2.0])))
        np.testing.assert_allclose(s.values, [3.0, 2.0, 1.0])

    def test_identity(self):
        s = spectrum(HermitianMatrix(np.eye(4)))
        np.testing.assert_allclose(s.values, np.ones(4))

    def test_conjugation_invariance(self, rng):
        H = random_hermitian(5, seed=13)
        U = haar_unitary(5, rng)
        H2 = HermitianMatrix(U.conj().T @ H.mat @ U)
        tol = 1e-9 * np.linalg.norm(H.mat)
        np.testing.assert_allclose(spectrum(H).values, spectrum(H2).values, atol=tol)


class TestKyFanSums:
    def test_example(self):
        np.testing.assert_allclose(ky_fan_sums(SpectrumVector([3, 2, 1])), [3, 5, 6])

    def test_zeros(self):
        np.testing.assert_allclose(ky_fan_sums(SpectrumVector([0.0, 0.0])), [0.0, 0.0])

    @given(vectors)
    def test_against_naive_partial_sums(self, values):
        s = SpectrumVector(values)
        naive = [sum(sorted(values, reverse=True)[: k + 1]) for k in range(len(values))]
        np.testing.assert_allclose(ky_fan_sums(s), naive, atol=1e-9)


class TestWeakMajorization:
    def test_reflexive(self):
        x = SpectrumVector([2.0, 1.0])
        v = weak_majorization(x, x, 1e-12)
        assert v.holds
        np.testing.assert_allclose(v.per_k_margins, [0.0, 0.0])

    def test_holds_case(self):
        v = weak_majorization(SpectrumVector([1.0, 1.0]), SpectrumVector([2.0, 0.0]), 1e-12)
        assert v.holds
        np.testing.assert_allclose(v.per_k_margins, [1.0, 0.0])

    def test_fails_reversed(self):
        v = weak_majorization(SpectrumVector([2.0, 0.0]), SpectrumVector([1.0, 1.0]), 1e-12)
        assert not v.holds
        assert v.per_k_margins[0] == pytest.approx(-1.0)

    def test_length_mismatch(self):
        with pytest.raises(MatrixFormatError):
            weak_majorization(SpectrumVector([1.0]), SpectrumVector([1.0, 2.0]), 1e-12)

    @given(vectors, st.floats(min_value=1e-12, max_value=1e-2))
    def test_monotone_in_tol(self, values, tol):
        x = SpectrumVector(values)
        y = SpectrumVector([v + 0.5 for v in values])
        tight = weak_majorization(x, y, tol)
        loose = weak_majorization(x, y, 10 * tol)
        if tight.holds:
            assert loose.holds


class TestMajorization:
    def test_reflexive(self):
        x = SpectrumVector([3.0, 1.0])
        assert majorization(x, x, 1e-12).holds

    def test_trace_equality_required(self):
        holds = majorization(SpectrumVector([1.0, 1.0]), SpectrumVector([2.0, 0.0]), 1e-12)
        assert holds.holds and holds.trace_gap == pytest.approx(0.0)
        fails = majorization(SpectrumVector([1.0, 0.0]), SpectrumVector([2.0, 0.0]), 1e-12)
        assert not fails.holds


class TestLogMajorization:
    def test_reflexive(self):
        x = SpectrumVector([4.0, 0.5])
        assert log_majorization(x, x, 1e-12).holds

    def test_example(self):
        v = log_majorization(SpectrumVector([4.0, 1.0]), SpectrumVector([8.0, 0.5]), 1e-12)
        assert v.holds

    def test_rejects_nonpositive(self):
        with pytest.raises(MatrixFormatError):
            log_majorization(SpectrumVector([1.0, 0.0]), SpectrumVector([1.0, 1.0]), 1e-12)

    def test_geometric_vs_spectral_mean_pairs(self):
        # log-majorized pairs from the two means, and log implies weak
        for dim, P, Q in rand_pd_pairs(8, cond=100.0):
            sg = spectrum(geometric_mean(P, Q))
            sn = spectrum(spectral_mean(P, Q))
            lv = log_majorization(sg, sn, 1e-8)
            assert lv.holds
            assert weak_majorization(sg, sn, 1e-8).holds


class TestKyFanThreshold:
    def test_identity(self):
        assert ky_fan_threshold(HermitianMatrix(np.eye(3)), 2) == pytest.approx(2.0)

    def test_diagonal(self):
        Y = HermitianMatrix(np.diag([3.0, 2.0, 1.0]))
        assert ky_fan_threshold(Y, 2) == pytest.approx(5.0)

    def test_matches_direct_sums(self):
        for dim, A, _ in rand_pd_pairs(10, cond=1e4):
            sums = ky_fan_sums(spectrum(A))
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
        x = np.sort(np.abs(np.asarray(values)))[::-1]
        y = shrink * x
        assert weak_majorization(SpectrumVector(y), SpectrumVector(x), 1e-12).holds
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
