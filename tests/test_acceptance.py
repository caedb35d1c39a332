"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just logged.
"""

import time
from fractions import Fraction

import numpy as np

from matmean.exact import (
    certify_all,
    certify_direction_one,
    certify_direction_two,
    direction_two_data,
    float_shadow,
)
from matmean.linalg import HermitianMatrix, PDMatrix, complex_gaussian, frobenius, haar_unitaries, random_pd
from matmean.majorization import ky_fan_threshold
from matmean.means import (
    Pair,
    geometric_mean,
    heron_kubo,
    heron_spectral,
    spectral_mean,
    wasserstein_expression,
)
from matmean.suite import SuiteConfig, _noncommuting_pair, check_sharpness_scalar, run_suite

from conftest import _commuting_pair, iter_instances


def _report(number: int, text: str):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_exact_certificate_direction_one():
    t0 = time.perf_counter()
    report = certify_direction_one()
    elapsed = time.perf_counter() - t0

    assert report.verdict, f"mismatched labels: {report.mismatches()}"
    by_label = {item.label: item.computed for item in report.items}

    def minors(core):
        return tuple(by_label[f"leading principal minor {k} of {core}"] for k in (1, 2, 3))

    assert minors("the square-root factor R") == (
        Fraction(21, 10), Fraction(59, 100), Fraction(3, 2000),
    )
    assert minors("the Schur complement K = B - G A^{-1} G") == (
        Fraction(1538228131, 2 * 10**9),
        Fraction(36854830002529581, 8 * 10**18),
        Fraction(249208941796751, 2 * 10**26),
    )
    assert by_label["det(41 I - (A + B + 2G))"] == Fraction(-2296964316553, 10**12)
    assert minors("41 I - (A + B + 2 R A R)") == (
        Fraction(14747, 5000),
        Fraction(139973371, 10**7),
        Fraction(3328064679, 2 * 10**10),
    )
    assert by_label["entry (1,1) of B = X A X"] == Fraction(129153, 5000)
    assert elapsed < 1.0, f"direction one took {elapsed:.3f}s"
    _report(1, f"direction-one certificate exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_exact_certificate_direction_two():
    t0 = time.perf_counter()
    report = certify_direction_two()
    elapsed = time.perf_counter() - t0

    assert report.verdict, f"mismatched labels: {report.mismatches()}"
    by_label = {item.label: item.computed for item in report.items}
    assert by_label["q = 4 Tr(A D) + 3 Tr(A)"] == Fraction(40)
    assert by_label["q^2"] == Fraction(1600)
    assert Fraction(1600) < 25 * 73 == 1825
    assert by_label["strict comparison q^2 < 25 * 73 = 1825 (squared form of the trace gap)"] == 1
    assert by_label["Tr(A X), the trace of the spectral-mean cross term"] == Fraction(5)
    assert by_label["Tr D"] == Fraction(49, 16)
    assert by_label["det D"] == Fraction(9, 16)
    assert elapsed < 0.1, f"direction two took {elapsed:.3f}s"
    _report(2, f"direction-two certificate exact in {elapsed * 1000:.1f} ms")


def test_criterion_3_floating_shadow():
    shadow = float_shadow(certify_all())
    assert shadow.ok
    lam_sharp = shadow.diagnostics["lambda1_sharp"]
    lam_nat = shadow.diagnostics["lambda1_natural"]
    assert lam_sharp > 41.0 + 1e-3
    assert lam_nat < 41.0 - 1e-3

    data = direction_two_data()
    A = PDMatrix(np.array(data["A"].to_float()))
    B = PDMatrix(np.array(data["B"].to_float()))
    trace = geometric_mean(A, B).trace()
    expected = 40.0 / np.sqrt(73.0)
    assert abs(trace - expected) <= 1e-9 * expected
    _report(3, f"floating straddle {lam_sharp:.4f} > 41 > {lam_nat:.4f}; "
               f"Tr(A#B) matches 40/sqrt(73) to {abs(trace - expected) / expected:.1e} relative")


# module-level so criteria 4, 5 and 9 share the same configuration
ACCEPTANCE_CONFIG = SuiteConfig(seed=42, trials=1000, dims=(1, 2, 3, 4, 5, 6, 7, 8),
                                cond_max=1e4, tol=1e-8)

REQUIRED_CHECKS = (
    "spectral_heron", "weighted_corollary", "spreading", "pinching",
    "kubo_heron", "endpoints", "log_majorization_means",
    "quadratic_lifting", "bly", "semidefinite_limit",
)


def test_criterion_4_theorem_suite_zero_failures():
    t0 = time.perf_counter()
    report = run_suite(ACCEPTANCE_CONFIG)
    elapsed = time.perf_counter() - t0
    checks = {check.check_name: check for check in report.checks}

    for name in REQUIRED_CHECKS:
        check = checks[name]
        assert check.instances_run > 0
        assert not check.failures, (
            f"{name}: {len(check.failures)} failures, worst margin {check.min_margin_seen:.3e}"
        )
    assert report.ok
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    worst = min(checks[n].min_margin_seen for n in REQUIRED_CHECKS)
    _report(4, f"1000-trial suite clean in {elapsed:.1f}s; worst margin {worst:.2e}")


def test_criterion_5_endpoint_trace_equality_on_every_suite_instance():
    worst = 0.0
    for offset, rng, dim, a, b, A, B in iter_instances(ACCEPTANCE_CONFIG):
        H = heron_spectral(A, B, a, b)
        W = wasserstein_expression(A, B, a, b)
        gap = abs(H.trace() - W.trace())
        budget = 1e-8 * (1.0 + W.trace())
        assert gap <= budget, f"offset {offset}: trace gap {gap:.3e} over budget {budget:.3e}"
        worst = max(worst, gap / (1.0 + W.trace()))
    _report(5, f"endpoint trace equality on all {ACCEPTANCE_CONFIG.trials} instances; "
               f"worst relative gap {worst:.2e}")


def test_criterion_6_equality_iff_commuting_floors():
    worst_comm = 0.0
    worst_floor = np.inf
    for i in range(200):
        rng = np.random.default_rng([601, i])
        dim = 2 + i % 7
        A, B = _commuting_pair(dim, 1e4, rng)
        W = wasserstein_expression(A, B, 1.0, 1.0)
        w_norm = frobenius(W.mat)
        d_nat = frobenius(heron_spectral(A, B, 1.0, 1.0).mat - W.mat)
        d_kubo = frobenius(heron_kubo(A, B, 1.0, 1.0).mat - W.mat)
        assert max(d_nat, d_kubo) <= 1e-8 * w_norm
        worst_comm = max(worst_comm, max(d_nat, d_kubo) / w_norm)
    for i in range(200):
        rng = np.random.default_rng([602, i])
        dim = 2 + i % 7
        A, B = _noncommuting_pair(dim, 1e4, rng)
        comm = np.linalg.norm(A.mat @ B.mat - B.mat @ A.mat)
        assert comm >= 1e-3 * np.linalg.norm(A.mat) * np.linalg.norm(B.mat)
        W = wasserstein_expression(A, B, 1.0, 1.0)
        w_norm = frobenius(W.mat)
        d_nat = frobenius(heron_spectral(A, B, 1.0, 1.0).mat - W.mat)
        d_kubo = frobenius(heron_kubo(A, B, 1.0, 1.0).mat - W.mat)
        assert min(d_nat, d_kubo) >= 1e-6 * w_norm
        worst_floor = min(worst_floor, min(d_nat, d_kubo) / w_norm)
    _report(6, f"200+200 pairs: commuting gap <= {worst_comm:.1e}, "
               f"noncommuting separation >= {worst_floor:.1e} (floor 1e-6)")


def test_criterion_7_scalar_sharpness_exact_margins():
    for c_over in (2.001, 2.01, 2.1, 3.0):
        report = check_sharpness_scalar(1.0, 1.0, c_over)
        assert report.ok
        exact_margin = Fraction(report.diagnostics["exact_margin"])
        assert exact_margin == Fraction(c_over) - 2  # c - 2ab with a = b = 1, exactly
        assert exact_margin > 0
    _report(7, "dim-1 comparison fails with exact margin c - 2ab for all four over-coefficients")


def test_criterion_8_schur_machinery_bulk():
    # Gamma_c = (alpha alpha^T + beta beta^T + c 11^T) / (d d^T) with
    # alpha = a / r, beta = b r and d = alpha + beta: the sum of the
    # rank-one terms of alpha / d, beta / d and sqrt(c) / d, with
    # diagonal <= 1 for c <= 2ab and exactly 1 at c = 2ab
    def gamma_multiplier(r, a, b, c):
        alpha, beta = a / r, b * r
        d = alpha + beta
        g = (np.outer(alpha, alpha) + np.outer(beta, beta) + c) / np.outer(d, d)
        factors = np.stack([alpha / d, beta / d, np.sqrt(c) / d])
        assert np.abs(factors.T @ factors - g).max() <= 1e-12 * np.abs(g).max()
        assert np.diag(g).max() <= 1.0 + 1e-12
        return g

    worst_diag = 0.0
    worst_recon = 0.0
    for i in range(500):
        rng = np.random.default_rng([801, i])
        dim = 1 + i % 8
        r = 10.0 ** rng.uniform(-1.5, 1.5, dim)
        a, b = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        g = gamma_multiplier(r, a, b, 2.0 * a * b)
        worst_diag = max(worst_diag, float(np.abs(np.diag(g) - 1.0).max()))
        assert worst_diag <= 1e-12
        vals = HermitianMatrix(g).eig().eigenvalues
        assert vals[-1] >= -1e-10 * vals[0]
        if dim > 3:
            assert vals[3] <= 1e-10 * vals[0]
        # the correlation decomposition Gamma_{2ab} = (11^T + s s^T + t t^T) / 2
        alpha, beta = a / r, b * r
        s, t = (alpha - beta) / (alpha + beta), 2.0 * np.sqrt(a * b) / (alpha + beta)
        recon = 0.5 * (np.ones((dim, dim)) + np.outer(s, s) + np.outer(t, t))
        worst_recon = max(worst_recon, float(np.abs(recon - g).max()))
        assert worst_recon <= 1e-12

        # entrywise factorization through the multiplier, diagonal R
        C = PDMatrix(np.array(np.diag(10.0 ** rng.uniform(-1, 1, dim))
                              + 0.3 * np.ones((dim, dim))))
        c = float(rng.uniform(0.0, 1.0)) * 2.0 * a * b
        Rd, Rinv = np.diag(r), np.diag(1.0 / r)
        S_expr = (a * Rinv + b * Rd) @ C.mat @ (a * Rinv + b * Rd)
        T_expr = a * a * Rinv @ C.mat @ Rinv + b * b * Rd @ C.mat @ Rd + c * C.mat
        err = np.abs(T_expr - gamma_multiplier(r, a, b, c) * S_expr).max()
        assert err <= 1e-12 * np.abs(S_expr).max()
    _report(8, f"500 multiplier bundles: diag gap <= {worst_diag:.1e}, "
               f"rank-3 reconstruction <= {worst_recon:.1e}, factorization identity holds")


def test_criterion_9_oracle_cross_checks():
    # threshold representation vs direct Ky Fan sums
    for i in range(500):
        rng = np.random.default_rng([901, i])
        dim = 1 + i % 8
        Y = random_pd(dim, 100.0, seed=9000 + i)
        sums = np.cumsum(Y.eig().eigenvalues)
        budget = 1e-9 * (1.0 + float(np.trace(Y.mat).real))
        for k in range(1, dim + 1):
            assert abs(ky_fan_threshold(Y, k) - sums[k - 1]) <= budget

    # dual Wasserstein formulas on every suite instance
    worst_w = 0.0
    for offset, rng, dim, a, b, A, B in iter_instances(ACCEPTANCE_CONFIG):
        res = Pair(A, B).wasserstein(a, b)[1]
        W = wasserstein_expression(A, B, a, b)
        scale = np.linalg.norm(W.mat)
        assert res <= 1e-8 * scale
        worst_w = max(worst_w, res / scale)

    # pinching trace identity on 500 instances
    worst_tr = 0.0
    for i in range(500):
        rng = np.random.default_rng([902, i])
        dim = 2 + i % 7
        C = random_pd(dim, 1e3, seed=9500 + i)
        vals = np.sort(rng.uniform(0.05, 0.95, dim))[::-1].copy()
        U = haar_unitaries(complex_gaussian(dim, rng))
        R = PDMatrix((U * vals) @ U.conj().T)
        S = PDMatrix(np.eye(dim) - R.mat)
        P = PDMatrix((R.mat @ C.mat @ R.mat + (R.mat @ C.mat @ R.mat).conj().T) / 2)
        Q = PDMatrix((S.mat @ C.mat @ S.mat + (S.mat @ C.mat @ S.mat).conj().T) / 2)
        lhs = spectral_mean(P, Q).trace()
        rhs = float(np.trace(R.mat @ S.mat @ C.mat).real)
        gap = abs(lhs - rhs) / (1.0 + abs(rhs))
        assert gap <= 1e-9
        worst_tr = max(worst_tr, gap)
    _report(9, f"threshold == Ky Fan sums (500), Wasserstein dual residual <= {worst_w:.1e} "
               f"on all suite instances, pinching trace identity gap <= {worst_tr:.1e} (500)")


def test_criterion_10_non_loewner_witness():
    R = np.diag([1.0, 2.0])
    C = np.array([[1.0, 0.5], [0.5, 1.0]])
    Rinv = np.linalg.inv(R)
    diff = Rinv @ C @ R + R @ C @ Rinv - 2.0 * C
    vals = np.linalg.eigvalsh(diff)
    assert vals[0] <= -0.2 and vals[-1] >= 0.2
    _report(10, f"difference matrix has eigenvalues {vals[0]:.3f} and {vals[-1]:.3f}, both signs")
