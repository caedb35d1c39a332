import json
import math

import numpy as np
import pytest

from matmean import means, suite
from matmean.errors import InvalidWeightsError, MatrixFormatError, NotPositiveDefiniteError
from matmean.linalg import HermitianMatrix, PDMatrix, random_pd_from_rng
from matmean.means import Pair
from matmean.report import CheckReport
from matmean.schur import pinching_map
from matmean.suite import (
    RunReport,
    SuiteConfig,
    check_bly,
    check_endpoints,
    check_equality_iff_commuting,
    check_incomparability_float,
    check_kubo_heron,
    check_log_majorization_means,
    check_pinching,
    check_quadratic_lifting,
    check_semidefinite_limit,
    check_sharpness_scalar,
    check_spectral_heron,
    check_spreading,
    check_weighted_corollary,
    certified_pairs,
    heron_grid,
    run_suite,
    iter_instances,
    trial_grid,
    _commuting_pair,
    _dominated_by,
    _draw_trial,
    _noncommuting_pair,
    _pinching_operands,
    _rank_deficient_psd,
    _shrunk_dominated,
)

from conftest import rand_pd, rand_pd_pairs

TOL = 1e-8


class TestTrivialInstances:
    def test_spectral_heron_equal_operands(self):
        A = rand_pd(3, seed=61)
        r = check_spectral_heron(Pair(A, A), 0.7, 1.2, 2 * 0.7 * 1.2, TOL)
        assert r.ok and abs(r.min_margin_seen) <= 1e-10

    def test_weighted_corollary_t_zero(self):
        A, B = rand_pd(3, seed=62), rand_pd(3, seed=63)
        r = check_weighted_corollary(Pair(A, B), 0.0, 0.0, TOL)
        assert r.ok and abs(r.min_margin_seen) <= 1e-10

    def test_weighted_corollary_midpoint_matches_spectral_heron(self):
        A, B = rand_pd(4, seed=64), rand_pd(4, seed=65)
        rw = check_weighted_corollary(Pair(A, B), 0.5, 0.5, TOL)
        rs = check_spectral_heron(Pair(A, B), 0.5, 0.5, 0.5, TOL)
        assert rw.min_margin_seen == pytest.approx(rs.min_margin_seen, abs=1e-12)

    def test_spreading_equal_operands(self):
        A = rand_pd(3, seed=66)
        r = check_spreading(Pair(A, A), 1.0, 1.0, TOL)
        assert r.ok

    def test_pinching_identity_input(self):
        C, R = PDMatrix(np.eye(3)), PDMatrix(np.diag([0.2, 0.5, 0.8]))
        r = check_pinching(C, R, TOL)
        assert r.ok

    def test_pinching_scalar_r(self):
        C, R = rand_pd(4, seed=67), PDMatrix(0.5 * np.eye(4))
        r = check_pinching(C, R, TOL)
        assert r.ok

    def test_pinching_rejects_r_with_spectrum_outside_open_unit_interval(self):
        C, R = rand_pd(2, seed=79), PDMatrix(np.diag([1.0, 0.5]))
        with pytest.raises(NotPositiveDefiniteError, match="spectrum of R"):
            check_pinching(C, R, TOL)

    def test_pinching_rejects_dimension_mismatch(self):
        C, R = rand_pd(3, seed=80), PDMatrix(np.diag([0.3, 0.6]))
        with pytest.raises(MatrixFormatError, match="dimension mismatch"):
            check_pinching(C, R, TOL)

    def test_kubo_equal_operands(self):
        A = rand_pd(2, seed=68)
        r = check_kubo_heron(Pair(A, A), 1.0, 1.0, 2.0, TOL)
        assert r.ok and abs(r.min_margin_seen) <= 1e-10

    def test_endpoints_a_zero(self):
        A, B = rand_pd(3, seed=69), rand_pd(3, seed=70)
        r = check_endpoints(Pair(A, B), 0.0, 1.0, TOL)
        assert r.ok and abs(r.min_margin_seen) <= 1e-10

    def test_log_majorization_equal_operands(self):
        P = rand_pd(3, seed=71)
        r = check_log_majorization_means(Pair(P, P), TOL)
        assert r.ok

    def test_lifting_trivial_cases(self):
        C = rand_pd(3, seed=72)
        assert check_quadratic_lifting(C, [C], TOL).ok
        half = PDMatrix(0.5 * C.mat)
        r = check_quadratic_lifting(C, [half], TOL)
        assert r.ok and r.min_margin_seen > 0

    def test_lifting_rejects_bad_hypothesis(self):
        C = rand_pd(2, seed=73)
        double = PDMatrix(2.0 * C.mat)
        with pytest.raises(InvalidWeightsError):
            check_quadratic_lifting(C, [double], TOL)

    def test_lifting_rejects_empty_Ds(self):
        with pytest.raises(InvalidWeightsError, match="^Ds must be nonempty$"):
            check_quadratic_lifting(rand_pd(2, seed=73), [], TOL)

    def test_bly_trivial(self):
        A, B = rand_pd(3, seed=74), rand_pd(3, seed=75)
        assert check_bly(Pair(A, A), 1.0, 1.0, TOL).ok
        r = check_bly(Pair(A, B), 1.0, 0.0, TOL)
        assert r.ok and abs(r.min_margin_seen) <= 1e-10


class TestSharpnessScalar:
    def test_values(self):
        r = check_sharpness_scalar(1.0, 1.0, 2.01)
        assert r.ok
        assert r.min_margin_seen == pytest.approx(0.01, abs=1e-12)
        r2 = check_sharpness_scalar(2.0, 3.0, 12.5)
        assert r2.ok and r2.min_margin_seen == pytest.approx(0.5, abs=1e-12)

    def test_margin_sweeps_to_zero(self):
        margins = [check_sharpness_scalar(1.0, 1.0, c).min_margin_seen
                   for c in (3.0, 2.5, 2.1, 2.01, 2.001)]
        assert margins == sorted(margins, reverse=True)
        assert margins[-1] == pytest.approx(0.001, abs=1e-12)

    def test_rejects_admissible_c(self):
        with pytest.raises(InvalidWeightsError):
            check_sharpness_scalar(1.0, 1.0, 1.9)


class TestNonFiniteWeights:
    # each public checker that takes weights, with admissible weights; the
    # test puts the bad value in each weight slot in turn
    CHECKERS = {
        "spectral_heron": (lambda pair, a, b, c: check_spectral_heron(pair, a, b, c, TOL), (1.0, 1.0, 1.0)),
        "kubo_heron": (lambda pair, a, b, c: check_kubo_heron(pair, a, b, c, TOL), (1.0, 1.0, 1.0)),
        "weighted_corollary": (lambda pair, t, c: check_weighted_corollary(pair, t, c, TOL), (0.5, 0.25)),
        "spreading": (lambda pair, a, b: check_spreading(pair, a, b, TOL), (1.0, 1.0)),
        "endpoints": (lambda pair, a, b: check_endpoints(pair, a, b, TOL), (1.0, 1.0)),
        "bly": (lambda pair, a, b: check_bly(pair, a, b, TOL), (1.0, 1.0)),
        "equality_iff_commuting": (lambda pair, a, b: check_equality_iff_commuting(pair, a, b, TOL), (1.0, 1.0)),
        "sharpness_scalar": (lambda pair, a, b, c: check_sharpness_scalar(a, b, c), (1.0, 1.0, 3.0)),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_rejected_before_any_matrix_is_built(self, name, value, monkeypatch):
        checker, weights = self.CHECKERS[name]
        pair = Pair(rand_pd(3, seed=77), rand_pd(3, seed=78))

        def no_build(*args):
            raise AssertionError("a matrix was built before the weight check")

        monkeypatch.setattr(suite, "_build", no_build)
        for slot in range(len(weights)):
            bad = list(weights)
            bad[slot] = value
            with pytest.raises(InvalidWeightsError):
                checker(pair, *bad)


class TestEqualityIffCommuting:
    def test_commuting_by_construction(self):
        rng = np.random.default_rng(5)
        A, B = _commuting_pair(4, 1e3, rng)
        r = check_equality_iff_commuting(Pair(A, B), 1.0, 0.5, TOL)
        assert r.ok

    def test_noncommuting_separation(self):
        rng = np.random.default_rng(6)
        A, B = _noncommuting_pair(4, 1e3, rng)
        r = check_equality_iff_commuting(Pair(A, B), 1.0, 1.0, TOL)
        assert r.ok and r.min_margin_seen > 0


class TestSemidefiniteLimit:
    def test_zero_pair(self):
        Z = HermitianMatrix(np.zeros((2, 2)))
        r = check_semidefinite_limit(Z, Z, tol=TOL)
        assert r.ok
        assert abs(r.min_margin_seen) <= 1e-12
        assert r.diagnostics["convergence_gap"] <= 10 * TOL

    def test_orthogonal_rank_one_pair(self):
        A0 = HermitianMatrix(np.diag([1.0, 0.0]))
        B0 = HermitianMatrix(np.diag([0.0, 1.0]))
        r = check_semidefinite_limit(A0, B0, tol=TOL)
        assert r.ok
        # margins are identically zero along the sequence for this pair,
        # so the extrapolated limit agrees to the strict budget
        assert r.diagnostics["convergence_gap"] <= 10 * TOL

    def test_rejects_indefinite_operand(self):
        A0 = HermitianMatrix(np.diag([1.0, -0.5]))
        with pytest.raises(MatrixFormatError, match="A0 must be positive semidefinite"):
            check_semidefinite_limit(A0, HermitianMatrix(np.eye(2)), tol=TOL)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(MatrixFormatError, match="dimension mismatch"):
            check_semidefinite_limit(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)), tol=TOL)

    def test_random_rank_deficient_margins_stable(self, rng):
        for _ in range(5):
            n = 4
            U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            vals = np.array([1.0, 0.5, 0.1, 0.0])
            A0 = HermitianMatrix((U * vals) @ U.conj().T)
            V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            B0 = HermitianMatrix((V * vals[::-1].copy()) @ V.conj().T)
            r = check_semidefinite_limit(A0, B0, tol=TOL)
            assert r.ok
            seq = r.diagnostics["margins_along_sequence"]
            # successive differences shrink: the sweep is converging
            assert abs(seq[3] - seq[2]) <= abs(seq[1] - seq[0]) + 10 * TOL


class TestIncomparability:
    def test_both_directions_fail_as_certified(self):
        r = check_incomparability_float(*certified_pairs(), TOL)
        assert r.ok
        assert r.diagnostics["k1_gap"] > 1e-2
        assert r.diagnostics["trace_gap"] > 0.6


class TestStrictInstances:
    def test_certified_pair_spreading_and_kubo_are_strict(self):
        from matmean.exact import direction_one_data
        from matmean.majorization import ky_fan_sums, spectrum
        from matmean.means import heron_kubo, heron_spectral, wasserstein_expression

        data = direction_one_data()
        A = PDMatrix(np.array(data["A"].to_float()))
        B = PDMatrix(np.array(data["B"].to_float()))
        W = wasserstein_expression(A, B, 1.0, 1.0)
        # determinant ordering is strict for this noncommuting pair
        H_nat = heron_spectral(A, B, 1.0, 1.0)
        logdet_gap = float(np.log(spectrum(H_nat).values).sum() - np.log(spectrum(W).values).sum())
        assert logdet_gap > 1e-3
        # and the geometric-Heron comparison has a strict Ky Fan margin
        H_kubo = heron_kubo(A, B, 1.0, 1.0)
        margins = ky_fan_sums(spectrum(W)) - ky_fan_sums(spectrum(H_kubo))
        assert margins.max() > 1e-2

    def test_noncommuting_endpoint_has_trace_equality_but_positive_top_margin(self):
        # at c = 2ab the trace gap vanishes while the comparison stays
        # strict somewhere in the upper Ky Fan sums
        from matmean.majorization import ky_fan_sums, spectrum
        from matmean.means import heron_spectral, wasserstein_expression

        rng = np.random.default_rng(17)
        A, B = _noncommuting_pair(5, 1e3, rng)
        H = heron_spectral(A, B, 1.0, 1.0)
        W = wasserstein_expression(A, B, 1.0, 1.0)
        margins = ky_fan_sums(spectrum(W)) - ky_fan_sums(spectrum(H))
        scale = 1.0 + abs(float(ky_fan_sums(spectrum(W))[-1]))
        assert abs(margins[-1]) <= 1e-8 * scale
        assert margins.max() > 1e-4 * scale


class TestMarginMonotonicity:
    def test_spectral_heron_margin_nonincreasing_in_c(self):
        A, B = rand_pd(5, seed=81), rand_pd(5, seed=82)
        a, b = 1.0, 0.8
        margins = [
            check_spectral_heron(Pair(A, B), a, b, frac * 2 * a * b, TOL).min_margin_seen
            for frac in (0.0, 0.25, 0.5, 0.75, 0.999)
        ]
        for lo, hi in zip(margins[1:], margins[:-1]):
            assert lo <= hi + 1e-12


class TestConfigAndDriver:
    def test_trials_zero_rejected(self):
        with pytest.raises(InvalidWeightsError):
            SuiteConfig(trials=0)

    # each of these used to pass validation and then crash or abort mid-run
    @pytest.mark.parametrize("field, value", [
        ("cond_max", math.nan), ("cond_max", math.inf), ("cond_max", 0.5),
        ("tol", math.nan), ("tol", math.inf),
        ("seed", -1),
        ("trials", True), ("trials", 2.5), ("dims", (2.5,)), ("dims", (True, 2)),
        ("cond_max", True), ("tol", True),
    ])
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(InvalidWeightsError):
            SuiteConfig(**{field: value})

    def test_report_config_block_is_pinned(self):
        # the test design is module constants, written into every report
        assert run_suite(SuiteConfig(seed=1, trials=1)).to_dict()["config"] == {
            "seed": 1,
            "trials": 1,
            "dims": [1, 2, 3, 4, 5, 6, 7, 8],
            "cond_max": 1e4,
            "tol": 1e-8,
            "weight_grid": [[1.0, 1.0], [0.5, 0.5], [1.0, 0.25], [0.3, 0.9], [2.0, 0.5]],
            "c_fractions": [0.0, 0.5, 1.0],
            "t_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        }

    def test_deterministic_reports(self):
        cfg = SuiteConfig(seed=7, trials=6, dims=(1, 2, 3))
        r1 = json.dumps(run_suite(cfg).to_dict(), sort_keys=True)
        r2 = json.dumps(run_suite(cfg).to_dict(), sort_keys=True)
        assert r1 == r2

    @pytest.mark.parametrize("config", [
        SuiteConfig(seed=7, trials=53),
        SuiteConfig(seed=42, trials=12, dims=(16, 24, 32)),
    ], ids=["seed7-trials53", "seed42-dims16-32"])
    def test_no_riccati_residual_check_on_the_eps_levels(self, config):
        # X of the pair A0 + eps I, B0 + eps I misses the residual bound on
        # trial 52 and trial 11 of these runs (6.9e-9 against 6.2e-9 on the
        # first); no check reads it, so it is never computed
        assert run_suite(config).ok

    def test_small_run_is_clean(self):
        report = run_suite(SuiteConfig(seed=3, trials=12))
        assert report.ok
        names = {c.check_name for c in report.checks}
        assert {"spectral_heron", "weighted_corollary", "spreading", "pinching",
                "kubo_heron", "endpoints", "log_majorization_means",
                "quadratic_lifting", "bly", "semidefinite_limit",
                "equality_iff_commuting", "incomparability_float",
                "sharpness_scalar"} <= names
        data = report.to_dict()
        assert set(data) == {"config", "checks", "ok"}
        for check in data["checks"]:
            assert {"name", "instances", "min_margin", "failures"} <= set(check)


class TestHeavyTailRegime:
    def test_linear_domain_checkers_at_cond_1e8(self):
        # ill-conditioned sub-run with the looser tolerance; log-domain
        # margins are excluded here because eigenvalue ratios of the
        # computed means lose too many digits at this conditioning
        tol = 1e-6
        for i, (dim, A, B) in enumerate(rand_pd_pairs(30, dims=(2, 4, 6, 8), cond=1e8, seed=5)):
            assert check_spectral_heron(Pair(A, B), 1.0, 1.0, 2.0, tol).ok
            assert check_kubo_heron(Pair(A, B), 1.0, 1.0, 2.0, tol).ok
            assert check_endpoints(Pair(A, B), 1.0, 1.0, tol).ok
            assert check_bly(Pair(A, B), 1.0, 1.0, tol).ok


class TestHeronGrid:
    def test_rejects_empty_items(self):
        with pytest.raises(InvalidWeightsError, match="^items must be nonempty$"):
            heron_grid(Pair(rand_pd(2, seed=1), rand_pd(2, seed=2)), [], TOL)

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    def test_stacked_grid_equals_one_at_a_time_bitwise(self, cond, monkeypatch):
        def one_at_a_time(A, B, items, context):
            single = []
            for name, x, y, c in items:
                if name == "spectral_heron":
                    single.append(check_spectral_heron(Pair(A, B), x, y, c, TOL, context))
                elif name == "kubo_heron":
                    single.append(check_kubo_heron(Pair(A, B), x, y, c, TOL, context))
                else:
                    single.append(check_weighted_corollary(Pair(A, B), y, c, TOL, context))
            return single

        for i, (dim, A, B) in enumerate(rand_pd_pairs(8, cond=cond, seed=9)):
            a, b = suite.WEIGHT_GRID[i % len(suite.WEIGHT_GRID)]
            context = {"seed_offset": i}
            items = trial_grid(a, b)
            stacked, stacked_margins = _recorded(monkeypatch, lambda: heron_grid(Pair(A, B), items, TOL, context))
            single, single_margins = _recorded(monkeypatch, lambda: one_at_a_time(A, B, items, context))
            # one report per checker, recording its items in item order
            assert stacked_margins == single_margins, dim
            merged = {}
            for report in single:
                suite._merge_into(merged, report)
            assert [r.to_dict() for r in stacked] == [r.to_dict() for r in merged.values()], dim

    def test_rejects_inadmissible_coefficients(self):
        A, B = rand_pd(3, seed=71), rand_pd(3, seed=72)
        with pytest.raises(InvalidWeightsError):
            check_spectral_heron(Pair(A, B), 1.0, 1.0, 2.5, TOL)
        with pytest.raises(InvalidWeightsError):
            check_weighted_corollary(Pair(A, B), 1.5, 0.0, TOL)


class TestInstanceStream:
    # min margin of every checker at seed 42, 16 trials, cond 1e4; a change
    # to the instance stream or to the order of its rng draws moves them
    SEED_42_MIN_MARGINS = {
        "bly": -4.738391096795136e-16,
        "endpoints": -6.370132108505002e-16,
        "equality_iff_commuting": -1.6521139012820055e-13,
        "incomparability_float": 0.03670822430954923,
        "kubo_heron": -6.370132108505002e-16,
        "log_majorization_means": -3.1519095747466615e-09,
        "pinching": -3.6050791442909878e-12,
        "quadratic_lifting": -1.1102230246251563e-16,
        "semidefinite_limit": -1.0130929134510704e-16,
        "sharpness_scalar": 0.0009999999999998899,
        "spectral_heron": -8.640547143771242e-15,
        "spreading": -1.153067004262609e-14,
        "weighted_corollary": -6.86839934643255e-14,
    }

    def test_seed_42_min_margins_are_pinned(self):
        report = run_suite(SuiteConfig(seed=42, trials=16))
        margins = {c.check_name: c.min_margin_seen for c in report.checks}
        assert set(margins) == set(self.SEED_42_MIN_MARGINS)
        for name, expected in self.SEED_42_MIN_MARGINS.items():
            assert margins[name] == pytest.approx(expected, abs=1e-9), name


class TestStackedCheckers:
    def test_semidefinite_levels_equal_one_level_at_a_time(self):
        from matmean.linalg import hermitian_part, principal_sqrt
        from matmean.majorization import spectrum
        from matmean.means import heron_kubo
        from matmean.suite import _rank_deficient_psd, _wm_margin

        for seed in range(16):
            rng = np.random.default_rng(seed)
            dim = 1 + seed % 8
            A0, B0 = _rank_deficient_psd(dim, rng), _rank_deficient_psd(dim, rng)
            seq = check_semidefinite_limit(A0, B0, tol=TOL).diagnostics["margins_along_sequence"]
            single = []
            for eps in (1e-2, 1e-4, 1e-6, 1e-8):
                # both BLY sides of one level through the public functions
                A, B = (PDMatrix(M.mat + eps * np.eye(dim)) for M in (A0, B0))
                T = principal_sqrt(A).mat + principal_sqrt(B).mat
                sH = spectrum(heron_kubo(A, B, 1.0, 1.0)).values
                sR = spectrum(PDMatrix(hermitian_part(T @ T))).values
                single.append(float(_wm_margin(sH, sR)))
            assert seq == single

    def test_semidefinite_rank_one_pair_has_no_false_failure(self):
        # trial 3 of this stream is a rank-one 4x4 pair whose eps = 1e-8
        # margin is 1.8e-6 (80-digit mpmath); decomposing A0 + eps I by
        # shifting the eigenvalues of A0 computed it as -1.1e-5
        report = run_suite(SuiteConfig(seed=720838508, trials=4, cond_max=1e6))
        assert report.by_name("semidefinite_limit").ok

    def test_equality_records_keep_their_contexts(self):
        rng = np.random.default_rng(5)
        pairs = [_commuting_pair(4, 1e3, rng), _noncommuting_pair(4, 1e3, rng)]
        stacked = check_equality_iff_commuting(Pair.stack(pairs), 1.0, 0.5, -1.0,
                                               [{"variant": "commuting"}, {"variant": "noncommuting"}])
        singles = [check_equality_iff_commuting(Pair(*p), 1.0, 0.5, TOL) for p in pairs]
        assert stacked.instances_run == 2
        assert stacked.min_margin_seen == pytest.approx(min(r.min_margin_seen for r in singles), abs=1e-15)
        # tol = -1 turns every record into a failure, exposing its context
        assert [f["instance"]["variant"] for f in stacked.failures] == ["commuting", "noncommuting"]

    def test_quadratic_lifting_records_one_margin_per_d(self):
        C = rand_pd(4, seed=76)
        halves = [PDMatrix(0.5 * C.mat), PDMatrix(0.25 * C.mat)]
        stacked = check_quadratic_lifting(C, halves, TOL)
        singles = [check_quadratic_lifting(C, [D], TOL).min_margin_seen for D in halves]
        assert stacked.instances_run == 2
        assert stacked.min_margin_seen == min(singles)


def _one_at_a_time(config: SuiteConfig) -> RunReport:
    """Reference run: every public checker called on its own, one pair
    and one comparison per call, in the per-trial order of the instance
    stream (the order its random draws are made in)."""
    pool = {}

    def merge(report):
        if report.check_name in pool:
            pool[report.check_name].merge(report)
        else:
            pool[report.check_name] = report

    tol = config.tol
    one, two = certified_pairs()
    merge(check_incomparability_float(one, two, tol))
    ctx = {"seed_offset": None, "instance": "certified-3x3", "a": 1.0, "b": 1.0}
    merge(check_spreading(one, 1.0, 1.0, tol, ctx))
    merge(check_kubo_heron(one, 1.0, 1.0, 2.0, tol, ctx))
    merge(check_log_majorization_means(one, tol, ctx))
    merge(check_bly(one, 1.0, 1.0, tol, ctx))
    for c_over in (2.001, 2.01, 2.1, 3.0):
        merge(check_sharpness_scalar(1.0, 1.0, c_over))
    for offset, rng, dim, a, b, A, B in iter_instances(config):
        context = {"seed_offset": offset, "dim": dim, "a": a, "b": b, "A": A, "B": B}
        for name, x, y, c in trial_grid(a, b):
            if name == "spectral_heron":
                merge(check_spectral_heron(Pair(A, B), x, y, c, tol, context))
            elif name == "kubo_heron":
                merge(check_kubo_heron(Pair(A, B), x, y, c, tol, context))
            else:
                merge(check_weighted_corollary(Pair(A, B), y, c, tol, context))
        merge(check_spreading(Pair(A, B), a, b, tol, context))
        merge(check_endpoints(Pair(A, B), a, b, tol, context))
        merge(check_log_majorization_means(Pair(A, B), tol, context))
        merge(check_bly(Pair(A, B), a, b, tol, context))
        A_c, B_c = _commuting_pair(dim, config.cond_max, rng)
        merge(check_equality_iff_commuting(Pair(A_c, B_c), a, b, tol,
                                           dict(context, A=A_c, B=B_c, variant="commuting")))
        if dim > 1:
            A_n, B_n = _noncommuting_pair(dim, config.cond_max, rng)
            merge(check_equality_iff_commuting(Pair(A_n, B_n), a, b, tol,
                                               dict(context, A=A_n, B=B_n, variant="noncommuting")))
        C, R = _pinching_operands(dim, config.cond_max, rng)
        ctx_p = dict(context, C=C, R=R)
        merge(check_pinching(C, R, tol, ctx_p, rng))
        D = PDMatrix(_shrunk_dominated(C, rng))
        merge(check_quadratic_lifting(C, [pinching_map(C, R).matrix(), D], tol, ctx_p))
        A0, B0 = _rank_deficient_psd(dim, rng), _rank_deficient_psd(dim, rng)
        merge(check_semidefinite_limit(A0, B0, tol=tol, context=dict(context, A=A0, B=B0, variant="rank-deficient")))
    return RunReport(config=config, checks=list(pool.values()))


class TestReferenceOracle:
    @pytest.mark.parametrize("config", [
        SuiteConfig(seed=seed, trials=16, cond_max=cond) for seed in (42, 7) for cond in (1e4, 1e6)
    ] + [SuiteConfig(seed=42, trials=2, dims=(16,)),
         # the rejected-candidate path: 16 noncommuting pairs are redrawn
         SuiteConfig(seed=42, trials=16, cond_max=1.2)], ids=lambda c: f"seed{c.seed}-cond{c.cond_max:g}-dims{c.dims[0]}..{c.dims[-1]}")
    def test_staged_run_equals_one_checker_at_a_time(self, config, monkeypatch):
        # the JSON keeps only min margins and failures, so every record's
        # margin is compared too, in order, per checker
        staged, staged_margins = _recorded(monkeypatch, lambda: json.dumps(run_suite(config).to_dict()))
        reference, reference_margins = _recorded(monkeypatch, lambda: json.dumps(_one_at_a_time(config).to_dict()))
        assert staged_margins == reference_margins
        assert staged == reference


def _recorded(monkeypatch, run) -> tuple[object, dict[str, list[float]]]:
    """What `run()` returns and the margin of every `CheckReport.record`
    call it made, in order, per checker."""
    margins: dict[str, list[float]] = {}
    record = CheckReport.record

    def capture(report, margin, context=None):
        margins.setdefault(report.check_name, []).append(float(margin))
        record(report, margin, context)

    with monkeypatch.context() as patch:
        patch.setattr(CheckReport, "record", capture)
        return run(), margins


def _count_calls(monkeypatch, owner, name: str) -> list:
    """The positional arguments of each call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWork:
    def test_at_most_13_eigendecompositions_per_trial(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        run_suite(SuiteConfig(seed=42, trials=8))
        # 5 per trial (the operand gate, X and its gate, A # B, the gate of
        # the compared matrices) plus 11 for the certified instances; 83
        # while a trial ran two stages, so a gate added to the stage fails it
        assert len(calls) <= 51

    def test_at_most_779_eigh_slices_in_8_trials(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        run_suite(SuiteConfig(seed=42, trials=8))
        # each matrix of a stacked call counts; 787 while the c = 0 Heron
        # sums of spectral_heron and kubo_heron, one matrix, had two keys,
        # and 779 while pinching gated Phi_R(I), Phi_R(2C) and Phi_R(C1),
        # whose spectra no check reads
        assert sum(int(np.prod(np.shape(mats)[:-2])) for mats, *_ in calls) <= 755

    def test_eigendecompositions_at_dims_16_to_32(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        run_suite(SuiteConfig(seed=42, trials=3, dims=(16, 24, 32)))
        assert len(calls) <= 26

    def test_at_most_2_psd_powers_per_trial(self, monkeypatch):
        calls = _count_calls(monkeypatch, means, "_psd_pow_raw")
        run_suite(SuiteConfig(seed=42, trials=8))
        # one for X and one for A # B, each over every pair of the trial
        # that reads it; 4 more for the certified instances' means
        assert len(calls) <= 2 * 8 + 4

    def test_no_decomposition_outside_the_gates(self, monkeypatch):
        # the pinching order check once read eigvalsh(Phi - Phi1), a
        # spectrum no gate checked and the eigh counts above left out
        calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        run_suite(SuiteConfig(seed=42, trials=8))
        assert calls == []

    def test_at_most_2_qr_factorizations_per_trial(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "qr")
        redraws = _count_calls(monkeypatch, suite, "random_pd_from_rng")
        run_suite(SuiteConfig(seed=42, trials=8))
        # one stacked QR per draw segment, plus one per matrix of a
        # redrawn noncommuting pair; 10.75 per trial when every draw made
        # its own
        assert len(calls) <= 2 * 8 + len(redraws)


class TestStackedDraws:
    @pytest.mark.parametrize("config", [
        SuiteConfig(seed=42, trials=24, cond_max=1e6),
        SuiteConfig(seed=42, trials=24, cond_max=1.2),
        SuiteConfig(seed=7, trials=3, dims=(16, 24, 32)),
    ], ids=["cond1e6", "cond1.2", "dims16-32"])
    def test_trial_draws_equal_one_at_a_time_bitwise(self, config):
        """Every matrix of a trial's two draw segments equals the one the
        reference helpers draw one at a time from the same stream."""
        for offset, rng, dim, a, b, A, B in iter_instances(config):
            reference = [A, B, *_commuting_pair(dim, config.cond_max, rng)]
            if dim > 1:
                reference += _noncommuting_pair(dim, config.cond_max, rng)
            C, R = _pinching_operands(dim, config.cond_max, rng)
            C1 = _dominated_by(C, random_pd_from_rng(dim, 10.0, rng))
            reference += [C, R, C1, _shrunk_dominated(C, rng), _rank_deficient_psd(dim, rng),
                          _rank_deficient_psd(dim, rng)]
            draw = _draw_trial(config, offset)
            stacked = [M for pair in draw.pairs for M in pair] + [draw.C, draw.R, draw.C1, draw.D, draw.A0, draw.B0]
            assert len(stacked) == len(reference)
            for X, Y in zip(stacked, reference):
                assert type(X) is type(Y)
                np.testing.assert_array_equal(getattr(X, "mat", X), getattr(Y, "mat", Y))
                if isinstance(X, PDMatrix):
                    np.testing.assert_array_equal(X.eig().eigenvalues, Y.eig().eigenvalues)
                    np.testing.assert_array_equal(X.eig().eigenvectors, Y.eig().eigenvectors)
