import collections
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from matmean import linalg, means, suite
from matmean.errors import (
    ConfigError,
    InvalidWeightsError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalFailure,
)
from matmean.linalg import HermitianMatrix, PDMatrix, adjoint, complex_gaussian, haar_unitaries, random_pd_from_rng
from matmean.majorization import verdict, weak_margin
from matmean.matio import matrix_to_dict
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
    trial_grid,
    _dominated_by,
    _draw_trial,
    _noncommuting_pair,
)

from conftest import (
    _commuting_pair,
    _pinching_operands,
    _rank_deficient_psd,
    _shrunk_dominated,
    iter_instances,
    rand_pd,
    rand_pd_pairs,
)

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

    def test_pinching_mismatch_names_the_two_dimensions(self):
        C, R = rand_pd(4, seed=80), PDMatrix(np.diag([0.3, 0.6]))
        with pytest.raises(MatrixFormatError, match=r"^dimension mismatch: 4 vs 2$"):
            check_pinching(C, R, TOL)

    @pytest.mark.parametrize("good", [0, 1], ids=["one-d", "second-of-two"])
    def test_quadratic_lifting_rejects_a_d_of_another_dimension(self, good):
        C = rand_pd(3, seed=81)
        with pytest.raises(MatrixFormatError, match=r"^dimension mismatch: 3 vs 2$"):
            check_quadratic_lifting(C, [PDMatrix(0.5 * C.mat)] * good + [rand_pd(2, seed=82)], TOL)

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


class TestEndpointsMargin:
    @pytest.mark.parametrize("dim", [1, 2, 8, 9, 32])
    def test_margin_is_the_least_of_its_four_parts(self, dim):
        A, B = rand_pd(dim, seed=2 * dim), rand_pd(dim, seed=2 * dim + 1)
        a, b = 0.7, 1.3
        check = suite._records("endpoints", a, b)
        # the gated spectra of the geometric Heron sum and of W_{a,b}
        sH, sW = suite._Built(suite._Plan(check), Pair(A, B), None).vals
        parts = [sH[-1] - sW[-1], sW[0] - sH[0], np.sum(sW) - np.sum(sH)]
        if dim > 1:
            parts.append(np.sum(sW[:-1]) - np.sum(sH[:-1]))
        expected = min(parts) / (1.0 + np.abs(sW).max())
        r = check_endpoints(Pair(A, B), a, b, TOL)
        assert r.instances_run == 1
        assert abs(r.min_margin_seen - expected) <= 1e-15


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


class TestSharpCoefficient:
    """The matrix form of sharpness_scalar, and a positive control: above
    c = 2ab the spectral Heron sum fails weak majorization by W_{a,b} in
    every dimension, by its trace gap 2ab delta tr(A natural B) at
    c = 2ab (1 + delta).  (The Heron grid refuses c > 2ab, so this goes
    through the means, not check_spectral_heron.)"""

    @pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_above_2ab_the_comparison_fails_by_the_trace_gap(self, dim, delta):
        pair = Pair(rand_pd(dim, seed=300 + 2 * dim), rand_pd(dim, seed=301 + 2 * dim))
        trace_n = np.trace(pair.spectral()).real
        for a, b in suite.WEIGHT_GRID:
            H, W = (HermitianMatrix(M).eig().eigenvalues
                    for M in (pair.heron("spectral", a, b, 2 * a * b * (1 + delta)), pair.wasserstein(a, b)[0]))
            result = verdict("weak", H, W, TOL)
            assert not result.holds
            # the last Ky Fan margin is tr W - tr H, a difference of two
            # traces 1/delta times larger than it, each rounded to about
            # 3e-14 of tr W: 1e-12 of tr W bounds it at every delta, where
            # 1e-12 of the gap would not hold below delta = 0.1
            assert abs(result.per_k_margins[-1] + 2 * a * b * delta * trace_n) <= 1e-12 * W.sum()


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
    """The public checker judges each pair by its commutator ratio: by the
    identities H = W (margin -|gap|) at most COMMUTING_CEILING, by the
    separations at least NONCOMMUTING_FLOOR, and by no part between."""

    @staticmethod
    def _judged(monkeypatch, pairs, a, b) -> tuple[CheckReport, list[str], list[float]]:
        """The report on the stack of `pairs`, and the name and raw value of
        each part it evaluated."""
        reports = []
        parts = _stage_parts(monkeypatch, lambda: reports.append(
            check_equality_iff_commuting(Pair.stack(pairs), a, b, TOL)))
        return reports[0], [part.name for *_, part, _ in parts], [value for *_, value in parts]

    def test_commuting_by_construction(self, monkeypatch):
        rng = np.random.default_rng(5)
        A, B = _commuting_pair(4, 1e3, rng)
        r, names, values = self._judged(monkeypatch, [(A, B)], 1.0, 0.5)
        assert r.ok
        assert suite._commutator_ratio(A.mat, B.mat) <= 8.2e-16
        assert names == ["natural", "kubo"]
        assert r.min_margin_seen == min(-abs(value) for value in values)

    def test_noncommuting_separation(self, monkeypatch):
        rng = np.random.default_rng(6)
        A, B = _noncommuting_pair(4, 1e3, rng)
        r, names, values = self._judged(monkeypatch, [(A, B)], 1.0, 1.0)
        assert r.ok and r.min_margin_seen > 0
        assert suite._commutator_ratio(A.mat, B.mat) >= suite.NONCOMMUTING_FLOOR
        assert names == ["natural_apart", "kubo_apart"]
        assert r.min_margin_seen == min(values)

    @pytest.mark.parametrize("seeds", [[(41, 42)], [(41, 42), (77, 78)]], ids=["one", "stack"])
    def test_a_gray_pair_has_no_part(self, seeds, monkeypatch):
        # (A, A + 1e-5 B0): commutator ratio 3.3e-6 at seeds (41, 42) and
        # 6.2e-6 at (77, 78).  Each record counts and reads +inf, where it
        # read 0.0 while `tol` set the commuting zone
        pairs = []
        for seed_a, seed_b in seeds:
            A, B0 = rand_pd(4, seed=seed_a), rand_pd(4, seed=seed_b)
            B = PDMatrix(A.mat + 1e-5 * B0.mat)
            assert suite.COMMUTING_CEILING < suite._commutator_ratio(A.mat, B.mat) < suite.NONCOMMUTING_FLOOR
            pairs.append((A, B))
        r, names, _ = self._judged(monkeypatch, pairs, 1.0, 0.5)
        assert r.ok and r.instances_run == len(pairs)
        assert names == []
        assert r.min_margin_seen == math.inf and r.to_dict()["min_margin"] is None

    def test_every_commuting_suite_record_is_an_identity_at_any_tol(self):
        # at tol 1e-16 the rounding of each commuting record's identity
        # fails it, and no separation fails; while `tol` set the commuting
        # zone, 26 of these 40 records were gray (margin 0) and 14 failed
        report = run_suite(SuiteConfig(seed=42, trials=40, tol=1e-16))
        check = next(c for c in report.checks if c.check_name == "equality_iff_commuting")
        assert [failure["instance"]["variant"] for failure in check.failures] == ["commuting"] * 40

    @pytest.mark.parametrize("cond", [1e4, 1e6, 1.2])
    def test_every_suite_pair_lands_in_its_zone(self, cond, monkeypatch):
        # seed 42, 120 trials: `_trial_plan` binds the commuting pair to the
        # identities and the noncommuting one to the separations, so each
        # must lie in that zone.  The least noncommuting ratio measured
        # 0.047, 0.064 and 1.0019e-3, 0.2 % above the floor at cond 1.2,
        # where candidates are redrawn; the largest commuting one 6.8e-16
        config = SuiteConfig(seed=42, trials=120, cond_max=cond)
        noncommuting = 0
        for offset in range(config.trials):
            _, commuting, *apart = _draw_trial(config, offset).pairs
            assert suite._commutator_ratio(*(M.mat for M in commuting)) <= suite.COMMUTING_CEILING, offset
            assert all(suite._commutator_ratio(A.mat, B.mat) >= suite.NONCOMMUTING_FLOOR for A, B in apart), offset
            noncommuting += len(apart)
        parts = _stage_parts(monkeypatch, lambda: run_suite(config))
        separations = [value for *_, name, part, value in parts
                       if name == "equality_iff_commuting" and not part.equality]
        # both separations of each noncommuting pair, and only of those
        assert len(separations) == 2 * noncommuting
        assert min(separations) > 0


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
        from matmean.majorization import ky_fan_margins
        from matmean.means import heron_kubo, heron_spectral, wasserstein_expression

        data = direction_one_data()
        A = PDMatrix(np.array(data["A"].to_float()))
        B = PDMatrix(np.array(data["B"].to_float()))
        W = wasserstein_expression(A, B, 1.0, 1.0)
        # determinant ordering is strict for this noncommuting pair
        H_nat = heron_spectral(A, B, 1.0, 1.0)
        logdet_gap = float(np.log(H_nat.eig().eigenvalues).sum() - np.log(W.eig().eigenvalues).sum())
        assert logdet_gap > 1e-3
        # and the geometric-Heron comparison has a strict Ky Fan margin
        H_kubo = heron_kubo(A, B, 1.0, 1.0)
        margins = ky_fan_margins(H_kubo.eig().eigenvalues, W.eig().eigenvalues)[0]
        assert margins.max() > 1e-2

    def test_noncommuting_endpoint_has_trace_equality_but_positive_top_margin(self):
        # at c = 2ab the trace gap vanishes while the comparison stays
        # strict somewhere in the upper Ky Fan sums
        from matmean.majorization import ky_fan_margins
        from matmean.means import heron_spectral, wasserstein_expression

        rng = np.random.default_rng(17)
        A, B = _noncommuting_pair(5, 1e3, rng)
        H = heron_spectral(A, B, 1.0, 1.0)
        W = wasserstein_expression(A, B, 1.0, 1.0)
        sW = W.eig().eigenvalues
        margins = ky_fan_margins(H.eig().eigenvalues, sW)[0]
        scale = 1.0 + abs(float(sW.sum()))
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

    def test_empty_dims_rejected(self):
        with pytest.raises(InvalidWeightsError, match="^dims must be nonempty$"):
            SuiteConfig(dims=())

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

    @pytest.mark.parametrize("config", [SuiteConfig(seed=42, trials=2),
                                        SuiteConfig(seed=42, trials=3, dims=(16, 24, 32), cond_max=1e6)],
                             ids=["seed42", "dims16-32-cond1e6"])
    def test_a_reports_config_reads_back(self, config):
        written = json.loads(json.dumps(run_suite(config).to_dict()))["config"]
        assert SuiteConfig.from_dict(written) == config

    @pytest.mark.parametrize("key, value", [("t_grid", [0.25, 0.5, 0.75]), ("c_fractions", [0.0, 1.0]),
                                            ("weight_grid", [[1.0, 1.0]])])
    def test_a_config_of_another_test_design_is_refused(self, key, value):
        # its trials would draw other instances than this suite's
        with pytest.raises(ConfigError, match=f"^{key} must be this suite's "):
            SuiteConfig.from_dict(SuiteConfig().to_dict() | {key: value})

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


class TestTrustedRange:
    """The README's table of the suite's range, at seed 42 with 120 trials
    (the cond-1e6 row, float false failures on identities, is
    TestEqualityTags').  When a change moves a row, the table moves too."""

    @pytest.mark.parametrize("cond, error, message", [
        (1e4, None, None),
        (1e5, None, None),
        (1e7, NotPositiveDefiniteError, r"\(stack index \(1,\)\)$"),
        (1e8, NotPositiveDefiniteError, r"\(stack index \(1,\)\)$"),
        (1e10, NumericalFailure, "^Riccati residual"),
        (1e12, NumericalFailure, "^Riccati residual"),
    ])
    def test_the_readme_row(self, cond, error, message):
        config = SuiteConfig(seed=42, trials=120, cond_max=cond)
        if error is None:
            assert run_suite(config).ok
        else:
            with pytest.raises(error, match=message):
                run_suite(config)


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

    def test_bad_weight_names_its_checker(self):
        # the grid checks each checker's weights as one array
        pair = Pair(rand_pd(2, seed=1), rand_pd(2, seed=2))
        items = [("spectral_heron", 1.0, 1.0, 1.0), ("kubo_heron", 1.0, 1.0, 1.0), ("kubo_heron", 1.0, math.nan, 0.0)]
        with pytest.raises(InvalidWeightsError, match=r"^kubo_heron: weights must be finite and nonnegative, "
                                                      r"got a = 1\.0, b = nan, c = 0\.0 \(stack index \(1,\)\)$"):
            heron_grid(pair, items, TOL)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.5)])
    def test_no_mean_is_computed_for_sums_that_read_none(self, a, b):
        # c = 0 leaves out the cross term and a zero weight the X of W,
        # so the stage computes neither X nor A # B
        pair = Pair(rand_pd(3, seed=73), rand_pd(3, seed=74))
        items = [("spectral_heron", a, b, 0.0), ("kubo_heron", a, b, 0.0)]
        assert all(report.ok for report in heron_grid(pair, items, TOL))
        assert check_endpoints(pair, a, b, TOL).ok
        assert pair._riccati is pair._geometric is None

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
        from matmean.majorization import weak_margin
        from matmean.means import heron_kubo

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
                sH = heron_kubo(A, B, 1.0, 1.0).eig().eigenvalues
                sR = PDMatrix(hermitian_part(T @ T)).eig().eigenvalues
                single.append(float(weak_margin(sH, sR)))
            assert seq == single

    def test_semidefinite_rank_one_pair_has_no_false_failure(self):
        # trial 3 of this stream is a rank-one 4x4 pair whose eps = 1e-8
        # margin is 1.8e-6 (80-digit mpmath); decomposing A0 + eps I by
        # shifting the eigenvalues of A0 computed it as -1.1e-5
        report = run_suite(SuiteConfig(seed=720838508, trials=4, cond_max=1e6))
        assert next(c for c in report.checks if c.check_name == "semidefinite_limit").ok

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

    @pytest.mark.parametrize("count", [2, 4])
    def test_a_context_list_of_another_length_is_refused(self, count):
        # three stacked pairs: a list of 2 once recorded 2 of the 3 pairs,
        # and the third pair's verdict was lost
        rng = np.random.default_rng(5)
        pair = Pair.stack([_commuting_pair(3, 1e3, rng) for _ in range(3)])
        with pytest.raises(MatrixFormatError, match=rf"^{count} contexts for a stack of 3 pairs$"):
            check_equality_iff_commuting(pair, 1.0, 0.5, TOL, [{"variant": "commuting"}] * count)

    def test_quadratic_lifting_records_one_margin_per_d(self):
        C = rand_pd(4, seed=76)
        halves = [PDMatrix(0.5 * C.mat), PDMatrix(0.25 * C.mat)]
        stacked = check_quadratic_lifting(C, halves, TOL)
        singles = [check_quadratic_lifting(C, [D], TOL).min_margin_seen for D in halves]
        assert stacked.instances_run == 2
        assert stacked.min_margin_seen == min(singles)

    @pytest.mark.parametrize("good", [0, 1], ids=["one-bad-d", "second-of-two-bad"])
    def test_quadratic_lifting_rejects_a_d_outside_the_hypothesis(self, good):
        # lambda(2C) is not weakly majorized by lambda(C); the one stacked
        # hypothesis check names the D that violates it
        C = rand_pd(4, seed=76)
        Ds = [PDMatrix(0.5 * C.mat)] * good + [PDMatrix(2.0 * C.mat)]
        with pytest.raises(InvalidWeightsError, match=rf"prec_w lambda\(C\) \(stack index \({good},\)\)$"):
            check_quadratic_lifting(C, Ds, TOL)


class TestLiftHypothesis:
    @pytest.mark.parametrize("cond", [1e4, 1e6])
    def test_the_suites_d_satisfies_it_on_its_gated_spectrum(self, cond):
        # the lift's stage no longer checks lambda(D) prec_w lambda(C): the
        # draw makes it hold, D0 scaled by 1 - 1e-12 of the least Ky Fan
        # ratio (`_scaled_under`); 40 trials are 5 at each dim 1..8
        config = SuiteConfig(seed=42, trials=40, cond_max=cond)
        for offset in range(config.trials):
            draw = _draw_trial(config, offset)
            assert weak_margin(PDMatrix(draw.D).eig().eigenvalues, draw.C.eig().eigenvalues) >= 0.0, offset


# The public checkers of one pair as functions of (pair, a, b): the Heron
# checkers at c = 2ab (spectral_heron at ab too), weighted_corollary at
# t = b / (a + b), so that the swap (a, b) -> (b, a) is t -> 1 - t.
TWIN_CHECKS = {
    "spectral_heron": lambda pair, a, b: check_spectral_heron(pair, a, b, 2 * a * b, TOL),
    "spectral_heron_at_ab": lambda pair, a, b: check_spectral_heron(pair, a, b, a * b, TOL),
    "kubo_heron": lambda pair, a, b: check_kubo_heron(pair, a, b, 2 * a * b, TOL),
    "weighted_corollary": lambda pair, a, b: check_weighted_corollary(pair, b / (a + b), 2 * a * b / (a + b) ** 2,
                                                                      TOL),
    "spreading": lambda pair, a, b: check_spreading(pair, a, b, TOL),
    "endpoints": lambda pair, a, b: check_endpoints(pair, a, b, TOL),
    "log_majorization_means": lambda pair, a, b: check_log_majorization_means(pair, TOL),
    "bly": lambda pair, a, b: check_bly(pair, a, b, TOL),
    "equality_iff_commuting": lambda pair, a, b: check_equality_iff_commuting(pair, a, b, TOL),
}


class TestTwins:
    """Every compared side is symmetric under the swap (A, B, a, b) ->
    (B, A, b, a), and its spectrum is invariant under a unitary rotation
    (A, B) -> (U A U*, U B U*).  A twin takes another float path (X from
    B's decomposition, LAPACK on other entries), so a margin that agrees
    with its twins' checks the kernels with no second implementation.  A
    complex rotation tells an adjoint from a plain transpose, which
    TestReferenceOracle cannot: both of its sides run the same kernels.
    Every part is compared, so every record margin, the least of them."""

    @pytest.mark.parametrize("name", list(TWIN_CHECKS))
    def test_each_margin_agrees_with_its_twins(self, name, monkeypatch):
        check = TWIN_CHECKS[name]

        def parts(pair, a, b) -> dict:
            return {part.name: value for *_, part, value in _stage_parts(monkeypatch, lambda: check(pair, a, b))}

        for offset, rng, dim, a, b, A, B in iter_instances(SuiteConfig(seed=42, trials=40)):
            U = haar_unitaries(complex_gaussian(dim, rng))
            original = parts(Pair(A, B), a, b)
            twins = {"swap": parts(Pair(B, A), b, a),
                     "rotation": parts(Pair(*(PDMatrix(U @ M.mat @ adjoint(U)) for M in (A, B))), a, b)}
            for twin, values in twins.items():
                assert values.keys() == original.keys()
                for part, value in values.items():
                    assert abs(value - original[part]) <= 1e-10, (offset, twin, part)


def _one_at_a_time(config: SuiteConfig) -> RunReport:
    """Reference run: every public checker called on its own, one pair
    and one comparison per call, in the per-trial order of the instance
    stream (the order its random draws are made in)."""
    pool = {}
    merge = functools.partial(suite._merge_into, pool)
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


class TestFailureContexts:
    """Each failing record serializes the context of its own pair of the
    stage's Pair: every relation reads NaN, so every stage record fails."""

    def test_every_failing_record_serializes_its_pairs_context(self, monkeypatch):
        for table in (suite._SPECTRAL, suite._MATRIX):
            for relation in list(table):
                monkeypatch.setitem(table, relation, lambda x, y, _: np.full(len(x), np.nan))
        # dims 1 and 2: trial 1 alone draws a noncommuting pair
        config = SuiteConfig(seed=42, trials=2)
        report = run_suite(config)
        found = collections.defaultdict(list)
        for check in report.checks:
            if check.check_name in suite.PARTS:
                assert len(check.failures) == check.instances_run, check.check_name
            for failure in check.failures:
                found[check.check_name, failure["seed_offset"]].append(failure["instance"])
        assert {name for name, _ in found} == set(suite.PARTS)

        def serialized(context: dict) -> dict:
            return {key: matrix_to_dict(value) if isinstance(value, HermitianMatrix) else value
                    for key, value in context.items()}

        certified = {"seed_offset": None, "instance": "certified-3x3", "a": 1.0, "b": 1.0}
        for (name, offset), instances in found.items():
            if offset is None:
                assert name in ("spreading", "kubo_heron", "log_majorization_means", "bly"), name
                assert instances == [certified] * len(instances), name
                continue
            draw = _draw_trial(config, offset)
            (A, B), *equality_pairs = draw.pairs
            context = {"seed_offset": offset, "dim": draw.dim, "a": draw.a, "b": draw.b, "A": A, "B": B}
            if name == "equality_iff_commuting":
                expected = [dict(context, A=A_e, B=B_e, variant=variant)
                            for (A_e, B_e), variant in zip(equality_pairs, ("commuting", "noncommuting"))]
            elif name in ("pinching", "quadratic_lifting"):
                expected = [dict(context, C=draw.C, R=draw.R)] * len(instances)
            elif name == "semidefinite_limit":
                expected = [dict(context, A=draw.A0, B=draw.B0, variant="rank-deficient")] * len(instances)
            else:
                expected = [context] * len(instances)
            assert instances == [serialized(ctx) for ctx in expected], (name, offset)
        assert len(found["equality_iff_commuting", 1]) == 2


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


def _stage_parts(monkeypatch, run) -> list[tuple[int, int, str, suite._Part, float]]:
    """(stage, record, checker, part, value) of every part of every stage
    that `run()` runs, in the order its relations are evaluated: the value
    each relation returns, before the stage takes -|gap| of the parts
    tagged `equality`.  Each relation of a plan is wrapped for its run and
    its values mapped to parts through `plan.relations` and `plan.shape`."""
    parts, plan_run, stages = [], suite._Plan.run, itertools.count()

    def run_recording(plan, *args, **kwargs):
        stage = next(stages)

        def recording(relation, at):
            def evaluate(*args):
                values = relation(*args)
                for i, value in zip(at.tolist(), values.tolist()):
                    record = plan.records[i // plan.shape[1]]
                    parts.append((stage, i // plan.shape[1], record.name, record.parts[i % plan.shape[1]], value))
                return values
            return evaluate

        with monkeypatch.context() as patch:
            for relation, at, *_ in plan.relations:
                table = suite._SPECTRAL if relation in suite._SPECTRAL else suite._MATRIX
                patch.setitem(table, relation, recording(table[relation], at))
            return plan_run(plan, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(suite._Plan, "run", run_recording)
        run()
    return parts


def _count_calls(monkeypatch, owner, name: str) -> list:
    """The positional arguments of each call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _benchmark_checkers() -> set[str]:
    """The check_* names of BENCHMARK.json's suite.<name>.ms_per_item metrics."""
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"][len("suite."):-len(".ms_per_item")] for m in declared
            if m["name"].startswith("suite.check_") and m["name"].endswith(".ms_per_item")}


def test_checker_names_match_the_benchmark_metrics():
    # perfbench/tracing.py makes a suite.<name>.ms_per_item metric of every
    # module-level check_* name of suite, imported ones included
    metrics = _benchmark_checkers()
    names = {name for name in vars(suite) if name.startswith("check_")}
    assert names == metrics, (
        "perfbench/tracing.py traces every check_* name bound in matmean.suite, so these names change "
        f"the traced benchmark's metric set: only in suite {sorted(names - metrics)}, "
        f"only in BENCHMARK.json {sorted(metrics - names)}")


def test_the_parts_table_names_the_benchmark_checkers():
    # every checker that runs in a stage has a row of parts, and the two
    # exact replays have none
    names = {f"check_{name}" for name in [*suite.PARTS, "sharpness_scalar", "incomparability_float"]}
    assert len(names) == 13
    assert names == _benchmark_checkers()


def test_part_names_are_unique_within_each_checker():
    for checker, parts in suite.PARTS.items():
        names = [part.name for part in parts]
        assert len(set(names)) == len(names), checker
        for part in parts:
            assert part.relation in suite._SPECTRAL or part.relation in suite._MATRIX, (checker, part.name)
            # `equal` returns a norm, >= 0: untagged, it could never fail
            assert part.equality or part.relation != "equal", (checker, part.name)


class TestEqualityTags:
    """The parts tagged `equality` are the identities, which hold exactly:
    their relations return a gap and the stage takes -|gap| as the margin.
    Every other part is an inequality, the content of a theorem."""

    def test_the_stage_takes_minus_the_absolute_gap(self, monkeypatch):
        pair = Pair(rand_pd(3, seed=41), rand_pd(3, seed=42))
        for gap in (1e-3, -1e-3):
            monkeypatch.setitem(suite._SPECTRAL, "log_total", lambda x, y, _: np.full(len(x), gap))
            assert check_log_majorization_means(pair, TOL).min_margin_seen == -1e-3

    def test_every_identity_gap_is_near_zero(self, monkeypatch):
        # seed 42, 40 trials at cond 1e4: the largest identity gap measured
        # 3.2e-9 (log_det_equality), every other at most 8e-11, while the
        # inequality parts reach 0.1-0.7
        parts = _stage_parts(monkeypatch, lambda: run_suite(SuiteConfig(seed=42, trials=40)))
        tagged = [(name, part.name, value) for *_, name, part, value in parts if part.equality]
        assert ({(name, part) for name, part, _ in tagged}
                == {(name, part.name) for name, row in suite.PARTS.items() for part in row if part.equality})
        worst = max(tagged, key=lambda item: abs(item[2]))
        assert abs(worst[2]) <= 1e-8, worst

    def test_the_cond_1e6_failures_are_identities(self, monkeypatch):
        # the float false failures of the measured baseline (7 records:
        # log_det_equality 4, homogeneity 3) are rounding of identities;
        # a failing inequality part would be a counterexample
        config = SuiteConfig(seed=42, trials=120, cond_max=1e6)
        reports = []
        parts = _stage_parts(monkeypatch, lambda: reports.append(run_suite(config)))
        failing = collections.defaultdict(list)
        for stage, record, name, part, value in parts:
            if not (-abs(value) if part.equality else value) >= -config.tol:
                failing[stage, record, name].append(part)
        assert [(record, part.name) for record, failed in failing.items() for part in failed
                if not part.equality] == []
        assert len(failing) == sum(len(report.failures) for report in reports[0].checks)


class TestTraceIdentity:
    """The endpoint trace identities are Schatten-1 parts tagged as
    identities: -|sum lambda(W) - sum lambda(H)| / (1 + |sum lambda(W)|)."""

    # each checker's records at its endpoint, and its public checker there
    CASES = {
        "spectral_heron": (lambda a, b: suite._grid([("spectral_heron", a, b, 2 * a * b)]),
                           lambda pair, a, b: check_spectral_heron(pair, a, b, 2 * a * b, TOL)),
        # at t = b, whose 1 - t need not be a
        "weighted_corollary": (lambda a, b: suite._grid([("weighted_corollary", 1.0 - b, b, 2 * (1.0 - b) * b)]),
                               lambda pair, a, b: check_weighted_corollary(pair, b, 2 * (1.0 - b) * b, TOL)),
        "spreading": (lambda a, b: suite._records("spreading", a, b),
                      lambda pair, a, b: check_spreading(pair, a, b, TOL)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("dim", [1, 2, 8, 9, 32])
    def test_each_endpoint_trace_part_is_the_trace_gap(self, name, dim, monkeypatch):
        records, check = self.CASES[name]
        a, b = 0.3, 0.7
        pair = Pair(rand_pd(dim, seed=4 * dim), rand_pd(dim, seed=4 * dim + 1))
        parts = {}
        names = [part.name for part in suite.PARTS[name]]
        monkeypatch.setitem(suite._DIAGNOSTICS, name, lambda _, values: parts.update(zip(names, values.tolist())))
        check(pair, a, b)
        plan = suite._Plan(records(a, b))
        (trace,) = (part for part in plan.records[0].parts if part.name == "trace")
        assert (trace.relation, trace.arg, trace.equality) == ("schatten", 1, True)
        vals = suite._Built(plan, pair, None).vals
        sH, sW = (vals[plan.keys.index(key)].sum() for key in (trace.dominated, trace.dominating))
        assert parts["trace"] == -abs(sW - sH) / (1.0 + abs(sW))


class TestLeastPart:
    """A record's margin is the least of its parts: NaN wherever a NaN
    part sits, and the first of equal parts, as min() picks it."""

    @staticmethod
    def _constant(monkeypatch, relation: str, value: float) -> None:
        monkeypatch.setitem(suite._SPECTRAL, relation, lambda x, y, _: np.full(len(x), value))

    @pytest.mark.parametrize("relation, check", [
        ("schatten", lambda pair: check_spectral_heron(pair, 1.0, 1.0, 2.0, TOL)),
        ("bottom", lambda pair: check_spreading(pair, 1.0, 1.0, TOL)),
        ("log_total", lambda pair: check_log_majorization_means(pair, TOL)),
        ("schatten", lambda pair: check_bly(pair, 1.0, 1.0, TOL)),
    ], ids=["grid-trace", "spreading-bottom", "log-total", "bly-schatten"])
    def test_a_nan_part_after_the_first_fails_its_record(self, relation, check, monkeypatch):
        pair = Pair(rand_pd(3, seed=41), rand_pd(3, seed=42))
        assert check(pair).ok
        self._constant(monkeypatch, relation, math.nan)
        report = check(pair)
        assert not report.ok
        assert math.isnan(report.failures[0]["worst_margin"])

    def test_a_nan_level_fails_the_semidefinite_limit(self, monkeypatch):
        weak = suite._SPECTRAL["weak"]
        monkeypatch.setitem(suite._SPECTRAL, "weak", lambda x, y, arg: np.where(np.arange(len(x)) == 2, np.nan,
                                                                                 weak(x, y, arg)))
        report = check_semidefinite_limit(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(2)), tol=TOL)
        assert not report.ok
        assert math.isnan(report.diagnostics["margins_along_sequence"][2])

    @pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_the_first_of_equal_parts_wins(self, first, second, monkeypatch):
        # the endpoint record of spectral_heron is (weak, trace)
        self._constant(monkeypatch, "weak", first)
        self._constant(monkeypatch, "schatten", second)
        margin = check_spectral_heron(Pair(rand_pd(2, seed=43), rand_pd(2, seed=44)), 1.0, 1.0, 2.0, TOL).min_margin_seen
        assert margin == 0.0 and math.copysign(1.0, margin) == math.copysign(1.0, first)


class TestMatrixParts:
    """The identities are parts of the generic matrix relations: an error
    of 1e-6 relative in one keyed side fails the part that reads it, and
    no other part of its record."""

    CHECKS = {
        "bly": lambda: check_bly(Pair(rand_pd(3, seed=41), rand_pd(3, seed=42)), 1.0, 1.0, TOL),
        "pinching": lambda: check_pinching(*_pinching_operands(3, 1e3, np.random.default_rng(5)), TOL),
    }

    @staticmethod
    def _parts(monkeypatch, checker: str) -> dict:
        """The parts of the checker's record in each stage, by name, as the
        stage computes them."""
        parts = {}
        names = [part.name for part in suite.PARTS[checker]]
        monkeypatch.setitem(suite._DIAGNOSTICS, checker, lambda _, values: parts.update(zip(names, values.tolist())))
        return parts

    @pytest.mark.parametrize("checker, kind, part, factor", [
        ("bly", "expansion", "expansion", lambda batch: 1.0 + 1e-6),
        # pair 2 of the compression pairs is that of 2C, so the Heron sum
        # of pair 2 is Phi_R(2C)
        ("pinching", "heron", "homogeneity", lambda batch: np.where(batch[0] == 2, 1.0 + 1e-6, 1.0)[:, None, None]),
        ("pinching", "RSC", "trace_identity", lambda batch: 1.0 + 1e-6),
    ], ids=["equal-expansion", "equal-homogeneity", "tr-identity"])
    def test_a_perturbed_side_fails_its_part(self, checker, kind, part, factor, monkeypatch):
        parts = self._parts(monkeypatch, checker)
        assert self.CHECKS[checker]().ok
        assert min(parts.values()) >= -TOL
        prepare, make = suite._MAKERS[kind]
        monkeypatch.setitem(suite._MAKERS, kind, (prepare, lambda built, batch: make(built, batch) * factor(batch)))
        report = self.CHECKS[checker]()
        assert not report.ok
        assert report.failures[0]["worst_margin"] == parts[part] < -10 * TOL
        assert all(value >= -TOL for name, value in parts.items() if name != part), parts


class TestWork:
    def test_at_most_13_eigendecompositions_per_trial(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        run_suite(SuiteConfig(seed=42, trials=8))
        # 4 per trial (the operand gate, the one middle of X and A # B, X's
        # gate, the gate of the compared matrices) plus 9 for the certified
        # instances; 83 while a trial ran two stages, and 51 while X and
        # A # B each had a middle of their own
        assert len(calls) <= 41

    def test_at_most_779_eigh_slices_in_8_trials(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        run_suite(SuiteConfig(seed=42, trials=8))
        # each matrix of a stacked call counts; 787 while the c = 0 Heron
        # sums of spectral_heron and kubo_heron, one matrix, had two keys,
        # 779 while pinching gated Phi_R(I), Phi_R(2C) and Phi_R(C1),
        # whose spectra no check reads, and 755 while the lift gated D to
        # check its hypothesis, which `_scaled_under` makes hold
        assert sum(int(np.prod(np.shape(mats)[:-2])) for mats, *_ in calls) <= 747

    def test_eigendecompositions_at_dims_16_to_32(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        run_suite(SuiteConfig(seed=42, trials=3, dims=(16, 24, 32)))
        # 4 per trial plus 9; 26 while X and A # B had a middle each
        assert len(calls) <= 21
        # 297 slices while the lift gated D
        assert sum(int(np.prod(np.shape(mats)[:-2])) for mats, *_ in calls) <= 294

    @pytest.mark.parametrize("config, qr, gate_eig, gate_hermitian, check_pd", [
        (SuiteConfig(seed=42, trials=8), (8, 86), (16, 94), (31, 625), 121),
        (SuiteConfig(seed=42, trials=3, dims=(16, 24, 32)), (3, 33), (6, 36), (16, 245), 56),
    ], ids=["dims1-8", "dims16-32"])
    def test_draw_and_gate_work(self, config, qr, gate_eig, gate_hermitian, check_pd, monkeypatch):
        # (calls, matrices) of the draw's stacked QR, the check of drawn
        # eigen-data (`gate_eig`, the suite's and a PDMatrix's), the gate
        # behind each eigh (`gate_hermitian`), and the calls of `check_pd`,
        # which every gate and derived spectrum ends in
        calls = {"qr": _count_calls(monkeypatch, np.linalg, "qr"),
                 "gate_eig": _count_calls(monkeypatch, suite, "gate_eig"),
                 "linalg.gate_eig": _count_calls(monkeypatch, linalg, "gate_eig"),
                 "gate_hermitian": _count_calls(monkeypatch, linalg, "gate_hermitian"),
                 "check_pd": _count_calls(monkeypatch, linalg, "check_pd")}
        run_suite(config)
        calls["gate_eig"] += calls.pop("linalg.gate_eig")
        for name, matrix_ndim, (most_calls, most_matrices) in (("qr", 2, qr), ("gate_eig", 1, gate_eig),
                                                                ("gate_hermitian", 2, gate_hermitian)):
            matrices = sum(int(np.prod(np.shape(args[0])[:-matrix_ndim])) for args in calls[name])
            assert len(calls[name]) <= most_calls and matrices <= most_matrices, (name, len(calls[name]), matrices)
        assert len(calls["check_pd"]) <= check_pd

    def test_at_most_2_psd_powers_per_trial(self, monkeypatch):
        calls = _count_calls(monkeypatch, means, "_eigh")
        run_suite(SuiteConfig(seed=42, trials=8))
        # one joint middle of X and A # B (`joint_means`) per trial, over
        # every pair of the trial that reads either, and one per certified
        # pair; 2 per trial and 4 for the certified pairs while each mean
        # had a pass of its own
        assert len(calls) <= 8 + 2

    def test_each_spectral_relation_is_evaluated_once_per_stage(self, monkeypatch):
        calls = {name: 0 for name in suite._SPECTRAL}

        def counted(name, relation):
            def evaluate(*args):
                calls[name] += 1
                return relation(*args)
            return evaluate

        for name, relation in list(suite._SPECTRAL.items()):
            monkeypatch.setitem(suite._SPECTRAL, name, counted(name, relation))
        run_suite(SuiteConfig(seed=42, trials=8))
        # one stage per trial and one for the certified pair, which compares
        # no Ky Fan entry (endpoints) and no Loewner order (pinching)
        assert calls == {name: 8 + (name not in ("ky_fan", "bottom_ky_fan", "loewner")) for name in calls}

    def test_no_decomposition_outside_the_gates(self, monkeypatch):
        # the pinching order check once read eigvalsh(Phi - Phi1), a
        # spectrum no gate checked and the eigh counts above left out
        calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        run_suite(SuiteConfig(seed=42, trials=8))
        assert calls == []

    def test_plans_are_made_once_per_trial_shape(self, monkeypatch):
        _clear_plans()
        plans = _count_calls(monkeypatch, suite, "_Plan")
        run_suite(SuiteConfig(seed=42, trials=40))
        # one per (weights, pair count) shape, and one for the certified pair
        made = len(plans)
        assert made <= 2 * len(suite.WEIGHT_GRID) + 1
        run_suite(SuiteConfig(seed=7, trials=40))
        assert len(plans) == made

    def test_at_most_2_qr_factorizations_per_trial(self, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "qr")
        redraws = _count_calls(monkeypatch, suite, "random_pd_from_rng")
        rejections = _count_calls(monkeypatch, suite, "_noncommuting_pair")
        # one stacked QR per trial, plus one per matrix of a redrawn
        # noncommuting pair and one for the second part drawn again after
        # a rejected candidate; 2 per trial with two draw segments, 10.75
        # when every draw made its own.  At cond 1.2, 6 of the 16 trials
        # reject their first candidate.
        for config in (SuiteConfig(seed=42, trials=8), SuiteConfig(seed=42, trials=16, cond_max=1.2)):
            for counted in (calls, redraws, rejections):
                counted.clear()
            run_suite(config)
            assert len(calls) <= config.trials + len(redraws) + len(rejections)
        assert rejections


def _clear_plans() -> None:
    suite._trial_plan.cache_clear()
    suite._certified_plan.cache_clear()


class TestPlanCache:
    def test_reports_with_cached_plans_equal_fresh_ones(self):
        configs = [SuiteConfig(seed=seed, trials=24, cond_max=1e6) for seed in (42, 7, 42)]
        warm = [json.dumps(run_suite(config).to_dict()) for config in configs]
        fresh = []
        for config in configs:
            _clear_plans()
            fresh.append(json.dumps(run_suite(config).to_dict()))
        assert warm == fresh
        assert warm[0] == warm[2]

    def test_each_mean_is_laid_out_once_per_pair(self):
        # pairs 0-2 are drawn, 3-6 the compression pairs of C, I, 2C and
        # C1, 7-10 the eps-levels: X only where a key reads it, never on
        # an eps-level, and each pair listed once
        assert suite._trial_plan(1.0, 1.0, 3).where == {
            "riccati": [0, 1, 2, 3], "geometric": list(range(11)), "sqrt": [0, 7, 8, 9, 10]}
        assert suite._certified_plan().where == {"riccati": [0], "geometric": [0], "sqrt": [0]}


class TestStackedDraws:
    @pytest.mark.parametrize("config", [
        SuiteConfig(seed=42, trials=24, cond_max=1e6),
        SuiteConfig(seed=42, trials=24, cond_max=1.2),
        SuiteConfig(seed=7, trials=3, dims=(16, 24, 32)),
    ], ids=["cond1e6", "cond1.2", "dims16-32"])
    def test_trial_draws_equal_one_at_a_time_bitwise(self, config):
        """Every matrix of a trial's draw equals the one the reference
        helpers draw one at a time from the same stream."""
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
