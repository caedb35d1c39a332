import hashlib
import json
import math

import pytest

from matmean.matio import matrix_to_dict
from matmean.report import CheckReport
from matmean.suite import RunReport, SuiteConfig, run_suite

from conftest import iter_instances, rand_pd


def _report(margin, **diagnostics):
    report = CheckReport("semidefinite_limit", 1e-8)
    report.record(margin)
    report.diagnostics.update(diagnostics)
    return report


class TestMerge:
    def test_non_numeric_diagnostics_follow_the_worst_instance(self):
        pooled = _report(0.0, margins_along_sequence=[0.0, 0.0], convergence_gap=1e-3)
        pooled.merge(_report(-2e-16, margins_along_sequence=[-2e-16, 0.0], convergence_gap=1e-4))
        pooled.merge(_report(-1e-16, margins_along_sequence=[-1e-16, 0.0], convergence_gap=2e-3))
        assert pooled.min_margin_seen == -2e-16
        assert pooled.diagnostics["margins_along_sequence"] == [-2e-16, 0.0]
        # numeric diagnostics keep their maximum
        assert pooled.diagnostics["convergence_gap"] == 2e-3

    def test_ties_keep_the_earlier_report(self):
        pooled = _report(0.5, exact_margin="1/2")
        pooled.merge(_report(0.5, exact_margin="other"))
        assert pooled.diagnostics["exact_margin"] == "1/2"

    def test_reports_of_two_checks_are_not_merged(self):
        with pytest.raises(ValueError, match="^cannot merge 'bly' into 'semidefinite_limit'$"):
            _report(0.0).merge(CheckReport("bly", 1e-8))

    def test_new_keys_are_added(self):
        pooled = _report(-1.0)
        pooled.merge(_report(0.0, note="x"))
        assert pooled.diagnostics["note"] == "x"


class TestFailureSerialization:
    def test_passing_records_keep_no_instance(self):
        A = rand_pd(3, seed=1)
        report = CheckReport("c", 1e-8)
        report.record(0.0, {"seed_offset": 0, "A": A})
        assert report.failures == []

    def test_failure_entry_is_unchanged_json(self):
        # cond 1e6, seed 42: trial 20 is a false pinching failure.  Its
        # entry serializes the matrices the context holds, byte for byte
        # as the entry written when contexts held serialized matrices
        config = SuiteConfig(seed=42, trials=21, cond_max=1e6)
        entry = next(c for c in run_suite(config).checks if c.check_name == "pinching").failures[0]
        text = json.dumps(entry)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7f698a28d963e0a940991f9bc0a412e088a95e821f9783f901a5437024e53bab")
        *_, A, B = list(iter_instances(config))[20]
        assert entry["seed_offset"] == 20
        assert list(entry["instance"]) == ["seed_offset", "dim", "a", "b", "A", "B", "C", "R"]
        assert entry["instance"]["A"] == matrix_to_dict(A)
        assert entry["instance"]["B"] == matrix_to_dict(B)

    def test_nan_margin_fails_and_the_run_json_still_loads(self):
        report = CheckReport("x", 1e-8)
        report.record(0.5, {"seed_offset": 0})
        report.record(float("nan"), {"seed_offset": 1})
        assert not report.ok
        assert [f["seed_offset"] for f in report.failures] == [1]
        # a NaN margin does not displace the smallest real one
        assert report.min_margin_seen == 0.5
        run = RunReport(SuiteConfig(trials=1), [report])
        data = json.loads(json.dumps(run.to_dict()))
        assert data["ok"] is False
        assert math.isnan(data["checks"][0]["failures"][0]["worst_margin"])
