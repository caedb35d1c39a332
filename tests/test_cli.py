import json
import os
import subprocess
import sys
from pathlib import Path

import matmean
import numpy as np
import pytest

from matmean import cli, errors, matio
from matmean.cli import main
from matmean.linalg import PDMatrix
from matmean.matio import load_matrix, matrix_to_dict

from conftest import rand_pd


def write_matrix(M, path):
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(M), fh)


@pytest.fixture
def certified_pair(tmp_path):
    A = np.diag([1.0, 4.0])
    X = np.array([[1.0, 0.5], [0.5, 1.0]])
    B = X @ A @ X
    pa, pb = tmp_path / "A.json", tmp_path / "B.json"
    write_matrix(A, pa)
    write_matrix(B, pb)
    return str(pa), str(pb)


@pytest.fixture
def readme_pair(tmp_path):
    """The A and B of the README's compute -> check example."""
    pa, pb = tmp_path / "A.json", tmp_path / "B.json"
    pa.write_text('{"dim": 3, "re": [[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]}')
    pb.write_text('{"dim": 3, "re": [[1.0, 0.3, 0.1], [0.3, 2.0, 0.0], [0.1, 0.0, 1.2]]}')
    return str(pa), str(pb)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_geo_equal_operands_echoes(self, tmp_path, capsys):
        A = rand_pd(3, seed=91)
        p = tmp_path / "A.json"
        write_matrix(A, p)
        code, out, _ = run_cli(capsys, "compute", "geo", str(p), str(p))
        assert code == 0
        payload = json.loads(out)
        got = np.array(payload["result"]["re"])
        np.testing.assert_allclose(got, A.mat.real, atol=1e-10, rtol=0)

    def test_spectral_trace_is_five(self, certified_pair, capsys):
        code, out, _ = run_cli(capsys, "compute", "spectral", *certified_pair)
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["trace"] == pytest.approx(5.0, abs=1e-9)

    def test_wasserstein_reports_residual(self, certified_pair, capsys):
        code, out, _ = run_cli(capsys, "compute", "wasserstein", *certified_pair, "-a", "1", "-b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["dual_form_residual"] <= 1e-8

    def test_riccati_reports_residual(self, certified_pair, capsys):
        code, out, _ = run_cli(capsys, "compute", "riccati", *certified_pair)
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["riccati_residual"] <= 1e-10
        got = np.array(payload["result"]["re"])
        np.testing.assert_allclose(got, [[1.0, 0.5], [0.5, 1.0]], atol=1e-10, rtol=0)

    def test_product_sqrt_emits_both_factors(self, certified_pair, capsys):
        code, out, _ = run_cli(capsys, "compute", "product_sqrt", *certified_pair)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["results"]) == {"AB_sqrt", "BA_sqrt"}

    def test_parse_failure_exit_2(self, tmp_path, capsys, certified_pair):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "compute", "geo", str(bad), certified_pair[1])
        assert code == 2

    def test_non_pd_input_exit_3(self, tmp_path, capsys, certified_pair):
        indefinite = tmp_path / "ind.json"
        write_matrix(np.diag([1.0, -1.0]), indefinite)
        code, _, _ = run_cli(capsys, "compute", "geo", str(indefinite), certified_pair[1])
        assert code == 3

    def test_invalid_weights_exit_4(self, certified_pair, capsys):
        # a non-finite weight fails the weight check, not the matrix gate
        for mean, flag, value in [("geo_t", "-t", "1.5"), ("wasserstein", "-a", "nan"),
                                  ("heron_spectral", "-c", "nan"), ("heron_kubo", "-a", "inf"),
                                  ("wasserstein", "-b", "-1"), ("heron_kubo", "-c", "-inf"),
                                  ("heron_spectral", "-a", "nan")]:
            code, out, err = run_cli(capsys, "compute", mean, *certified_pair, f"{flag}={value}")
            assert code == 4, (mean, flag, value)
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_one_pair_weight_error_names_no_stack_index(self, readme_pair, capsys):
        code, out, err = run_cli(capsys, "compute", "wasserstein", *readme_pair, "-a", "nan")
        assert (code, out) == (4, "")
        assert err == "error: wasserstein: weights must be finite and nonnegative, got a = nan, b = 1.0\n"

    def test_output_file(self, certified_pair, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(capsys, "compute", "geo", *certified_pair, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["meta"]["trace"] == pytest.approx(40.0 / np.sqrt(73.0), rel=1e-9)

    def test_result_is_bit_identical_to_library_call(self, certified_pair, capsys):
        from matmean.means import geometric_mean

        code, out, _ = run_cli(capsys, "compute", "geo", *certified_pair)
        assert code == 0
        emitted = np.array(json.loads(out)["result"]["re"])
        A, B = (PDMatrix(load_matrix(path)) for path in certified_pair)
        expected = geometric_mean(A, B).mat.real
        assert np.array_equal(emitted, expected)

    @pytest.mark.parametrize("mean, function", [("spectral_t", "spectral_mean_weighted"), ("geodesic", "bw_geodesic")])
    def test_weighted_mean_at_t_equals_library_call(self, mean, function, readme_pair, capsys):
        from matmean import means

        code, out, _ = run_cli(capsys, "compute", mean, *readme_pair, "-t", "0.3")
        assert code == 0
        payload = json.loads(out)
        A, B = (PDMatrix(load_matrix(path)) for path in readme_pair)
        expected = getattr(means, function)(A, B, 0.3).mat
        assert np.array_equal(matio.matrix_from_dict(payload["result"]), expected)
        assert payload["meta"]["t"] == 0.3

    def test_eigensolver_failure_is_a_numerical_failure(self, readme_pair, capsys, monkeypatch):
        # eigh runs on A and B at their gates, then on the PSD power inside
        # A # B; a LinAlgError there once escaped main as a traceback
        eigh, calls = np.linalg.eigh, []

        def third_does_not_converge(mats):
            calls.append(mats)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(mats)

        monkeypatch.setattr(np.linalg, "eigh", third_does_not_converge)
        code, out, err = run_cli(capsys, "compute", "geo", *readme_pair)
        assert (code, out, len(calls)) == (1, "", 3)
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: eigensolver did not converge")


class TestCheck:
    def test_equal_matrices_hold(self, certified_pair, capsys):
        code, out, _ = run_cli(capsys, "check", "weak", certified_pair[0], certified_pair[0])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert max(abs(m) for m in payload["per_k_margins"]) == 0.0

    def test_failing_direction_exits_1(self, tmp_path, capsys):
        # k=1 failure on the certified 3x3 instance
        from matmean.exact import direction_one_data
        from matmean.means import geometric_mean, spectral_mean

        data = direction_one_data()
        A = PDMatrix(np.array(data["A"].to_float()))
        B = PDMatrix(np.array(data["B"].to_float()))
        M_sharp = A.mat + B.mat + 2.0 * geometric_mean(A, B).mat
        M_nat = A.mat + B.mat + 2.0 * spectral_mean(A, B).mat
        px, py = tmp_path / "x.json", tmp_path / "y.json"
        write_matrix(M_sharp, px)
        write_matrix(M_nat, py)
        code, out, _ = run_cli(capsys, "check", "weak", str(px), str(py))
        assert code == 1
        payload = json.loads(out)
        assert payload["per_k_margins"][0] < -1e-2

    def test_log_relation_between_means(self, tmp_path, capsys):
        from matmean.means import geometric_mean, spectral_mean

        P, Q = rand_pd(4, seed=92), rand_pd(4, seed=93)
        px, py = tmp_path / "g.json", tmp_path / "n.json"
        write_matrix(geometric_mean(P, Q), px)
        write_matrix(spectral_mean(P, Q), py)
        code, _, _ = run_cli(capsys, "check", "log", str(px), str(py))
        assert code == 0

    def test_shape_mismatch_exit_2(self, tmp_path, capsys, certified_pair):
        p3 = tmp_path / "three.json"
        write_matrix(np.eye(3), p3)
        code, _, _ = run_cli(capsys, "check", "weak", certified_pair[0], str(p3))
        assert code == 2

    # nan used to exit 1 with the non-JSON token NaN in the output, and a
    # negative tolerance was accepted
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tol_exit_2(self, tol, certified_pair, capsys):
        assert_usage_error(*run_cli(capsys, "check", "weak", *certified_pair, "--tol", tol))

    # tol times the scale of Y overflowed to the non-JSON token Infinity,
    # printed with exit 0
    @pytest.mark.parametrize("relation, diagonal", [("weak", 1.0), ("major", 1.0), ("log", 10.0)])
    def test_overflowing_tol_exit_2(self, relation, diagonal, tmp_path, capsys):
        E = tmp_path / "E.json"
        write_matrix(diagonal * np.eye(2), E)
        assert_usage_error(*run_cli(capsys, "check", relation, str(E), str(E), "--tol", "1e308"))

    # the spectral endpoint c = 2ab is a true majorization, and the
    # geometric mean is log-majorized by the spectral mean but not the other
    # way round
    @pytest.mark.parametrize("relation, x, y, code", [
        ("major", "heron_spectral", "wasserstein", 0),
        ("log", "geo", "spectral", 0),
        ("log", "spectral", "geo", 1),
    ])
    def test_relations_between_readme_means(self, relation, x, y, code, readme_pair, tmp_path, capsys):
        paths = {mean: str(tmp_path / f"{mean}.json") for mean in (x, y)}
        for mean, path in paths.items():
            assert run_cli(capsys, "compute", mean, *readme_pair, "--out", path)[0] == 0
        got, out, _ = run_cli(capsys, "check", relation, paths[x], paths[y])
        assert got == code
        assert json.loads(out)["holds"] is (code == 0)

    def test_geometric_endpoint_fails_major_on_the_trace(self, readme_pair, tmp_path, capsys):
        paths = [str(tmp_path / f"{mean}.json") for mean in ("heron_kubo", "wasserstein")]
        for mean, path in zip(("heron_kubo", "wasserstein"), paths):
            assert run_cli(capsys, "compute", mean, *readme_pair, "--out", path)[0] == 0
        code, out, _ = run_cli(capsys, "check", "major", *paths)
        payload = json.loads(out)
        assert code == 1
        assert min(payload["per_k_margins"]) > 0.0 and payload["trace_gap"] > 1e-3

    def test_compute_output_feeds_check(self, certified_pair, tmp_path, capsys):
        # the envelope written by `compute --out` is accepted by `check`
        heron = tmp_path / "heron.json"
        wasser = tmp_path / "wasser.json"
        assert run_cli(capsys, "compute", "heron_kubo", *certified_pair,
                       "-a", "1", "-b", "1", "--out", str(heron))[0] == 0
        assert run_cli(capsys, "compute", "wasserstein", *certified_pair,
                       "-a", "1", "-b", "1", "--out", str(wasser))[0] == 0
        code, out, _ = run_cli(capsys, "check", "weak", str(heron), str(wasser))
        assert code == 0
        assert json.loads(out)["holds"] is True


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def permission_denied(path, *args, **kwargs):
    raise PermissionError(13, "Permission denied", str(path))


class TestMalformedInput:
    # Each used to escape `main` with a traceback and exit 1, the code of a
    # failed relation: a UnicodeDecodeError; a MemoryError from the
    # dim x dim default for "im", built before "re" was checked; an
    # OverflowError from a dim or an entry beyond the float range; a
    # RecursionError from deeply nested JSON.
    @pytest.mark.parametrize("content", [
        b'{"dim": 1, "re": [[1.0]], "note": "caf\xe9"}',
        b'{"dim": 1000000, "re": [[1]], "im": [[0]]}',
        b'{"dim": 1000000, "re": [[1]]}',
        b'{"dim": 1e400, "re": [[1]]}',
        b'{"dim": 1, "re": [[1' + b'0' * 400 + b']]}',
        b'[' * 100000 + b']' * 100000,
    ], ids=["not-utf8", "huge-dim", "huge-dim-real", "dim-overflow", "entry-overflow", "deep-nesting"])
    @pytest.mark.parametrize("command", ["compute", "check"])
    def test_bad_file_exit_2(self, command, content, tmp_path, capsys, certified_pair):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = ["compute", "geo", str(bad), certified_pair[1]] if command == "compute" \
            else ["check", "weak", certified_pair[0], str(bad)]
        assert_usage_error(*run_cli(capsys, *argv))

    # entries this large overflowed the gate's own norms: at 1e308 `check`
    # exited 1 on a nan residual, at 1e300 an inf residual passed its inf
    # limit, each after a RuntimeWarning
    @pytest.mark.parametrize("diagonal", [(1e308, 1e308), (1e300, 2e300)], ids=["1e308", "1e300"])
    @pytest.mark.parametrize("command", ["check weak", "check major", "compute geo"])
    def test_oversized_entries_exit_2(self, command, diagonal, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dim": 2, "re": [[diagonal[0], 0.0], [0.0, diagonal[1]]]}))
        assert_usage_error(*run_cli(capsys, *command.split(), str(big), str(big)))

    # inputs just inside the limit pass; a mean over it is a result the
    # gate's norms cannot check, which used to pass an inf residual against
    # an inf limit, after a RuntimeWarning, and exit 0
    def test_result_over_the_entry_limit_is_a_numerical_failure(self, tmp_path, capsys):
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps({"dim": 2, "re": [[6.7e153, 6e153], [6e153, 6.7e153]]}))
        assert run_cli(capsys, "compute", "geo", str(edge), str(edge))[0] == 0
        for mean in ("heron_kubo", "heron_spectral", "wasserstein"):
            code, out, err = run_cli(capsys, "compute", mean, str(edge), str(edge))
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("numerical failure: matrix entries too large")

    # a finite weight this large overflowed its products before any check:
    # each printed RuntimeWarnings, then wasserstein at b = 1 exited 1 on a
    # nan dual-form distance and the rest exited 2, as if the input held
    # non-finite entries
    @pytest.mark.parametrize("mean, weights", [
        ("wasserstein", "-a 1e160 -b 1"), ("wasserstein", "-a 1e160 -b 0"),
        ("heron_kubo", "-a 1e160 -b 0"), ("heron_kubo", "-c 1.7e308"),
    ], ids=["wasserstein-a1e160-b1", "wasserstein-a1e160-b0", "heron_kubo-a1e160-b0", "heron_kubo-c1.7e308"])
    def test_overflowing_weights_are_a_numerical_failure(self, mean, weights, readme_pair, capsys):
        code, out, err = run_cli(capsys, "compute", mean, *readme_pair, *weights.split())
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: matrix entries too large")

    # the default c = 2ab of these finite weights overflows; it was checked
    # as a weight, so the command exited 4 and blamed a c = inf never given
    @pytest.mark.parametrize("mean", ["heron_kubo", "heron_spectral"])
    @pytest.mark.parametrize("a, b", [("1e200", "1e200"), ("1e154", "1e154")])
    def test_an_overflowing_default_c_is_a_numerical_failure(self, mean, a, b, readme_pair, capsys):
        code, out, err = run_cli(capsys, "compute", mean, *readme_pair, "-a", a, "-b", b)
        assert (code, out) == (1, "")
        assert err == f"numerical failure: {mean}: c = 2ab overflows at a = {float(a)}, b = {float(b)}\n"

    # one pair ran as a stack of one, so with both weights nonzero its
    # errors ended "(stack index (0,))", and with a zero weight they did not
    @pytest.mark.parametrize("mean, weights", [
        ("wasserstein", "-a 1e100 -b 1"), ("wasserstein", "-a 1e160 -b 1"), ("wasserstein", "-a 1 -b 1e100"),
        ("wasserstein", "-a 1e100 -b 0"), ("heron_kubo", "-a 1e160 -b 1"), ("heron_spectral", "-a 1e160 -b 1"),
    ], ids=["wasserstein-a1e100-b1", "wasserstein-a1e160-b1", "wasserstein-a1-b1e100", "wasserstein-a1e100-b0",
            "heron_kubo-a1e160-b1", "heron_spectral-a1e160-b1"])
    def test_one_pair_entry_limit_error_names_no_stack_index(self, mean, weights, readme_pair, capsys):
        code, out, err = run_cli(capsys, "compute", mean, *readme_pair, *weights.split())
        assert (code, out) == (1, "")
        assert err.startswith("numerical failure: matrix entries too large: max|entry| = ")
        assert err.endswith(" must stay below sqrt(largest float) / dim = 4.469e+153\n")

    def test_one_pair_dual_form_error_names_no_stack_index(self, readme_pair, capsys, monkeypatch):
        from matmean import means

        monkeypatch.setattr(means, "WASSERSTEIN_FORM_RTOL", -1.0)  # every distance fails
        code, out, err = run_cli(capsys, "compute", "wasserstein", *readme_pair)
        assert (code, out) == (1, "")
        assert err.startswith("numerical failure: Wasserstein dual formulas disagree: ||diff|| = ")
        assert "stack index" not in err and len(err.splitlines()) == 1

    # int() used to turn each "dim" into the matrix's size, and both
    # commands then exited 0
    @pytest.mark.parametrize("dim, re", [("2.7", "[[2, 0], [0, 3]]"), ("true", "[[2]]"),
                                         ('"2"', "[[2, 0], [0, 3]]")], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("command", ["compute geo", "check weak"])
    def test_non_integer_dim_exit_2(self, command, dim, re, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": %s, "re": %s}' % (dim, re))
        assert_usage_error(*run_cli(capsys, *command.split(), str(bad), str(bad)))

    # root reads files of mode 000, so the denials are simulated
    def test_unreadable_input_exit_2(self, monkeypatch, capsys, certified_pair):
        monkeypatch.setattr(matio, "open", permission_denied, raising=False)
        assert_usage_error(*run_cli(capsys, "compute", "geo", *certified_pair))

    def test_unwritable_output_exit_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "open", permission_denied, raising=False)
        assert_usage_error(*run_cli(capsys, "certify", "--which", "dir2", "--out", str(tmp_path / "c.json")))


class TestSuiteCommand:
    def test_small_deterministic_run(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, _, _ = run_cli(capsys, "suite", "--trials", "3", "--seed", "7",
                              "--dims", "1,2,3", "--out", str(out1))
        code2, _, _ = run_cli(capsys, "suite", "--trials", "3", "--seed", "7",
                              "--dims", "1,2,3", "--out", str(out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pretty_writes_the_report_and_prints_the_summary(self, tmp_path, capsys):
        from matmean.suite import SuiteConfig, run_suite

        out = tmp_path / "report.json"
        code, stdout, stderr = run_cli(capsys, "suite", "--trials", "2", "--pretty", "--out", str(out))
        assert code == 0
        report = run_suite(SuiteConfig(seed=42, trials=2))
        assert out.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"
        assert stdout == ""
        rows = stderr.splitlines()
        assert len(rows) == len(report.checks)
        for row, check in zip(rows, sorted(report.checks, key=lambda r: r.check_name)):
            assert row.split()[:2] == [check.check_name, str(check.instances_run)]
            assert row.endswith("ok")

    def test_trials_zero_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "suite", "--trials", "0")
        assert code == 2

    # nan used to die with a RuntimeError traceback and inf with an
    # OverflowError one
    @pytest.mark.parametrize("flag, value", [("--cond", "nan"), ("--cond", "inf"), ("--cond", "0.5"),
                                             ("--tol", "nan"), ("--tol", "inf"), ("--seed", "-1"),
                                             ("--dims", "")])
    def test_invalid_config_exit_2(self, flag, value, capsys):
        code, _, err = run_cli(capsys, "suite", "--trials", "1", flag, value)
        assert code == 2
        assert err.startswith("error:")

    # the noncommuting draw used to die with a RuntimeError traceback: a
    # cond_max this close to 1 leaves no candidate pair clear of the
    # commutator floor
    @pytest.mark.parametrize("cond", ["1.0", "1.0001", "1.01"])
    def test_cond_too_close_to_one_exit_2(self, cond, capsys):
        code, out, err = run_cli(capsys, "suite", "--trials", "2", "--dims", "2", "--cond", cond)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert f"cond_max = {float(cond)!r}" in err and "dim 2" in err and "200" in err

    def test_negative_env_seed_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MATMEAN_SEED", "-3")
        code, out, err = run_cli(capsys, "suite", "--trials", "1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_non_integer_env_seed_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MATMEAN_SEED", "abc")
        code, out, err = run_cli(capsys, "suite", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: MATMEAN_SEED must be an integer, got 'abc'\n"

    def test_lift_hypothesis_names_the_matrix_that_failed(self, tmp_path, capsys):
        # at tol 1e-16 the margin of lambda(Phi_R(C)) prec_w lambda(C), the
        # lift's hypothesis, fails at rounding level.  It is pinching's weak
        # part, so the run records it and writes its report; it used to
        # abort with exit 4 as a failed in-stage hypothesis
        path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "suite", "--trials", "2", "--tol", "1e-16", "--out", str(path))
        assert (code, err) == (1, "")
        report = json.loads(path.read_text())
        assert report["ok"] is False
        assert "pinching" in [check["name"] for check in report["checks"] if check["failures"]]

    @pytest.mark.parametrize("env_seed, kwargs", [(None, {}), ("99", {"seed": 99})], ids=["bare", "env-seed"])
    def test_defaults_come_from_suite_config(self, env_seed, kwargs, capsys, monkeypatch):
        from matmean import suite

        configs = []
        monkeypatch.setattr(suite, "run_suite", lambda config: configs.append(config) or suite.RunReport(config))
        if env_seed is None:
            monkeypatch.delenv("MATMEAN_SEED", raising=False)
        else:
            monkeypatch.setenv("MATMEAN_SEED", env_seed)
        assert run_cli(capsys, "suite")[0] == 0
        assert configs == [suite.SuiteConfig(**kwargs)]

    def test_not_positive_definite_gate_aborts_exit_3(self, capsys):
        # at cond 1e7 the quadratic lift of one seed-42 trial, gated as
        # positive definite, has lambda_min about 2e-13: the run stops with
        # one line naming the slice, not a traceback
        code, out, err = run_cli(capsys, "suite", "--trials", "120", "--cond", "1e7")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: matrix is not positive definite")
        assert err.endswith("(stack index (1,))\n")

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        monkeypatch.setenv("MATMEAN_SEED", "99")
        code, _, _ = run_cli(capsys, "suite", "--trials", "2", "--dims", "2", "--out", str(out1))
        assert code == 0
        monkeypatch.delenv("MATMEAN_SEED")
        code, _, _ = run_cli(capsys, "suite", "--trials", "2", "--dims", "2",
                             "--seed", "99", "--out", str(out2))
        assert code == 0
        assert json.loads(out1.read_text())["config"]["seed"] == 99
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_wins_over_env_seed(self, tmp_path, capsys, monkeypatch):
        # MATMEAN_SEED is read only when --seed is absent
        out = tmp_path / "r.json"
        monkeypatch.setenv("MATMEAN_SEED", "99")
        code, _, _ = run_cli(capsys, "suite", "--trials", "1", "--dims", "2", "--seed", "5", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["config"]["seed"] == 5


class TestExitCodes:
    # EXIT_CODES is read first match first, so a subclass row must come
    # before its base's
    def test_table_rows_are_ordered_subclass_first(self):
        rows = list(cli.EXIT_CODES)
        for i, early in enumerate(rows):
            assert not any(issubclass(late, early) for late in rows[i + 1:]), early

    def test_every_error_class_has_a_row(self):
        classes = [cls for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__]
        assert len(classes) == 6
        for cls in classes:
            assert any(issubclass(cls, row) for row in cli.EXIT_CODES), cls

    # main prints one line for any error class a command raises and returns
    # its code, the first row's that matches
    @pytest.mark.parametrize("cls, code, label", [
        (errors.MatrixFormatError, 2, "error"), (errors.ConfigError, 2, "error"),
        (errors.InstanceDrawError, 2, "error"), (errors.NotPositiveDefiniteError, 3, "error"),
        (errors.InvalidWeightsError, 4, "error"), (errors.NumericalFailure, 1, "numerical failure"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_main_prints_one_line_and_returns_the_code(self, cls, code, label, capsys, monkeypatch):
        from matmean import exact

        def raises():
            raise cls("boom")

        monkeypatch.setattr(exact, "certify_all", raises)
        assert run_cli(capsys, "certify") == (code, "", f"{label}: boom\n")

    def test_bad_settings_are_config_errors(self, monkeypatch):
        from matmean.suite import SuiteConfig

        assert issubclass(errors.ConfigError, errors.InvalidWeightsError)
        assert issubclass(errors.InstanceDrawError, errors.ConfigError)
        with pytest.raises(errors.ConfigError):
            SuiteConfig(cond_max=0.5)
        parser = cli.build_parser()
        for argv, env_seed in [("--dims x", None), ("--trials 0", None), ("", "abc"), ("", "-3"),
                               ("--dims 2 --cond 1.0001", None)]:
            if env_seed is None:
                monkeypatch.delenv("MATMEAN_SEED", raising=False)
            else:
                monkeypatch.setenv("MATMEAN_SEED", env_seed)
            args = parser.parse_args(["suite", "--trials", "2", *argv.split()])
            with pytest.raises(errors.ConfigError):
                args.func(args)


class TestCertifyCommand:
    def test_direction_one(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--which", "dir1")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["float_shadow"]["ok"] is True

    def test_direction_two(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--which", "dir2")
        assert code == 0
        payload = json.loads(out)
        computed = {item["label"]: item["computed"] for item in payload["items"]}
        assert computed["q = 4 Tr(A D) + 3 Tr(A)"] == "40/1"

    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--which", "all", "--pretty")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True

    def test_mismatch_exit_1_without_float_shadow(self, capsys, monkeypatch):
        from matmean import exact

        monkeypatch.setattr(exact, "_EXPECTED_DET_41_MG", exact._EXPECTED_DET_41_MG + 1)
        code, out, err = run_cli(capsys, "certify", "--which", "dir1")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] is False and "float_shadow" not in payload
        assert err == "certificate mismatch at: det(41 I - (A + B + 2G))\n"

    @pytest.mark.parametrize("which, change, message", [
        ("dir1", lambda replay: {"lambda1_natural": replay["lambda1_sharp"]}, "do not straddle 41"),
        ("dir2", lambda replay: {"trace_sharp": replay["trace_sharp"] * (1.0 + 1e-6)},
         "deviates from the certified 40/sqrt(73)"),
        ("dir2", lambda replay: {"trace_natural": replay["trace_sharp"]}, "floating traces disagree"),
    ], ids=["lambda1-straddle", "trace-value", "trace-order"])
    def test_a_float_replay_that_disagrees_is_a_numerical_failure(self, which, change, message, capsys, monkeypatch):
        # the only way `certify` fails on its float shadow: the exact
        # certificate holds and the float replay of its instances disagrees
        from matmean import exact

        certified_replay = exact.certified_replay

        def replay(one, two):
            values = certified_replay(one, two)
            return {**values, **change(values)}

        monkeypatch.setattr(exact, "certified_replay", replay)
        code, out, err = run_cli(capsys, "certify", "--which", which)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ") and message in err


class TestSuiteNoAbort:
    # Both seeds used to exit 3: the regularized semidefinite pair made
    # A_eps # B_eps fail the strict gate, which now runs on the Heron sum.
    @pytest.mark.parametrize("seed", ["201131797", "1627311806"])
    def test_semidefinite_seed_runs_clean(self, seed, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "suite", "--trials", "8", "--seed", seed, "--out", str(out))
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["semidefinite_limit"]["instances"] == 8


# Run in a fresh interpreter, which prints the matmean modules and
# whether numpy was loaded: this one has imported everything already.
_LOADED = """
import json, sys
if sys.argv[1] == "import":
    import matmean.exact
    rc = 0
else:
    from matmean import cli
    rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "numpy": "numpy" in sys.modules,
                  "modules": [m for m in sys.modules if m.startswith("matmean.")]}))
"""


def _loaded_by(*argv) -> dict:
    src = str(Path(matmean.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


class TestPerCommandImports:
    @pytest.mark.parametrize("command, operands, absent", [
        ("certify --which all", False, {"suite", "schur", "majorization"}),
        ("compute geo", True, {"suite", "schur", "majorization", "exact", "report"}),
        ("check weak", True, {"means", "suite", "exact", "schur", "report"}),
    ], ids=["certify", "compute", "check"])
    def test_command_loads_only_the_modules_it_runs(self, command, operands, absent, certified_pair, tmp_path):
        argv = command.split() + (list(certified_pair) if operands else [])
        loaded = _loaded_by(*argv, "--out", str(tmp_path / "out.json"))
        assert loaded["rc"] == 0
        assert not {f"matmean.{name}" for name in absent} & set(loaded["modules"])

    def test_suite_loads_every_module(self, tmp_path):
        loaded = _loaded_by("suite", "--trials", "1", "--out", str(tmp_path / "out.json"))
        assert loaded["rc"] == 0
        assert {f"matmean.{name}" for name in ("suite", "schur", "majorization", "exact", "report", "means")} \
            <= set(loaded["modules"])

    def test_exact_alone_loads_no_numpy(self):
        loaded = _loaded_by("import")
        assert loaded["numpy"] is False
        assert sorted(loaded["modules"]) == ["matmean.errors", "matmean.exact"]
