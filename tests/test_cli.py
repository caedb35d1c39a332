import json

import numpy as np
import pytest

from matmean import cli, matio
from matmean.cli import main
from matmean.linalg import PDMatrix
from matmean.matio import dump_matrix, load_matrix

from conftest import rand_pd


@pytest.fixture
def certified_pair(tmp_path):
    A = np.diag([1.0, 4.0])
    X = np.array([[1.0, 0.5], [0.5, 1.0]])
    B = X @ A @ X
    pa, pb = tmp_path / "A.json", tmp_path / "B.json"
    dump_matrix(A, pa)
    dump_matrix(B, pb)
    return str(pa), str(pb)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_geo_equal_operands_echoes(self, tmp_path, capsys):
        A = rand_pd(3, seed=91)
        p = tmp_path / "A.json"
        dump_matrix(A, p)
        code, out, _ = run_cli(capsys, "compute", "geo", str(p), str(p))
        assert code == 0
        payload = json.loads(out)
        got = np.array(payload["result"]["re"])
        np.testing.assert_allclose(got, A.mat.real, atol=1e-10)

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
        np.testing.assert_allclose(got, [[1.0, 0.5], [0.5, 1.0]], atol=1e-10)

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
        dump_matrix(np.diag([1.0, -1.0]), indefinite)
        code, _, _ = run_cli(capsys, "compute", "geo", str(indefinite), certified_pair[1])
        assert code == 3

    def test_invalid_weights_exit_4(self, certified_pair, capsys):
        code, _, _ = run_cli(capsys, "compute", "geo_t", *certified_pair, "-t", "1.5")
        assert code == 4

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
        M_sharp = A + B + 2.0 * geometric_mean(A, B)
        M_nat = A + B + 2.0 * spectral_mean(A, B)
        px, py = tmp_path / "x.json", tmp_path / "y.json"
        dump_matrix(M_sharp, px)
        dump_matrix(M_nat, py)
        code, out, _ = run_cli(capsys, "check", "weak", str(px), str(py))
        assert code == 1
        payload = json.loads(out)
        assert payload["per_k_margins"][0] < -1e-2

    def test_log_relation_between_means(self, tmp_path, capsys):
        from matmean.means import geometric_mean, spectral_mean

        P, Q = rand_pd(4, seed=92), rand_pd(4, seed=93)
        px, py = tmp_path / "g.json", tmp_path / "n.json"
        dump_matrix(geometric_mean(P, Q), px)
        dump_matrix(spectral_mean(P, Q), py)
        code, _, _ = run_cli(capsys, "check", "log", str(px), str(py))
        assert code == 0

    def test_shape_mismatch_exit_2(self, tmp_path, capsys, certified_pair):
        p3 = tmp_path / "three.json"
        dump_matrix(np.eye(3), p3)
        code, _, _ = run_cli(capsys, "check", "weak", certified_pair[0], str(p3))
        assert code == 2

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

    def test_trials_zero_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "suite", "--trials", "0")
        assert code == 2

    # nan used to die with a RuntimeError traceback and inf with an
    # OverflowError one
    @pytest.mark.parametrize("flag, value", [("--cond", "nan"), ("--cond", "inf"), ("--cond", "0.5"),
                                             ("--tol", "nan"), ("--tol", "inf")])
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
