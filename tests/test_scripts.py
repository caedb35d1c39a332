"""Smoke tests: the shipped scripts run end to end on tiny inputs."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sharpness_sweep_one_instance(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load_script("sharpness_sweep").main(["--instances", "1", "--dim", "3", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    matrix = [float(r["min_margin"]) for r in rows if r["regime"] == "matrix"]
    scalar = [(float(r["c_over_2ab"]), float(r["min_margin"])) for r in rows if r["regime"] == "scalar-failure"]
    assert len(matrix) == 6 and len(scalar) == 4
    assert min(matrix) >= -1e-8
    for frac, margin in scalar:
        assert margin == pytest.approx(2.0 * (frac - 1.0), rel=1e-9)


def test_run_suite_small(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert load_script("run_suite").main(["--trials", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True
    assert "ALL CLEAN" in capsys.readouterr().out
