"""Smoke tests: the shipped scripts run end to end on tiny inputs."""

import csv
import importlib.util
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



def test_same_results_compares_trees(tmp_path, capsys):
    # a tree against itself agrees on every command; a stub tree whose CLI
    # prints nothing and exits 0 differs on every one
    same_results = load_script("same_results")
    root = str(SCRIPTS.parent)
    assert same_results.main([root, root, "--quick"]) == 0
    assert capsys.readouterr().out.endswith(f"0 of {len(same_results.QUICK)} commands differ\n")
    stub = tmp_path / "src" / "matmean"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("")
    assert same_results.main([root, str(tmp_path), "--quick"]) == 1
    out = capsys.readouterr().out
    assert out.count("DIFFERENT") == len(same_results.QUICK)
