"""Run one set of `matmean` commands against two source trees and report
every difference in exit code, stdout, stderr and `--out` bytes.

    python scripts/same_results.py PARENT CHANGE [--quick]

PARENT and CHANGE are checkouts of this repository.  Each command runs as
`python -m matmean.cli ...` in a subprocess whose PYTHONPATH is that
tree's `src/`, in a fresh working directory holding the README's A.json
and B.json, an indefinite I.json and a malformed bad.json.  The 43
commands cover suite reports at seeds 42 and 7 x cond 1e4 and 1e6, at
dims 16-32, at cond 1.2 and with --pretty; both outcomes of the
noncommuting draw, a redraw in every trial (cond 1.1) and no pair
clearing the floor (cond 1.05, exit 2); the cond 1e7, 1e10 and 1e12
aborts; every certificate; `compute` of every mean; `check` of every
relation; an error path for each row of `cli.EXIT_CODES`; and every
`--help`.  Exits 0 when the trees agree on every command, 1 when any
differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    "A.json": '{"dim": 3, "re": [[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]}',
    "B.json": '{"dim": 3, "re": [[1.0, 0.3, 0.1], [0.3, 2.0, 0.0], [0.1, 0.0, 1.2]]}',
    "I.json": '{"dim": 3, "re": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}',
    "bad.json": '{"dim": 2, "re": [[1.0, 0.0]]}',
}
MEANS = ("geo", "geo_t", "spectral", "spectral_t", "wasserstein", "geodesic", "heron_spectral", "heron_kubo",
         "riccati", "product_sqrt")
QUICK = [["suite", "--trials", "3"], ["certify", "--which", "dir1"], ["compute", "geo", "A.json", "B.json"],
         ["check", "weak", "A.json", "B.json"]]


def commands() -> list[list[str]]:
    out = ["--out", "report.json"]
    return [
        *(["suite", "--trials", "200", "--seed", seed, "--cond", cond, *out]
          for seed in ("42", "7") for cond in ("1e4", "1e6")),
        ["suite", "--trials", "3"],
        ["suite", "--trials", "12", "--dims", "16,24,32", *out],
        ["suite", "--trials", "24", "--cond", "1.2", *out],
        # both outcomes of the noncommuting draw: every trial redraws its
        # first candidate; no candidate at dim 2 clears the floor (exit 2)
        ["suite", "--trials", "24", "--cond", "1.1", "--dims", "2,3"],
        ["suite", "--trials", "24", "--cond", "1.05"],
        ["suite", "--trials", "200", "--cond", "1e6", "--pretty", *out],
        *(["suite", "--trials", "120", "--cond", cond] for cond in ("1e7", "1e10", "1e12")),
        *(["certify", "--which", which, *out] for which in ("all", "dir1", "dir2")),
        *(["compute", mean, "A.json", "B.json"] for mean in MEANS),
        *(["check", relation, "A.json", "B.json"] for relation in ("weak", "major", "log")),
        # the error paths: bad weights (4), an overflowing result (1), an
        # operand that is not positive definite (3), bad settings, a
        # malformed or missing file (2), and a tolerance below rounding that
        # fails theorem parts (1, with the report written to stdout)
        ["compute", "wasserstein", "A.json", "B.json", "-a", "nan"],
        ["compute", "wasserstein", "A.json", "B.json", "-a", "1e160", "-b", "1"],
        ["compute", "heron_kubo", "A.json", "B.json", "-c", "1.7e308"],
        ["compute", "heron_kubo", "A.json", "B.json", "-a", "1e200", "-b", "1e200"],
        ["compute", "geo", "I.json", "B.json"],
        ["compute", "geo", "bad.json", "B.json"],
        ["compute", "geo", "missing.json", "B.json"],
        ["suite", "--dims", "x"],
        ["suite", "--trials", "2", "--tol", "1e-16"],
        *([*command, "--help"] for command in ([], ["suite"], ["certify"], ["compute"], ["check"])),
    ]


def run(tree: Path, argv: list[str]) -> dict:
    """The exit code, stdout, stderr and `--out` bytes (None when no file
    was written) of one command on one tree."""
    env = {key: value for key, value in os.environ.items() if key != "MATMEAN_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        for name, text in INPUTS.items():
            Path(work, name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "matmean.cli", *argv], cwd=work, env=env, capture_output=True)
        out = Path(work, argv[argv.index("--out") + 1]) if "--out" in argv else None
        return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "--out": out.read_bytes() if out is not None and out.exists() else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=lambda path: Path(path).resolve())
    parser.add_argument("change", type=lambda path: Path(path).resolve())
    parser.add_argument("--quick", action="store_true", help="a short subset of the commands")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "matmean" / "cli.py").is_file():
            parser.error(f"{tree} has no src/matmean/cli.py")
    todo = QUICK if args.quick else commands()
    differ = 0
    for command in todo:
        parent, change = (run(tree, command) for tree in (args.parent, args.change))
        fields = [field for field in parent if parent[field] != change[field]]
        differ += bool(fields)
        status = f"DIFFERENT in {', '.join(fields)}" if fields else f"same (exit {parent['exit code']})"
        print(f"{' '.join(command)}: {status}")
    print(f"{differ} of {len(todo)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
