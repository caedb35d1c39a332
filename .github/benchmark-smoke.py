#!/usr/bin/env python3
"""The benchmark smoke run of CI: every workload of BENCHMARK.json, run by
its command untraced and traced, at seed 42 for 2 seconds each.

Each run must exit 0, and its last line of standard output must be
strict JSON (NaN and Infinity rejected) with `correct` true and exactly
the metric names that BENCHMARK.json declares: its `end_to_end` names
untraced, its `per_layer` names traced.  Exits 1 after all runs if any
failed, printing why and the run's standard error.

    python3 .github/benchmark-smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def check(command: list[str], workload: str, trace: int, expected: set[str]) -> list[str]:
    """The problems of one run, none when it passes."""
    argv = [*command, "--workload", workload, "--seed", "42", "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        return [f"exit {proc.returncode}", proc.stderr]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except (IndexError, ValueError) as exc:
        return [f"last line is not a strict JSON result: {exc}", proc.stderr]
    problems = [] if result.get("correct") is True else [f"correct is {result.get('correct')!r}"]
    names = set(result.get("metrics", ()))
    if names != expected:
        problems.append(f"metric names differ from BENCHMARK.json: missing {sorted(expected - names)}, "
                        f"extra {sorted(names - expected)}")
    return problems + [proc.stderr] if problems else []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check(bench["command"], workload, trace, expected[trace])
            print(f"{'FAIL' if problems else 'ok'}: {workload} --trace {trace}, "
                  f"{len(expected[trace])} metrics expected")
            for problem in problems:
                print(f"  {problem.rstrip()}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
