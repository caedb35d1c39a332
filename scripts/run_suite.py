#!/usr/bin/env python3
"""Run the full theorem suite with the default acceptance configuration
and write the report next to this script (or to --out)."""

import argparse
import json
import sys
import time
from pathlib import Path

from matmean.suite import SuiteConfig, run_suite


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--cond", type=float, default=1e4)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--out", default="suite_report.json")
    args = parser.parse_args(argv)

    config = SuiteConfig(seed=args.seed, trials=args.trials, cond_max=args.cond, tol=args.tol)
    t0 = time.perf_counter()
    report = run_suite(config)
    elapsed = time.perf_counter() - t0

    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    report.print_summary()
    print(f"\n{'ALL CLEAN' if report.ok else 'FAILURES PRESENT'} in {elapsed:.1f}s "
          f"-> {args.out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
