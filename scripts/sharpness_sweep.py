#!/usr/bin/env python3
"""Watch the weak-majorization slack degenerate as the cross coefficient
climbs toward its sharp value 2ab, and fail immediately past it.

Writes a CSV with one row per (instance, c/2ab) pair: below 1.0 the
matrix margins shrink toward the endpoint trace equality; above 1.0 the
scalar comparison margin is exactly c - 2ab.
"""

import argparse
import csv
import sys


from matmean.linalg import random_pd
from matmean.means import Pair
from matmean.suite import check_sharpness_scalar, check_spectral_heron


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=8)
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = parser.parse_args(argv)

    fractions = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0]
    over = [1.0005, 1.005, 1.05, 1.5]
    a = b = 1.0

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(sink)
    writer.writerow(["instance", "c_over_2ab", "regime", "min_margin"])
    for i in range(args.instances):
        pair = Pair(random_pd(args.dim, 1e4, seed=2 * i), random_pd(args.dim, 1e4, seed=2 * i + 1))
        for frac in fractions:
            report = check_spectral_heron(pair, a, b, frac * 2 * a * b, 1e-8)
            writer.writerow([i, frac, "matrix", f"{report.min_margin_seen:.6e}"])
        for frac in over:
            report = check_sharpness_scalar(a, b, frac * 2 * a * b)
            writer.writerow([i, frac, "scalar-failure", f"{report.min_margin_seen:.6e}"])
    if sink is not sys.stdout:
        sink.close()
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
