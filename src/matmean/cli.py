"""Command-line surface: compute means, check majorization relations,
run the theorem suite, and emit the exact certificates.

Matrices travel only through JSON files (never inline flags).  Exit codes:
0 success / relation holds, 1 relation fails or certificate mismatch,
2 usage or parse error, 3 non-positive-definite input, 4 invalid weights.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (
    InstanceDrawError,
    InvalidWeightsError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalFailure,
)
from . import exact, means
from .linalg import HermitianMatrix, PDMatrix
from .majorization import log_majorization, majorization, spectrum, weak_majorization
from .matio import hermitian_from_dict, matrix_to_dict
from .suite import SuiteConfig, run_suite

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_NOT_PD = 3
EXIT_BAD_WEIGHTS = 4

MEAN_NAMES = (
    "geo", "geo_t", "spectral", "spectral_t", "wasserstein",
    "geodesic", "heron_spectral", "heron_kubo", "riccati", "product_sqrt",
)


def _load_matrix_arg(path: str):
    """Load a matrix file, accepting either the bare matrix JSON or the
    envelope written by `compute` (its "result" field)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict) and "result" in data and "dim" not in data:
        data = data["result"]
    return data


def _write_output(payload: dict, path: str | None, pretty: bool) -> None:
    text = json.dumps(payload, indent=2 if pretty else None, sort_keys=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compute(args) -> int:
    A = PDMatrix(hermitian_from_dict(_load_matrix_arg(args.A)))
    B = PDMatrix(hermitian_from_dict(_load_matrix_arg(args.B)))
    a, b, c, t = args.a, args.b, args.c, args.t
    meta: dict = {"mean": args.mean, "a": a, "b": b, "c": c, "t": t}
    name = args.mean
    if name == "geo":
        result = means.geometric_mean(A, B)
    elif name == "geo_t":
        result = means.geometric_mean_weighted(A, B, t)
    elif name == "spectral":
        result = means.spectral_mean(A, B)
    elif name == "spectral_t":
        result = means.spectral_mean_weighted(A, B, t)
    elif name == "wasserstein":
        pair = means.Pair(A, B)
        result = HermitianMatrix(pair.wasserstein(a, b))
        meta["dual_form_residual"] = pair.wasserstein_residual(a, b)
    elif name == "geodesic":
        result = means.bw_geodesic(A, B, t)
    elif name == "heron_spectral":
        c_eff = 2.0 * a * b if c is None else c
        result = means.heron_spectral(A, B, means.MeanWeights(a, b, c_eff))
        meta["c"] = c_eff
    elif name == "heron_kubo":
        result = means.heron_kubo(A, B, a, b, c)
        meta["c"] = 2.0 * a * b if c is None else c
    elif name == "riccati":
        result = means.riccati_mean(A, B)
        X = result.mat
        meta["riccati_residual"] = float(np.linalg.norm(X @ A.mat @ X - B.mat))
    elif name == "product_sqrt":
        left, right = means.product_sqrt_pair(A, B)
        payload = {
            "results": {"AB_sqrt": matrix_to_dict(left), "BA_sqrt": matrix_to_dict(right)},
            "meta": meta,
        }
        _write_output(payload, args.out, args.pretty)
        return EXIT_OK
    else:  # pragma: no cover - argparse already restricts choices
        raise InvalidWeightsError(f"unknown mean {name!r}")
    meta["trace"] = result.trace()
    _write_output({"result": matrix_to_dict(result), "meta": meta}, args.out, args.pretty)
    return EXIT_OK


def _cmd_check(args) -> int:
    X = hermitian_from_dict(_load_matrix_arg(args.X))
    Y = hermitian_from_dict(_load_matrix_arg(args.Y))
    sx, sy = spectrum(X), spectrum(Y)
    if args.relation == "weak":
        verdict = weak_majorization(sx, sy, args.tol)
    elif args.relation == "major":
        verdict = majorization(sx, sy, args.tol)
    else:
        verdict = log_majorization(sx, sy, args.tol)
    payload = verdict.to_dict()
    payload["relation"] = args.relation
    _write_output(payload, args.out, args.pretty)
    return EXIT_OK if verdict.holds else EXIT_FAILED_CHECK


def _cmd_suite(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(",")) if args.dims else (1, 2, 3, 4, 5, 6, 7, 8)
    except ValueError:
        print("error: --dims must be a comma-separated list of integers", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = SuiteConfig(seed=args.seed, trials=args.trials, dims=dims,
                             cond_max=args.cond, tol=args.tol)
    except InvalidWeightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_suite(config)
    except InstanceDrawError as exc:  # a cond_max too close to 1 for a dimension
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(report.to_dict(), args.out, args.pretty)
    if args.pretty:
        report.print_summary(file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILED_CHECK


def _cmd_certify(args) -> int:
    if args.which == "dir1":
        report = exact.certify_direction_one()
    elif args.which == "dir2":
        report = exact.certify_direction_two()
    else:
        report = exact.certify_all()
    payload = report.to_dict()
    if report.verdict:
        shadow = exact.float_shadow(report)
        payload["float_shadow"] = shadow.to_dict()
        payload["float_shadow"]["ok"] = shadow.ok
    _write_output(payload, args.out, args.pretty)
    if not report.verdict:
        print(f"certificate mismatch at: {', '.join(report.mismatches())}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matmean",
        description="Matrix-mean majorization checks and exact incomparability certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate a mean or Heron/Wasserstein expression")
    p_compute.add_argument("mean", choices=MEAN_NAMES)
    p_compute.add_argument("A", help="path to the first matrix (JSON)")
    p_compute.add_argument("B", help="path to the second matrix (JSON)")
    p_compute.add_argument("-a", type=float, default=1.0)
    p_compute.add_argument("-b", type=float, default=1.0)
    p_compute.add_argument("-c", type=float, default=None)
    p_compute.add_argument("-t", type=float, default=0.5)
    p_compute.add_argument("--out", default=None)
    p_compute.add_argument("--pretty", action="store_true")
    p_compute.set_defaults(func=_cmd_compute)

    p_check = sub.add_parser("check", help="compare the spectra of two Hermitian matrices")
    p_check.add_argument("relation", choices=("weak", "major", "log"))
    p_check.add_argument("X", help="path to the dominated-side matrix (JSON)")
    p_check.add_argument("Y", help="path to the dominating-side matrix (JSON)")
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--pretty", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_suite = sub.add_parser("suite", help="run the randomized theorem suite")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--trials", type=int, default=1000)
    p_suite.add_argument("--dims", default=None, help="comma-separated dimensions, default 1..8")
    p_suite.add_argument("--cond", type=float, default=1e4)
    p_suite.add_argument("--tol", type=float, default=1e-8)
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--pretty", action="store_true")
    p_suite.set_defaults(func=_cmd_suite)

    p_cert = sub.add_parser("certify", help="run the exact rational certificates")
    p_cert.add_argument("--which", choices=("dir1", "dir2", "all"), default="all")
    p_cert.add_argument("--out", default=None)
    p_cert.add_argument("--pretty", action="store_true")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "suite" and args.seed is None:
        env_seed = os.environ.get("MATMEAN_SEED")
        try:
            args.seed = int(env_seed) if env_seed is not None else 42
        except ValueError:
            print(f"error: MATMEAN_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (MatrixFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except InvalidWeightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_WEIGHTS
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
