"""Command-line surface: compute means, check majorization relations,
run the theorem suite, and emit the exact certificates.

Matrices travel only through JSON files (never inline flags).  Exit codes:
0 success / relation holds, 1 relation fails or certificate mismatch,
2 usage or parse error, 3 non-positive-definite input, 4 invalid weights.
A command returns 0 or 1 and raises for everything else; `EXIT_CODES` is
the one place an exception becomes an exit code, and `main` alone prints
its one stderr line.

Each command imports only the modules it runs, inside its handler:
`certify` loads `exact` (and, for the float shadow, numpy, `linalg`,
`means` and `report`), `compute` loads `linalg`, `means` and `matio`,
`check` loads `linalg`, `majorization` and `matio`, and `suite` loads
everything.  Only `errors` is imported up front, for `EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import ConfigError, InvalidWeightsError, MatrixFormatError, NotPositiveDefiniteError, NumericalFailure

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_NOT_PD = 3
EXIT_BAD_WEIGHTS = 4

# exception class -> exit code; the first match wins, so ConfigError comes
# before its base InvalidWeightsError
EXIT_CODES = {
    ConfigError: EXIT_USAGE,
    MatrixFormatError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    NotPositiveDefiniteError: EXIT_NOT_PD,
    InvalidWeightsError: EXIT_BAD_WEIGHTS,
    NumericalFailure: EXIT_FAILED_CHECK,
}
_HANDLED = tuple(EXIT_CODES)

MEAN_NAMES = (
    "geo", "geo_t", "spectral", "spectral_t", "wasserstein",
    "geodesic", "heron_spectral", "heron_kubo", "riccati", "product_sqrt",
)


def _write_output(payload: dict, path: str | None, pretty: bool) -> None:
    text = json.dumps(payload, indent=2 if pretty else None, sort_keys=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compute(args) -> int:
    import numpy as np

    from . import means
    from .linalg import HermitianMatrix, PDMatrix
    from .matio import load_matrix, matrix_to_dict

    A = PDMatrix(load_matrix(args.A))
    B = PDMatrix(load_matrix(args.B))
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
        W, meta["dual_form_residual"] = means.Pair(A, B).wasserstein(a, b)
        result = HermitianMatrix(W)
    elif name == "geodesic":
        result = means.bw_geodesic(A, B, t)
    elif name in ("heron_spectral", "heron_kubo"):
        result = getattr(means, name)(A, B, a, b, c)
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
    meta["trace"] = result.trace()
    _write_output({"result": matrix_to_dict(result), "meta": meta}, args.out, args.pretty)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .majorization import verdict
    from .matio import load_matrix

    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be finite and non-negative, got {args.tol}")
    X = load_matrix(args.X)
    Y = load_matrix(args.Y)
    result = verdict(args.relation, X.eig().eigenvalues, Y.eig().eigenvalues, args.tol)
    if not math.isfinite(result.tolerance_used):
        raise ConfigError(f"--tol {args.tol} times the scale of Y overflows")
    payload = result.to_dict()
    payload["relation"] = args.relation
    _write_output(payload, args.out, args.pretty)
    return EXIT_OK if result.holds else EXIT_FAILED_CHECK


def _cmd_suite(args) -> int:
    from .suite import SuiteConfig, run_suite

    seed = args.seed
    if seed is None and "MATMEAN_SEED" in os.environ:
        env_seed = os.environ["MATMEAN_SEED"]
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"MATMEAN_SEED must be an integer, got {env_seed!r}") from None
    try:
        dims = None if args.dims is None else tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ConfigError("--dims must be a comma-separated list of integers") from None
    # SuiteConfig alone holds the defaults: it gets only the values given
    given = {"seed": seed, "trials": args.trials, "dims": dims, "cond_max": args.cond, "tol": args.tol}
    report = run_suite(SuiteConfig(**{key: value for key, value in given.items() if value is not None}))
    _write_output(report.to_dict(), args.out, args.pretty)
    if args.pretty:
        report.print_summary(file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILED_CHECK


def _cmd_certify(args) -> int:
    from . import exact

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
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
    p_suite.add_argument("--seed", type=int)
    p_suite.add_argument("--trials", type=int)
    p_suite.add_argument("--dims", help="comma-separated dimensions, default 1..8")
    p_suite.add_argument("--cond", type=float)
    p_suite.add_argument("--tol", type=float)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        label = "numerical failure" if isinstance(exc, NumericalFailure) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
