"""The four benchmark workloads: job inputs, the timed call, and the
verification of each job's output.

A job is one in-process `matmean.cli.main` call (the suite workloads), or
one `certify --which all` call plus one batch of rational matrices through
`exact.sylvester_pd` (exact-certify).  Every job gets its own inputs,
derived from the workload seed; the program only sees the generated
`--seed` values and matrices.  Verification runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from matmean import cli, exact

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# The seed whose per-job results are stored under reference/, and the
# held-out seed used to confirm a claim on inputs not seen while tuning.
DEFAULT_SEED = 42
CONFIRM_SEED = 7
# Job seeds are drawn from this many bits.
JOB_SEED_BITS = 31
# Jobs of the default seed whose results are stored in the reference.
REFERENCE_JOBS = 64

SUITE_DIMS_SMALL = "1,2,3,4,5,6,7,8"
SUITE_TOL = 1e-8
# A failing record below -FALSE_FAILURE_FLOOR is a theorem violation, not
# rounding, and marks the output wrong.  Rounding at cond 1e6 produces
# failing margins down to about -2e-7.
FALSE_FAILURE_FLOOR = 1e-5
# The suite's randomized grids (SuiteConfig defaults), needed to predict the
# per-checker record counts of a job.
C_FRACTIONS = 3
T_GRID = 9


@dataclass
class JobResult:
    """What verification concluded about one job."""

    items: int                # items the job attempted
    verified_items: int       # items whose output verified
    records: int = 0          # checker records or exact verdicts attempted
    failed_records: int = 0   # failing records, or all records of an aborted job
    aborted: bool = False
    problems: list[str] = field(default_factory=list)


def job_seeds(seed: int):
    """Endless stream of per-job seeds for one workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(JOB_SEED_BITS)


# ---------------------------------------------------------------------------
# suite workloads
# ---------------------------------------------------------------------------

def expected_instances(trials: int, dims: tuple[int, ...]) -> dict[str, int]:
    """Records each checker makes in one `matmean suite` run: the fixed
    instances plus the per-trial grid of the randomized stream."""
    multi = sum(1 for i in range(trials) if dims[i % len(dims)] > 1)
    return {
        "incomparability_float": 2,
        "sharpness_scalar": 4,
        "spreading": 1 + trials,
        "kubo_heron": 1 + C_FRACTIONS * trials,
        "log_majorization_means": 1 + trials,
        "bly": 1 + trials,
        "spectral_heron": C_FRACTIONS * trials,
        "weighted_corollary": T_GRID * C_FRACTIONS * trials,
        "endpoints": trials,
        "equality_iff_commuting": trials + multi,
        "pinching": trials,
        "quadratic_lifting": 2 * trials,
        "semidefinite_limit": trials,
    }


class SuiteWorkload:
    def __init__(self, name: str, dims: str, cond: float, trials: int, margin_atol: float):
        self.name = name
        self.dims_arg = dims
        self.dims = tuple(int(d) for d in dims.split(","))
        self.cond = cond
        self.trials = trials
        self.items_per_job = trials
        # Seconds one job takes at the parent commit; sizes the traced run's
        # fixed job list, which must not depend on a measurement.
        self.est_job_s = 0.25
        # Reference min margins must agree within margin_atol.
        self.margin_atol = margin_atol
        self.expected = expected_instances(trials, self.dims)
        self._reference = None

    def argv(self, job_seed: int, out: Path, trials: int | None = None) -> list[str]:
        return ["suite", "--seed", str(job_seed), "--trials", str(trials or self.trials),
                "--dims", self.dims_arg, "--cond", repr(self.cond), "--tol", repr(SUITE_TOL),
                "--out", str(out)]

    def make_job(self, job_seed: int):
        """A suite job is its `--seed`."""
        return job_seed

    def run(self, job_seed: int, out: Path) -> int:
        """The timed call."""
        return cli.main(self.argv(job_seed, out))

    @property
    def reference(self) -> dict:
        if self._reference is None:
            path = REFERENCE_DIR / f"{self.name}.json"
            self._reference = json.loads(path.read_text())
        return self._reference

    def summarize(self, out: Path) -> dict:
        """Per-checker instance count, min margin and failure count of a
        job's report file."""
        report = json.loads(out.read_text())
        return {
            "ok": report["ok"],
            "checks": {
                check["name"]: {
                    "instances": check["instances"],
                    "min_margin": check["min_margin"],
                    "failures": [f["worst_margin"] for f in check["failures"]],
                }
                for check in report["checks"]
            },
        }

    def verify(self, job_seed: int, rc, error: str | None, out: Path) -> JobResult:
        records = sum(self.expected.values())
        result = JobResult(items=self.trials, verified_items=0, records=records)
        if error is not None or rc not in (0, 1) or not out.exists():
            # run_suite raised, or cli.main mapped an abort onto an exit
            # code without writing the report
            result.aborted = True
            result.failed_records = records
            return result
        summary = self.summarize(out)
        checks = summary["checks"]
        counts = {name: c["instances"] for name, c in checks.items()}
        if counts != self.expected:
            result.problems.append(f"per-checker instance counts {counts} != {self.expected}")
        if summary["ok"] != (rc == 0) or summary["ok"] != all(not c["failures"] for c in checks.values()):
            result.problems.append(f"exit code {rc} disagrees with report ok={summary['ok']}")
        for name, check in checks.items():
            for margin in check["failures"]:
                if margin < -FALSE_FAILURE_FLOOR:
                    result.problems.append(f"{name}: failing margin {margin:.3e} is beyond rounding")
        result.failed_records = sum(len(c["failures"]) for c in checks.values())
        ref = self.reference["jobs"].get(str(job_seed))
        if ref is not None:
            for name, margin in ref.items():
                seen = checks.get(name, {}).get("min_margin")
                if seen is None or abs(seen - margin) > self.margin_atol:
                    result.problems.append(f"{name}: min margin {seen!r} != reference {margin!r}")
        if not result.problems:
            result.verified_items = self.trials
        return result

    def check_warmup(self, job) -> list[str]:
        """The warm-up job's margins are checked by `verify`."""
        return []

    def setup_argv(self, out: Path) -> list[str]:
        """The minimal call timed by set-up: a one-trial suite."""
        return self.argv(DEFAULT_SEED, out, trials=1)


# ---------------------------------------------------------------------------
# exact-certify
# ---------------------------------------------------------------------------

RATIONAL_DIMS = (3, 4, 5, 6, 7, 8)
RATIONAL_MAX_NUM = 50
RATIONAL_MAX_DEN = 12
# Off-diagonal numerators of the diagonally dominant half of the stream;
# seven of them sum to at most 49, below the largest diagonal entry 50.
DOMINANT_MAX_OFFDIAG = 7


def rational_matrix_rows(rng: random.Random, n: int, kind: str) -> list[list[Fraction]]:
    """Symmetric n x n matrix with entries p/q, |p| <= 50, 1 <= q <= 12.

    "dominant" ones have positive, strictly dominant diagonals and so are
    positive definite; "random" ones are mostly indefinite; "zero-corner"
    ones are random with a zero (1,1) entry, so Bareiss must swap rows.
    """
    dominant = kind == "dominant"
    bound = DOMINANT_MAX_OFFDIAG if dominant else RATIONAL_MAX_NUM
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(-bound, bound), rng.randint(1, RATIONAL_MAX_DEN))
            rows[i][j] = rows[j][i] = x
    if dominant:
        for i in range(n):
            off = sum(abs(rows[i][j]) for j in range(n) if j != i)
            rows[i][i] = Fraction(rng.randint(math.floor(off) + 1, RATIONAL_MAX_NUM))
    if kind == "zero-corner":
        rows[0][0] = Fraction(0)
    return rows


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination with row swaps over Fractions;
    deliberately independent of the Bareiss code under test."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for r in range(k + 1, n):
            factor = a[r][k] / pivot
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    return det


def fraction_minors(rows) -> tuple[Fraction, ...]:
    return tuple(fraction_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1))


def fraction_is_pd(rows) -> bool:
    """Sylvester's criterion by elimination without pivoting: the leading
    minors are all positive exactly when every pivot is."""
    a = [list(row) for row in rows]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for r in range(k + 1, n):
            factor = a[r][k] / pivot
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    return True


def _mat(rm) -> list[list[Fraction]]:
    return [list(row) for row in rm.entries]


def _mul(M, N):
    return [[sum((M[i][k] * N[k][j] for k in range(len(N))), Fraction(0)) for j in range(len(N[0]))]
            for i in range(len(M))]


def _lin(*terms):
    """sum of c * M over (c, M) pairs."""
    n = len(terms[0][1])
    return [[sum((c * M[i][j] for c, M in terms), Fraction(0)) for j in range(n)] for i in range(n)]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def independent_certificate_values() -> dict[str, Fraction]:
    """The determinants and minors the certificate reports, recomputed with
    this file's own Fraction arithmetic from the certified instances."""
    d1 = exact.direction_one_data()
    A, R, B, G = (_mat(d1[k]) for k in ("A", "R", "B", "G"))
    A_inv = [[(1 / A[i][j]) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    K = _lin((1, B), (-1, _mul(_mul(G, A_inv), G)))
    shifted_G = _lin((41, _identity(3)), (-1, A), (-1, B), (-2, G))
    shifted_nat = _lin((41, _identity(3)), (-1, A), (-1, B), (-2, _mul(_mul(R, A), R)))
    values = {}
    for label, M in (("the square-root factor R", R),
                     ("the Schur complement K = B - G A^{-1} G", K),
                     ("41 I - (A + B + 2 R A R)", shifted_nat)):
        for k, minor in enumerate(fraction_minors(M), start=1):
            values[f"leading principal minor {k} of {label}"] = minor
    values["det(41 I - (A + B + 2G))"] = fraction_det(shifted_G)
    d2 = exact.direction_two_data()
    B2 = _mat(d2["B"])
    A_inv_half = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    values["det D"] = fraction_det(_mul(_mul(A_inv_half, B2), A_inv_half))
    return values


def _parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


class ExactWorkload:
    name = "exact-certify"
    batch = 24
    items_per_job = batch
    est_job_s = 0.03

    def __init__(self):
        self._reference = None

    @property
    def reference(self) -> dict:
        if self._reference is None:
            self._reference = json.loads((REFERENCE_DIR / "certificate.json").read_text())
        return self._reference

    def make_job(self, job_seed: int):
        """A batch of rational matrices, built outside the timed region,
        with the verdicts this file expects for them: strictly diagonally
        dominant ones are positive definite (Gershgorin), the others are
        decided by `fraction_is_pd`."""
        rng = random.Random(job_seed)
        matrices, expected = [], []
        for k in range(self.batch):
            kind = ("zero-corner", "dominant", "random", "dominant")[k % 4]
            rows = rational_matrix_rows(rng, RATIONAL_DIMS[(k // 4) % len(RATIONAL_DIMS)], kind)
            matrices.append(exact.RationalMatrix(tuple(map(tuple, rows))))
            expected.append(kind == "dominant" or fraction_is_pd(rows))
        return matrices, expected

    def run(self, job, out: Path):
        """The timed call: the certificates through the CLI, then the batch
        through Sylvester's criterion."""
        matrices, _ = job
        rc = cli.main(["certify", "--which", "all", "--out", str(out)])
        return rc, [exact.sylvester_pd(M) for M in matrices]

    def check_warmup(self, job) -> list[str]:
        """Checks made once per run, on the untimed warm-up job.

        Each determinant and minor in the stored certificate, and each
        leading minor of the warm-up batch, must equal this file's
        independent computation.  (Sylvester verdicts cannot show a wrong
        minor once another minor is non-positive, so the minors are checked
        here.)"""
        problems = []
        for M in job[0]:
            if exact.leading_principal_minors(M) != fraction_minors(M.entries):
                problems.append(f"leading minors of {M.dim}x{M.dim} batch matrix differ from the independent ones")
        values = independent_certificate_values()
        items = {item["label"]: item for item in self.reference["items"]}
        for label, value in values.items():
            item = items.get(label)
            if item is None or _parse_fraction(item["computed"]) != value:
                problems.append(f"reference certificate item {label!r} != independent value {value}")
        return problems

    def verify(self, job, outcome, error: str | None, out: Path) -> JobResult:
        matrices, expected = job
        n_items = len(self.reference["items"])
        result = JobResult(items=len(matrices), verified_items=0, records=n_items + len(matrices))
        if error is not None or outcome[0] not in (0, 1) or not out.exists():
            result.aborted = True
            result.failed_records = result.records
            return result
        rc, verdicts = outcome
        payload = json.loads(out.read_text())
        shadow = payload.pop("float_shadow", None)
        if rc != 0:
            result.problems.append(f"certify exited with {rc}")
        cert_mismatch = sum(1 for got, ref in zip(payload.get("items", []), self.reference["items"])
                            if got != ref)
        cert_mismatch += abs(len(payload.get("items", [])) - n_items)
        if payload != self.reference:
            result.problems.append("certificate JSON differs from the reference")
        if shadow is None or shadow.get("ok") is not True:
            result.problems.append(f"float shadow not ok: {shadow!r}")
        verdict_mismatch = sum(1 for got, want in zip(verdicts, expected) if got is not want)
        if verdict_mismatch:
            result.problems.append(f"{verdict_mismatch} Sylvester verdicts differ from the independent check")
        result.failed_records = cert_mismatch + verdict_mismatch
        if not result.problems:
            result.verified_items = len(matrices)
        return result

    def setup_argv(self, out: Path) -> list[str]:
        """The minimal call timed by set-up: one certificate run."""
        return ["certify", "--which", "all", "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance configuration: Python object overhead dominates.
        SuiteWorkload("suite-small", SUITE_DIMS_SMALL, 1e4, trials=8, margin_atol=1e-9),
        # LAPACK takes about half the time at these sizes.
        SuiteWorkload("suite-large", "16,24,32", 1e4, trials=3, margin_atol=1e-9),
        # The only workload with (false) failures: rounding at cond 1e6
        # moves margins by up to ~2e-7, so the reference is held to 1e-6.
        SuiteWorkload("suite-illcond", SUITE_DIMS_SMALL, 1e6, trials=8, margin_atol=1e-6),
        ExactWorkload(),
    )
}
