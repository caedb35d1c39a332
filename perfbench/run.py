#!/usr/bin/env python3
"""matmean benchmark: end-to-end metrics per workload, or a traced run
with per-module metrics.

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A closed loop with one client: one process, one thread of work, and the
next job starts only when the previous one has finished.  Every job's
output is verified outside the timed region.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it print every metric with its unit and the run record
(machine, software, seed, job and sample counts).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("suite-small", "suite-large", "suite-illcond", "exact-certify")
# BLAS threads; small matrices gain nothing from more, and one thread keeps
# the closed loop single-threaded.  Never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900

# The metrics of the result line.  items_per_s, job_s_p50 and failed_ratio
# are printed and recorded but not gated: see README.md.
END_TO_END_UNITS = {"job_s_p90": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Cap BLAS threads, then import the program from the checkout's src/."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports numpy and matmean)
    return workloads


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "matmean").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_record(workloads, args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "confirm_seed": workloads.CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loop": "closed, one client, one thread of work",
    }


class SetupProbes:
    """Cold set-ups in fresh interpreters, spread evenly over the timed
    loop so that they meet the same machine states as the jobs."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.problems: list[str] = []

    def due(self, tally) -> None:
        """Run the probes whose point in the timed loop has passed."""
        while len(self.times) + len(self.problems) < SETUP_REPEATS and \
                sum(tally.times) >= (len(self.times) + len(self.problems)) * self.every:
            self.probe()

    def finish(self) -> None:
        while len(self.times) + len(self.problems) < SETUP_REPEATS:
            self.probe()

    def probe(self) -> None:
        out = OUT_DIR / "setup.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *self.workload.setup_argv(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.problems.append(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return
        if probe["rc"] != 0 or proc.returncode != 0:
            self.problems.append(f"set-up call exited with {probe['rc']}")
            return
        self.times.append(probe["setup_s"])


def timed_job(workload, job, out: Path):
    """Run one job; returns (seconds, outcome, error)."""
    if out.exists():
        out.unlink()
    start = time.perf_counter()
    try:
        outcome, error = workload.run(job, out), None
    except Exception as exc:  # an aborted job is counted as failed and the run goes on
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, error


class Tally:
    """Job times and verification results of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.results = []

    def add(self, seconds, result):
        self.times.append(seconds)
        self.results.append(result)

    def total(self, key: str) -> int:
        return sum(getattr(r, key) for r in self.results)

    @property
    def problems(self) -> list[str]:
        return [p for r in self.results for p in r.problems]

    @property
    def failed_ratio(self) -> float:
        return self.total("failed_records") / self.total("records")


def run_pass(workload, jobs, out: Path, seconds: float | None = None, between=None) -> Tally:
    """Run jobs in a closed loop: all of them, or until their timed
    seconds reach `seconds`.  `between(tally)` runs before each job."""
    tally = Tally()
    for job in jobs:
        if between is not None:
            between(tally)
        dt, outcome, error = timed_job(workload, job, out)
        tally.add(dt, workload.verify(job, outcome, error, out))
        if seconds is not None and sum(tally.times) >= seconds:
            break
    return tally


def seeded_jobs(workloads, workload, seed: int):
    return (workload.make_job(job_seed) for job_seed in workloads.job_seeds(seed))


def reference_checks(workloads, workload, out: Path) -> list[str]:
    """Untimed warm-up: the default seed's first job, held to the stored
    reference in every run."""
    job = next(seeded_jobs(workloads, workload, workloads.DEFAULT_SEED))
    warm = run_pass(workload, [job], out)
    aborted = ["warm-up job aborted" for r in warm.results if r.aborted]
    return workload.check_warmup(job) + warm.problems + aborted


def end_to_end(workloads, workload, args, record):
    out = OUT_DIR / f"job-{workload.name}.json"
    problems = reference_checks(workloads, workload, out)
    setup = SetupProbes(workload, args.seconds)
    tally = run_pass(workload, seeded_jobs(workloads, workload, args.seed), out,
                     seconds=args.seconds, between=setup.due)
    setup.finish()
    if not setup.times:
        raise RuntimeError(f"no set-up probe finished: {setup.problems}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += tally.problems + setup.problems
    metrics = {
        "job_s_p90": percentile_90(tally.times),
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "items_per_s": (tally.total("verified_items") / sum(tally.times), "1/s"),
        "job_s_p50": (statistics.median(tally.times), "s"),
        "failed_ratio": (tally.failed_ratio, "ratio"),
    }
    record.update({
        "jobs": len(tally.times),
        "job_time_samples": len(tally.times),
        "setup_samples": len(setup.times),
        "items": tally.total("items"),
        "verified_items": tally.total("verified_items"),
        "aborted_jobs": sum(r.aborted for r in tally.results),
        "records": tally.total("records"),
        "failed_records": tally.total("failed_records"),
        "timed_s": sum(tally.times),
        **{name: value for name, (value, _) in extra.items()},
    })
    result = {
        "correct": not problems,
        "attempted": tally.total("items"),
        "failed": tally.total("items") - tally.total("verified_items"),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return result, extra, problems


def traced(workloads, workload, args, record):
    import tracing

    out = OUT_DIR / f"job-{workload.name}.json"
    n_jobs = max(2, round(args.seconds / 4 / workload.est_job_s))
    jobs = list(islice(seeded_jobs(workloads, workload, args.seed), n_jobs))
    items = n_jobs * workload.items_per_job
    problems = reference_checks(workloads, workload, out)
    untraced = run_pass(workload, jobs, out)
    tallies = [untraced]
    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    try:
        for k in range(2):
            tracer.reset()
            before = tracing.cache_counts()
            tally = run_pass(workload, jobs, out)
            after = tracing.cache_counts()
            tallies.append(tally)
            delta = {name: None if after[name] is None else
                     (after[name][0] - before[name][0], after[name][1] - before[name][1])
                     for name in after}
            metrics, absent = tracing.layer_metrics(tracer.spans, items, n_jobs,
                                                    tracer.failures, tracer.near_misses, delta)
            passes.append((sum(tally.times), metrics))
            if k == 0:
                tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv")
                record["spans"] = len(tracer.spans)
    finally:
        tracer.uninstall()
    (t1, m1), (t2, m2) = passes
    unequal = [k for k in m1 if tracing.is_count(k) and m1[k] != m2[k]]
    if unequal:
        problems.append(f"counts differ between two traced passes at one seed: {unequal}")
    metrics = {k: m1[k] if tracing.is_count(k) else (m1[k] + m2[k]) / 2 for k in m1}
    metrics["trace.overhead_ratio"] = ((t1 + t2) / 2) / sum(untraced.times)
    record.update({
        "jobs": n_jobs,
        "items": items,
        "traced_passes": 2,
        "untraced_s": sum(untraced.times),
        "traced_s": [t1, t2],
        "absent": sorted(set(absent) | set(tracer.missing)),
        "failed_ratio": untraced.failed_ratio,
    })
    problems += [p for tally in tallies for p in tally.problems]
    attempted = sum(tally.total("items") for tally in tallies)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(tally.total("verified_items") for tally in tallies),
        "metrics": {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()},
    }
    return result, {}, problems


def print_metrics(metrics: dict, extra: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:48s} {value:14.6g} {unit}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matmean" / "__init__.py").is_file():
        print(f"error: no matmean sources at {SRC / 'matmean'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    workloads = load_program()
    workload = workloads.WORKLOADS[args.workload]
    record = run_record(workloads, args)
    measure = traced if args.trace else end_to_end
    result, extra, problems = measure(workloads, workload, args, record)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"matmean benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, {record['jobs']} jobs")
    print_metrics(result["metrics"], extra)
    print("record " + json.dumps(record))
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
