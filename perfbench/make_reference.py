#!/usr/bin/env python3
"""Regenerate the stored results the benchmark verifies against:

    python3 perfbench/make_reference.py

Writes reference/<suite workload>.json (per-checker min margins of the
default seed's first jobs) and reference/certificate.json (the certify
output without its float shadow).  Run it only when a change is meant to
alter these results, and say so with the change.
"""

import json
import sys
from itertools import islice

import run


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    workloads = run.load_program()
    out = run.OUT_DIR / "reference-job.json"
    for workload in workloads.WORKLOADS.values():
        if isinstance(workload, workloads.SuiteWorkload):
            jobs = {}
            for job_seed in islice(workloads.job_seeds(workloads.DEFAULT_SEED), workloads.REFERENCE_JOBS):
                _, rc, error = run.timed_job(workload, job_seed, out)
                if error is not None or rc not in (0, 1):
                    print(f"{workload.name}: job {job_seed} aborted: {error or rc}", file=sys.stderr)
                    return 1
                checks = workload.summarize(out)["checks"]
                jobs[str(job_seed)] = {name: c["min_margin"] for name, c in sorted(checks.items())}
            payload = {"workload": workload.name, "seed": workloads.DEFAULT_SEED, "jobs": jobs}
        else:
            rc = run.timed_job(workload, ([], []), out)[1]
            if rc != (0, []):
                print(f"certify exited with {rc}", file=sys.stderr)
                return 1
            payload = json.loads(out.read_text())
            del payload["float_shadow"]
        name = workload.name if isinstance(workload, workloads.SuiteWorkload) else "certificate"
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    exact = workloads.WORKLOADS["exact-certify"]
    problems = exact.check_warmup(exact.make_job(next(workloads.job_seeds(workloads.DEFAULT_SEED))))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
