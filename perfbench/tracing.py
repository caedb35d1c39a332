"""Span tracing around the public functions of each matmean module.

The tracer wraps a function and rebinds the wrapper in every matmean
module namespace that bound the original (``from .means import
geometric_mean`` in suite.py and schur.py makes a second binding, so
patching ``matmean.means`` alone would miss their calls).  Methods are
wrapped on their class.  A wrapper passes its arguments and result through
unchanged, so the identity-keyed ``lru_cache``s in means.py hit and miss
exactly as they do untraced.

Spans live in memory as ``[name, parent, start, end]`` lists; self time is
a span's duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy

from matmean import cli, exact, linalg, matio, means, report, schur, suite

# The package rebinds the name `majorization` to the function of that name.
majorization = importlib.import_module("matmean.majorization")

# (owner, attribute, span name).  The owner is a module or a class; module
# functions are rebound wherever a matmean module bound them.
TARGETS = [
    (numpy.linalg, "eigh", "linalg.eigh"),
    (linalg, "eig_hermitian", "linalg.eig_hermitian"),
    (linalg.PDMatrix, "__init__", "linalg.pd_gate"),
    (linalg.PDMatrix, "_from_eig", "linalg.pd_from_eig"),
    (linalg.HermitianMatrix, "__init__", "linalg.hermitian_ctor"),
    (linalg, "principal_sqrt", "linalg.principal_sqrt"),
    (linalg, "inverse", "linalg.inverse"),
    (linalg, "random_pd_from_rng", "linalg.random_pd_from_rng"),
    *[(means, f, f"means.{f}") for f in (
        "geometric_mean", "spectral_mean", "riccati_mean",
        "wasserstein_expression", "heron_kubo", "heron_spectral")],
    *[(majorization, f, f"majorization.{f}") for f in (
        "spectrum", "ky_fan_sums", "weak_majorization", "log_majorization")],
    (schur, "pinching_map", "schur.pinching_map"),
    *[(suite, f, f"suite.{f}") for f in sorted(vars(suite)) if f.startswith("check_")],
    (suite, "run_suite", "suite.run_suite"),
    (suite.RunReport, "to_dict", "report.run_report_to_dict"),
    (report.CheckReport, "merge", "report.merge"),
    (matio, "matrix_to_dict", "matio.matrix_to_dict"),
    (cli, "main", "cli.main"),
    *[(exact, f, f"exact.{f}") for f in (
        "leading_principal_minors", "det_rational", "certify_all", "float_shadow")],
]
CHECKERS = [name for _, _, name in TARGETS if name.startswith("suite.check_")]
# The identity-keyed memo caches whose hit ratio is reported.
CACHES = ("geometric_mean", "spectral_mean", "riccati_mean", "_wasserstein_cached")
# Span names reported by inclusive time.
INCLUSIVE = {"linalg.random_pd_from_rng", "schur.pinching_map", *CHECKERS, "suite.run_suite",
             "report.run_report_to_dict", "exact.certify_all", "exact.float_shadow", "cli.main"}
# A record is a near miss when its margin is within 10 tol of failing.
NEAR_MISS_TOLS = 10


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.failures = 0
        self.near_misses = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        traced.__wrapped__ = fn
        return traced

    def _wrap_record(self, fn):
        """CheckReport.record, also counting failing and near-miss margins."""
        traced = self.wrap("report.record", fn)

        def record(report_self, margin, *args, **kwargs):
            value = float(margin)
            if value < -report_self.tol:
                self.failures += 1
            elif value < (NEAR_MISS_TOLS - 1) * report_self.tol:
                self.near_misses += 1
            return traced(report_self, margin, *args, **kwargs)

        return record

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "matmean" or n.startswith("matmean.")]
        for owner, attr, name in TARGETS:
            if attr not in vars(owner):
                self.missing.append(name)
                continue
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in {id(m): m for m in [owner, *namespaces]}.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        self._set(report.CheckReport, "record", self._wrap_record(vars(report.CheckReport)["record"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.failures = self.near_misses = 0

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, parent index, start and end (s)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{start!r}\t{end!r}\n")


def cache_counts() -> dict[str, tuple[int, int] | None]:
    """(hits, misses) of each memo cache, or None once a cache is gone."""
    out = {}
    for name in CACHES:
        fn = getattr(means, name, None)
        while fn is not None and not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__  # under a tracing wrapper
        info = getattr(fn, "cache_info", None)
        out[name] = (info().hits, info().misses) if info else None
    return out


def span_totals(spans: list[list], inclusive: set[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and, for the names in
    `inclusive`, inclusive seconds of the spans with no ancestor of the
    same name."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for i, (name, parent, start, end) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child[i]
        if name not in inclusive:
            continue
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            t["incl_s"] += end - start
    return totals


def layer_metrics(spans, items: int, jobs: int, failures: int, near_misses: int,
                  cache_delta: dict) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics of one traced pass, and the names of metrics
    whose layer is absent from this build (reported as 0)."""
    totals = span_totals(spans, INCLUSIVE)

    def get(name, key):
        return totals[name][key] if name in totals else 0.0

    m: dict[str, float] = {}
    for base in ("linalg.eigh", "linalg.pd_gate", "linalg.pd_from_eig", "linalg.hermitian_ctor", "report.record",
                 "matio.matrix_to_dict", "exact.det_rational",
                 *(f"means.{f}" for f in ("geometric_mean", "spectral_mean", "riccati_mean",
                                         "wasserstein_expression", "heron_kubo", "heron_spectral"))):
        m[f"{base}.calls_per_item"] = get(base, "calls") / items
    for base in ("linalg.eigh", "linalg.eig_hermitian", "linalg.pd_gate", "linalg.pd_from_eig",
                 "linalg.hermitian_ctor",
                 "linalg.principal_sqrt", "linalg.inverse", "report.record", "report.merge",
                 "matio.matrix_to_dict", "exact.leading_principal_minors", "exact.det_rational",
                 *(f"means.{f}" for f in ("geometric_mean", "spectral_mean", "riccati_mean",
                                         "wasserstein_expression", "heron_kubo", "heron_spectral")),
                 *(f"majorization.{f}" for f in ("spectrum", "ky_fan_sums", "weak_majorization",
                                                 "log_majorization"))):
        m[f"{base}.self_ms_per_item"] = 1e3 * get(base, "self_s") / items
    for base in ("linalg.random_pd_from_rng", "schur.pinching_map", *CHECKERS):
        m[f"{base}.ms_per_item"] = 1e3 * get(base, "incl_s") / items
    for base in ("report.run_report_to_dict", "exact.certify_all", "exact.float_shadow"):
        m[f"{base}.ms_per_job"] = 1e3 * get(base, "incl_s") / jobs
    core = get("suite.run_suite", "incl_s") + get("exact.certify_all", "incl_s") + get("exact.float_shadow", "incl_s")
    m["cli.overhead.ms_per_job"] = 1e3 * (get("cli.main", "incl_s") - core) / jobs
    m["report.near_miss_per_item"] = near_misses / items
    m["report.failures_per_item"] = failures / items
    absent = []
    for name, delta in cache_delta.items():
        key = f"means.{name}.hit_ratio"
        if delta is None:
            absent.append(key)
            m[key] = 0.0
        else:
            hits, misses = delta
            m[key] = hits / (hits + misses) if hits + misses else 0.0
    return m, absent


def unit(metric: str) -> str:
    for suffix, u in ((".calls_per_item", "calls/item"), ("_ms_per_item", "ms/item"),
                      (".ms_per_item", "ms/item"), (".ms_per_job", "ms/job"),
                      ("_per_item", "count/item"), ("ratio", "ratio")):
        if metric.endswith(suffix):
            return u
    raise KeyError(metric)


def is_count(metric: str) -> bool:
    """Metrics that must repeat exactly between traced passes."""
    return metric.endswith((".calls_per_item", ".hit_ratio", ".near_miss_per_item", ".failures_per_item"))
