"""Randomized and fixed-instance checkers for every comparison theorem.

Each checker evaluates one instance, or a stack of same-dimension
instances with one record each, and returns a CheckReport whose worst
normalized margin decides failure (margin < -tol).  Margins are normalized
by 1 + max|dominating side| so one tolerance knob covers all scales.

Every checker is written in two parts, the matrices to gate and the
margin from their spectra, so that a stage can gate the matrices of
several checkers in one stacked call while each margin formula exists
once.  There are two kinds of stage:

* `_compare` runs checkers on one `Pair` stack: the Heron grid,
  spreading, endpoints, log-majorization, BLY and the equality case.
  They name the matrices they use by key (see `_build`), the stage builds
  each kind in one batched pass (the Heron sums in one broadcast over
  (a^2, b^2, c), the W_{a,b} in one pass over the weights), and a key
  named twice is built and gated once: the sharp Heron sums and W_{a,b}
  of spreading, endpoints and BLY are entries of the Heron grid.
* `_run_staged` runs checker tasks in lockstep: pinching (with the
  quadratic lift of its map) and the semidefinite limit.  It makes one
  gate for their raw operands, one stacked `#` over their operand pairs
  and one gate for the matrices they compare.

The public checkers run one checker through the same stage (the
quadratic lift alone is one gate call between its two parts).  run_suite
makes every random draw of a trial first (`_draw_trial`), in the rng
order of the one-at-a-time instance stream, as two stacked segments: A,
B, the commuting pair and the first noncommuting candidate; then the
pinching operands C and R, the bump behind C1, the D0 behind D and the
rank-deficient A0, B0.  Each segment makes all of its rng draws, then one
stacked QR for its Haar unitaries and one `gate_eig` check of every drawn
(lambda, U).  A rejected noncommuting candidate is redrawn one pair at a
time before the second segment draws anything.  The trial then runs two
stages: `_compare` on the main pair stacked with the two equality pairs,
then `_run_staged` on pinching with its lift and the semidefinite limit.
A stage's arrays are released before the next one starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InstanceDrawError, InvalidWeightsError, MatrixFormatError
from .exact import direction_one_data, direction_two_data
# check_* names in this module are the theorem checkers
from .linalg import check_pd as _check_pd
from .linalg import (
    HermitianMatrix,
    PDMatrix,
    as_stack,
    assemble,
    complex_gaussian,
    frobenius,
    gate_eig,
    gate_stack,
    haar_unitaries,
    hermitian_part,
    hermitize,
    principal_sqrt,
    random_pd_from_rng,
    random_pd_sample,
)
from .majorization import (
    SpectrumVector,
    ky_fan_sums,
    log_majorization,
    spectrum,
    weak_majorization,
)
from .means import Pair
from .report import CheckReport
from .schur import pinching_compressions, pinching_phi

DEFAULT_EPS_SEQUENCE = (1e-2, 1e-4, 1e-6, 1e-8)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 1000
    dims: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    cond_max: float = 1e4
    tol: float = 1e-8
    weight_grid: tuple[tuple[float, float], ...] = (
        (1.0, 1.0), (0.5, 0.5), (1.0, 0.25), (0.3, 0.9), (2.0, 0.5),
    )
    c_fractions: tuple[float, ...] = (0.0, 0.5, 1.0)
    t_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if self.trials < 1:
            raise InvalidWeightsError(f"trials must be >= 1, got {self.trials}")
        if not self.dims:
            raise InvalidWeightsError("dims must be nonempty")
        if any(d < 1 for d in self.dims):
            raise InvalidWeightsError("every dimension must be at least 1")
        if not (math.isfinite(self.cond_max) and self.cond_max >= 1.0):
            raise InvalidWeightsError(f"cond_max must be finite and >= 1, got {self.cond_max}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidWeightsError(f"tol must be finite and positive, got {self.tol}")
        if not self.weight_grid or any(len(pair) != 2 or not all(math.isfinite(w) and w > 0.0 for w in pair)
                                       for pair in self.weight_grid):
            raise InvalidWeightsError(f"weight_grid must be nonempty pairs of finite positive weights, "
                                      f"got {self.weight_grid}")
        if not self.c_fractions:
            raise InvalidWeightsError("c_fractions must be nonempty")
        if any(not 0.0 <= f <= 1.0 for f in self.c_fractions):
            raise InvalidWeightsError("c_fractions must lie in [0, 1]")
        if any(not 0.0 <= t <= 1.0 for t in self.t_grid):
            raise InvalidWeightsError("t_grid must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "cond_max": self.cond_max,
            "tol": self.tol,
            "weight_grid": [list(w) for w in self.weight_grid],
            "c_fractions": list(self.c_fractions),
            "t_grid": list(self.t_grid),
        }


@dataclass
class RunReport:
    config: SuiteConfig
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "checks": [report.to_dict() for report in sorted(self.checks, key=lambda r: r.check_name)],
            "ok": self.ok,
        }

    def print_summary(self, file=None) -> None:
        """The per-checker table: instances, min margin and status."""
        for check in sorted(self.checks, key=lambda r: r.check_name):
            status = "ok" if check.ok else f"{len(check.failures)} FAILURES"
            print(f"{check.check_name:28s} {check.instances_run:6d} instances  "
                  f"min margin {check.min_margin_seen: .3e}  {status}", file=file)

    def by_name(self, name: str) -> CheckReport:
        for report in self.checks:
            if report.check_name == name:
                return report
        raise KeyError(name)


# ---------------------------------------------------------------------------
# margin helpers
# ---------------------------------------------------------------------------

def _wm_margin(lhs: np.ndarray, rhs: np.ndarray):
    """Worst normalized Ky Fan margin of lhs prec_w rhs, over the last
    axis of decreasing spectra."""
    margins = np.cumsum(rhs, axis=-1) - np.cumsum(lhs, axis=-1)
    scale = 1.0 + np.abs(rhs).max(axis=-1)
    return margins.min(axis=-1) / scale


def _eq_margin(gap, scale):
    """Margin form of an equality constraint |gap| <= tol * scale."""
    return -np.abs(gap) / scale


def _trace_eq_margin(lhs: np.ndarray, rhs: np.ndarray):
    gap = rhs.sum(axis=-1) - lhs.sum(axis=-1)
    return _eq_margin(gap, 1.0 + np.abs(rhs.sum(axis=-1)))


def _spectra(*mats: np.ndarray, pd=True) -> np.ndarray:
    """Decreasing eigenvalues of the matrices a checker compares, gated
    (as positive definite where `pd` says so) in one stacked call."""
    return gate_stack(np.stack(mats), pd)[0]


def _report(name: str, tol: float, margins, context) -> CheckReport:
    """A report with one record per margin (one per pair of a stack);
    `context` is one dict for every record or a list with one per record."""
    report = CheckReport(name, tol)
    margins = np.atleast_1d(margins)
    contexts = context if isinstance(context, list) else [context] * len(margins)
    for margin, ctx in zip(margins, contexts):
        report.record(margin, ctx)
    return report


# ---------------------------------------------------------------------------
# the stage of one Pair stack: keyed matrices, each built and gated once
# ---------------------------------------------------------------------------

# The matrices of pair p of a (flattened) Pair stack, by key.  Every kind
# but "W" is gated as positive definite, "W" as Hermitian.
#   ("heron", p, cross, a, b, c)     a^2 A + b^2 B + c M, M the `cross` mean
#   ("W", p, a, b)                   W_{a,b}
#   ("spectral", p), ("geometric", p)   A natural B, A # B
#   ("bly", p, a, b)                 (a A^{1/2} + b B^{1/2})^2


def _bly_rhs(pair: Pair, p, a, b) -> np.ndarray:
    Ah, Bh = (as_stack(M)[np.asarray(p)] for M in pair.sqrt())
    a, b = (np.asarray(x, dtype=np.float64)[:, None, None] for x in (a, b))
    T = a * Ah + b * Bh
    return hermitian_part(T @ T)


_MAKERS = {
    "heron": Pair.herons,
    "W": lambda pair, p, a, b: pair.wassersteins(p, a, b)[0],
    "spectral": lambda pair, p: as_stack(pair.spectral())[np.asarray(p)],
    "geometric": lambda pair, p: as_stack(pair.geometric())[np.asarray(p)],
    "bly": _bly_rhs,
}


def _build(pair: Pair, keys) -> np.ndarray:
    """The matrices named by `keys`, stacked in their order; each kind is
    built in one batched pass."""
    out = np.empty((len(keys), pair.dim, pair.dim), dtype=np.complex128)
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key[0], []).append(i)
    for kind, where in groups.items():
        out[where] = _MAKERS[kind](pair, *zip(*(keys[i][1:] for i in where)))
    return out


class _Built:
    """The matrices that the checkers of one stage named, built from
    their keys, and the spectra of those gated."""

    def __init__(self, pair: Pair, gated: list, plain: list):
        self.pair = pair
        self.index = {key: i for i, key in enumerate(gated + plain)}
        self.mats = _build(pair, gated + plain)
        self.vals = gate_stack(self.mats[:len(gated)], [key[0] != "W" for key in gated])[0] if gated else None

    def spectra(self, keys) -> np.ndarray:
        return self.vals[[self.index[key] for key in keys]]

    def matrices(self, keys) -> np.ndarray:
        return self.mats[[self.index[key] for key in keys]]


class _Check(NamedTuple):
    """One checker's part of a `_compare` stage: the keys of the matrices
    whose spectra it compares (gated), of those it uses otherwise (not
    gated), and its reports from them."""

    gated: tuple
    plain: tuple
    reports: Callable[[_Built, float], list[CheckReport]]


def _compare(pair: Pair, checks: list[_Check], tol: float) -> list[CheckReport]:
    """Run checks on one Pair stack: every matrix they name is built once,
    and those whose spectra they compare are gated in one stacked call."""
    gated = list(dict.fromkeys(key for check in checks for key in check.gated))
    seen = set(gated)
    plain = [key for key in dict.fromkeys(key for check in checks for key in check.plain) if key not in seen]
    built = _Built(pair, gated, plain)
    return [report for check in checks for report in check.reports(built, tol)]


# Checkers of the Heron grid, each with the cross term of its Heron
# expression.  weighted_corollary is spectral_heron at (a, b) = (1-t, t).
GRID_CROSS = {"spectral_heron": "spectral", "kubo_heron": "geometric", "weighted_corollary": "spectral"}


def _grid(items, context) -> _Check:
    """One report per (check, a, b, c) item of a checker in GRID_CROSS:
    lambda(a^2 A + b^2 B + c M) prec_w lambda(W_{a,b}) for 0 <= c <= 2ab,
    with the cross term M of the check.  With the spectral cross term the
    endpoint c = 2ab is a true majorization, so trace equality is checked
    there too."""
    for check, a, b, c in items:
        two_ab = 2.0 * a * b
        if a < 0 or b < 0 or not 0.0 <= c <= two_ab * (1.0 + 1e-12):
            raise InvalidWeightsError(f"{check}: need a, b >= 0 and 0 <= c <= 2ab = {two_ab}, "
                                      f"got a = {a}, b = {b}, c = {c}")
    H = tuple(("heron", 0, GRID_CROSS[check], a, b, c) for check, a, b, c in items)
    W = tuple(("W", 0, a, b) for _, a, b, _ in items)

    def reports(built: _Built, tol: float) -> list[CheckReport]:
        sH, sW = built.spectra(H), built.spectra(W)
        margins = _wm_margin(sH, sW)
        trace_margins = _trace_eq_margin(sH, sW)
        out = []
        for i, (check, a, b, c) in enumerate(items):
            two_ab = 2.0 * a * b
            margin = margins[i]
            if GRID_CROSS[check] == "spectral" and two_ab > 0.0 and c >= two_ab * (1.0 - 1e-12):
                margin = min(margin, trace_margins[i])
            out.append(_report(check, tol, margin, context))
        return out

    return _Check(H + W, (), reports)


def heron_grid(pair: Pair, items, tol: float, context: dict | None = None) -> list[CheckReport]:
    """The Heron grid (see `_grid`) of one pair: the Heron sums (gated as
    positive definite) and the distinct W_{a,b} (gated as Hermitian) are
    decomposed in one stacked call."""
    return _compare(pair, [_grid(items, context)], tol)


def check_spectral_heron(pair: Pair, a: float, b: float, c: float,
                         tol: float, context: dict | None = None) -> CheckReport:
    """Spectral Heron expression is weakly majorized by the Wasserstein one
    for 0 <= c <= 2ab; at the endpoint c = 2ab it is a true majorization."""
    return heron_grid(pair, [("spectral_heron", a, b, c)], tol, context)[0]


def check_kubo_heron(pair: Pair, a: float, b: float, c: float,
                     tol: float, context: dict | None = None) -> CheckReport:
    """Heron expression with geometric cross term, coefficient up to 2ab,
    is weakly majorized by the Wasserstein expression."""
    return heron_grid(pair, [("kubo_heron", a, b, c)], tol, context)[0]


def check_weighted_corollary(pair: Pair, t: float, c: float,
                             tol: float, context: dict | None = None) -> CheckReport:
    """Weighted form: (1-t)^2 A + t^2 B + c (A natural B) against the
    geodesic point W_{1-t,t}, for 0 <= c <= 2t(1-t)."""
    return heron_grid(pair, [("weighted_corollary", 1.0 - t, t, c)], tol, context)[0]


def check_sharpness_scalar(a: float, b: float, c_over: float) -> CheckReport:
    """Above the endpoint coefficient the comparison already fails in
    dimension 1, with exact margin c - 2ab (verified in rational
    arithmetic so 'exact' is meaningful for float inputs)."""
    from fractions import Fraction

    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c_over)
    if not fc > 2 * fa * fb:
        raise InvalidWeightsError(f"need c > 2ab, got c = {c_over}, 2ab = {2 * a * b}")
    report = CheckReport("sharpness_scalar", 0.0)
    heron_scalar = fa * fa + fb * fb + fc
    wasserstein_scalar = (fa + fb) ** 2
    exact_margin = heron_scalar - wasserstein_scalar
    identity_holds = exact_margin == fc - 2 * fa * fb
    failure_confirmed = heron_scalar > wasserstein_scalar
    report.record(float(exact_margin) if (identity_holds and failure_confirmed) else -1.0,
                  {"seed_offset": None, "a": a, "b": b, "c_over": c_over})
    report.diagnostics["exact_margin"] = str(exact_margin)
    return report


def _spreading(a: float, b: float, context) -> _Check:
    if a <= 0 or b <= 0:
        raise InvalidWeightsError(f"need a, b > 0, got a={a}, b={b}")
    keys = (("heron", 0, "spectral", a, b, 2.0 * a * b), ("W", 0, a, b))

    def reports(built: _Built, tol: float) -> list[CheckReport]:
        sH, sW = built.spectra(keys)
        margins = [_wm_margin(sH, sW)]
        # bottom-k sums: Heron side dominates
        bottom_H = np.cumsum(sH[::-1])
        bottom_W = np.cumsum(sW[::-1])
        scale = 1.0 + float(np.abs(sW).max())
        margins.append(float((bottom_H - bottom_W).min()) / scale)
        margins.append(_trace_eq_margin(sH, sW))
        # determinants compared in the log domain
        logdet_H = float(np.log(sH).sum())
        logdet_W = float(np.log(sW).sum())
        margins.append((logdet_H - logdet_W) / (1.0 + abs(logdet_W)))
        return [_report("spreading", tol, min(margins), context)]

    return _Check(keys, (), reports)


def check_spreading(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """At the endpoint coefficient the spectral Heron expression is
    spectrally less spread: top-k sums smaller, bottom-k sums larger,
    trace equal, determinant at least as large."""
    return _compare(pair, [_spreading(a, b, context)], tol)[0]


def _equality(pairs, a: float, b: float, context) -> _Check:
    if a <= 0 or b <= 0:
        raise InvalidWeightsError(f"need a, b > 0, got a={a}, b={b}")
    pairs = list(pairs)
    keys = [[(kind, p, *args) for p in pairs] for kind, *args in (
        ("heron", "spectral", a, b, 2.0 * a * b), ("heron", "geometric", a, b, 2.0 * a * b), ("W", a, b))]

    def reports(built: _Built, tol: float) -> list[CheckReport]:
        H_nat, H_kubo, W = (built.matrices(k) for k in keys)
        A, B = (as_stack(M)[pairs] for M in (built.pair.A, built.pair.B))
        comm = frobenius(A @ B - B @ A)
        comm_scale = frobenius(A) * frobenius(B)
        w_norm = frobenius(W)
        diff_nat = frobenius(H_nat - W)
        diff_kubo = frobenius(H_kubo - W)
        # between clearly commuting and clearly noncommuting lies a gray
        # zone with nothing sharp to assert (margin 0)
        margins = np.where(
            comm <= tol * comm_scale,
            _eq_margin(np.maximum(diff_nat, diff_kubo), w_norm),
            np.where(comm >= 1e-3 * comm_scale, (np.minimum(diff_nat, diff_kubo) - 1e-6 * w_norm) / w_norm, 0.0),
        )
        return [_report("equality_iff_commuting", tol, margins, context)]

    return _Check((), tuple(key for k in keys for key in k), reports)


def check_equality_iff_commuting(pair: Pair, a: float, b: float,
                                 tol: float, context: dict | list[dict] | None = None) -> CheckReport:
    """Both endpoint Heron expressions equal the Wasserstein expression
    exactly when A and B commute; otherwise they stay separated by a
    data-dependent positive amount.  One record per pair of a stacked
    Pair."""
    return _compare(pair, [_equality(range(len(pair)), a, b, context)], tol)[0]


def _endpoints(a: float, b: float, context) -> _Check:
    if a < 0 or b < 0:
        raise InvalidWeightsError(f"need a, b >= 0, got a={a}, b={b}")
    keys = (("heron", 0, "geometric", a, b, 2.0 * a * b), ("W", 0, a, b))

    def reports(built: _Built, tol: float) -> list[CheckReport]:
        sH, sW = built.spectra(keys)
        scale = 1.0 + float(np.abs(sW).max())
        margins = [
            (float(sH[-1]) - float(sW[-1])) / scale,   # smallest eigenvalue
            (float(sW[0]) - float(sH[0])) / scale,     # largest eigenvalue
            (float(sW.sum()) - float(sH.sum())) / scale,
        ]
        if len(sH) > 1:
            margins.append((float(sW[:-1].sum()) - float(sH[:-1].sum())) / scale)
        return [_report("endpoints", tol, min(margins), context)]

    return _Check(keys, (), reports)


def check_endpoints(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """Order of the extreme eigenvalues, the trace, and the (n-1)-sum
    between the sharp geometric Heron and Wasserstein expressions."""
    return _compare(pair, [_endpoints(a, b, context)], tol)[0]


def _log_majorization(context) -> _Check:
    keys = (("geometric", 0), ("spectral", 0))

    def reports(built: _Built, tol: float) -> list[CheckReport]:
        sG, sN = map(SpectrumVector, built.spectra(keys))
        verdict = log_majorization(sG, sN, tol)
        log_scale = 1.0 + float(np.abs(np.log(sN.values)).max())
        prefix = min(verdict.per_k_margins[:-1]) / log_scale if len(sG) > 1 else 0.0
        total = _eq_margin(verdict.trace_gap, log_scale)
        trace_margin = (float(sN.values.sum()) - float(sG.values.sum())) / (1.0 + float(sN.values.sum()))
        return [_report("log_majorization_means", tol, min(prefix, total, trace_margin), context)]

    return _Check(keys, (), reports)


def check_log_majorization_means(pair: Pair, tol: float,
                                 context: dict | None = None) -> CheckReport:
    """The geometric mean is log-majorized by the spectral mean; in
    particular its trace is no larger."""
    return _compare(pair, [_log_majorization(context)], tol)[0]


def _bly(a: float, b: float, context) -> _Check:
    if a < 0 or b < 0:
        raise InvalidWeightsError(f"need a, b >= 0, got a={a}, b={b}")
    keys = (("heron", 0, "geometric", a, b, 2.0 * a * b), ("bly", 0, a, b))

    def reports(built: _Built, tol: float) -> list[CheckReport]:
        sH, sR = built.spectra(keys)
        rhs = built.matrices(keys[1:])[0]
        A, B, Ah, Bh = (as_stack(M)[0] for M in (built.pair.A, built.pair.B, *built.pair.sqrt()))
        margins = [_wm_margin(sH, sR)]
        # expansion of the square: a^2 A + b^2 B + ab(sqrtA sqrtB + sqrtB sqrtA)
        cross = Ah @ Bh
        expanded = a * a * A + b * b * B + a * b * (cross + cross.conj().T)
        margins.append(_eq_margin(float(np.linalg.norm(expanded - rhs)), 1.0 + float(np.linalg.norm(rhs))))
        # Schatten norms follow from the eigenvalue comparison for PSD matrices
        for p_lhs, p_rhs in (
            (float(sH.sum()), float(sR.sum())),
            (float(np.sqrt((sH ** 2).sum())), float(np.sqrt((sR ** 2).sum()))),
            (float(sH[0]), float(sR[0])),
        ):
            margins.append((p_rhs - p_lhs) / (1.0 + p_rhs))
        return [_report("bly", tol, min(margins), context)]

    return _Check(keys, (), reports)


def check_bly(pair: Pair, a: float, b: float,
              tol: float, context: dict | None = None) -> CheckReport:
    """Weak-majorization refinement of the two-variable Heron comparison
    against the squared sum of weighted square roots, plus the expansion
    identity and Schatten p = 1, 2, inf spot checks."""
    return _compare(pair, [_bly(a, b, context)], tol)[0]


# ---------------------------------------------------------------------------
# staged checkers: one gate for the raw operands, one stacked '#', one gate
# for the compared matrices, each over every task
# ---------------------------------------------------------------------------

def _gate_requests(requests) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Gate the [(stack, pd), ...] of every task in one stacked call;
    returns, per task, (eigenvalues, eigenvectors) per entry."""
    entries = [entry for request in requests for entry in request]
    if not entries:
        return [[] for _ in requests]
    stacks = [as_stack(mats) for mats, _ in entries]
    sizes = [len(stack) for stack in stacks]
    vals, vecs = gate_stack(np.concatenate(stacks), np.repeat([pd for _, pd in entries], sizes))
    cuts = np.cumsum(sizes)[:-1]
    parts = iter([(v.reshape(mats.shape[:-1]), U.reshape(mats.shape))
                  for (mats, _), v, U in zip(entries, np.split(vals, cuts), np.split(vecs, cuts))])
    return [[next(parts) for _ in request] for request in requests]


def _run_staged(tasks) -> list[CheckReport]:
    """Run checker tasks in lockstep, each step one stacked call over all
    of them.  A task is a generator that yields, in turn:

    1. the raw matrices it gates, as [(stack, pd), ...], and receives one
       (eigenvalues, eigenvectors) per entry;
    2. a Pair of gated operands, or None, and receives it back with its
       geometric mean computed (one stacked pass over every task's pairs);
    3. the matrices it compares, as in 1;

    and returns its reports.
    """
    replies = _gate_requests([next(task) for task in tasks])
    pairs = [task.send(reply) for task, reply in zip(tasks, replies)]
    given = [pair for pair in pairs if pair is not None]
    if given:
        joined = Pair.join(given)
        joined.geometric()
        ends = np.cumsum([len(pair) for pair in given])
        parts = iter([joined[start:end] for start, end in zip([0, *ends[:-1]], ends)])
        pairs = [None if pair is None else next(parts) for pair in pairs]
    replies = _gate_requests([task.send(pair) for task, pair in zip(tasks, pairs)])
    reports = []
    for task, reply in zip(tasks, replies):
        try:
            task.send(reply)
        except StopIteration as done:
            reports += done.value
        else:
            raise RuntimeError("a staged checker task did not finish after its third step")
    return reports


def _lift_matrices(C: PDMatrix, Ds) -> np.ndarray:
    """C^{1/2} D C^{1/2} for each D, raw."""
    Ch = principal_sqrt(C).mat
    return hermitian_part(Ch @ np.stack(Ds) @ Ch)


def _lift_report(C: PDMatrix, dominated, lifted, tol: float, context) -> CheckReport:
    """lambda(C^{1/2} D C^{1/2}) prec_w lambda(C^2) = lambda(C)^2, one
    record per D, from the spectra of the Ds and of their lifts; each D
    must satisfy the hypothesis lambda(D) prec_w lambda(C)."""
    sC = spectrum(C)
    for vals in dominated:
        if not weak_majorization(SpectrumVector(vals), sC, tol).holds:
            raise InvalidWeightsError("instance violates the hypothesis lambda(D) prec_w lambda(C)")
    return _report("quadratic_lifting", tol, _wm_margin(lifted, sC.values ** 2), context)


def _pinching_task(C: PDMatrix, R: PDMatrix, C1: np.ndarray, tol: float, context,
                   dominated: list[np.ndarray] | None = None):
    """Task (see `_run_staged`) checking Phi = Phi_R(C), evaluated at C, I,
    2C and the raw C1 <= C (gated here).  Given `dominated`, raw matrices
    D with lambda(D) prec_w lambda(C) (gated here), it also checks the
    quadratic lift of Phi and of each D, Phi's hypothesis read from its
    gated spectrum."""
    n = C.dim
    eye = np.eye(n)
    # I and 2C are not gated: their decompositions are exactly those of
    # the identity and of the gated C
    S, P, Q = pinching_compressions(np.stack([C.mat, eye, 2.0 * C.mat, C1]), R)
    Ds = list(dominated or ())
    eig_P, eig_Q, _, *eig_Ds = yield [(P, True), (Q, True), (C1, True), *((D, True) for D in Ds)]
    compressions = yield Pair.decomposed(P, Q, eig_P, eig_Q)
    phi = pinching_phi(compressions)
    Phi, Phi_eye, Phi2, Phi1 = phi
    compared = [(phi, True)]
    if dominated is not None:
        compared.append((_lift_matrices(C, [Phi, *Ds]), True))
    (s_phi, _), *lifted = yield compared

    margins = [_wm_margin(s_phi[0], spectrum(C).values)]
    # unitality
    margins.append(_eq_margin(float(np.linalg.norm(Phi_eye - eye)), 1.0 + math.sqrt(n)))
    # positive homogeneity at alpha = 2
    margins.append(_eq_margin(float(np.linalg.norm(Phi2 - 2.0 * Phi)),
                              1.0 + 2.0 * float(np.linalg.norm(Phi))))
    # trace-subpreservation
    margins.append((C.trace() - float(np.trace(Phi).real)) / (1.0 + C.trace()))
    # order preservation on the dominated pair C1 <= C
    gap_vals = np.linalg.eigvalsh(Phi - Phi1)
    margins.append(float(gap_vals[0]) / (1.0 + float(np.abs(gap_vals).max())))
    # trace identity linking the spectral mean of the two compressions
    lhs_tr = float(np.trace(compressions[0].spectral()).real)
    rhs_tr = float(np.trace(R.mat @ S @ C.mat).real)
    margins.append(_eq_margin(lhs_tr - rhs_tr, 1.0 + abs(rhs_tr)))
    report = _report("pinching", tol, min(margins), context)
    if dominated is None:
        return [report]
    ((s_lifted, _),) = lifted
    return [report, _lift_report(C, [s_phi[0], *(vals for vals, _ in eig_Ds)], s_lifted, tol, context)]


def _dominated_by(C: PDMatrix, bump: PDMatrix) -> np.ndarray:
    """C1 = C - (lambda_min(C) / 2) bump / lambda_max(bump) <= C, raw."""
    return hermitize(C.mat - (0.5 * C.min_eigenvalue_witness) * bump.mat / bump.eig().eigenvalues[0])


def check_pinching(C: PDMatrix, R: PDMatrix, tol: float,
                   context: dict | None = None,
                   rng: np.random.Generator | None = None) -> CheckReport:
    """The nonlinear pinching map Phi = Phi_R(C) contracts in weak
    majorization; its four structural hypotheses (monotone, homogeneous,
    unital, trace-subpreserving) are spot-checked on the same instance,
    with Phi_R evaluated at C, I, 2C and a random C1 <= C drawn from
    `rng`."""
    if rng is None:
        rng = np.random.default_rng(0)
    C1 = _dominated_by(C, random_pd_from_rng(C.dim, 10.0, rng))
    return _run_staged([_pinching_task(C, R, C1, tol, context)])[0]


def check_quadratic_lifting(C: PDMatrix, Ds: list[PDMatrix], tol: float,
                            context: dict | None = None) -> CheckReport:
    """If lambda(D) prec_w lambda(C), the congruence by C^{1/2} lifts the
    comparison to lambda(C^{1/2} D C^{1/2}) prec_w lambda(C^2).  One record
    per D; lambda(C^2) = lambda(C)^2 comes from the gated decomposition of
    C, and the lifted matrices are gated in one stacked call."""
    lifted = gate_stack(_lift_matrices(C, [D.mat for D in Ds]))[0]
    return _lift_report(C, [D.eig().eigenvalues for D in Ds], lifted, tol, context)


def _limit_task(A0: HermitianMatrix, B0: HermitianMatrix, eps_sequence, tol: float, context):
    """Task (see `_run_staged`) of `check_semidefinite_limit`."""
    if A0.dim != B0.dim:
        raise MatrixFormatError(f"dimension mismatch: {A0.dim} vs {B0.dim}")
    k = len(eps_sequence)
    # every level at once, each M0 + eps I decomposed afresh: at eps = 1e-8
    # the margin amplifies a decomposition's rounding to about 1e-5, and the
    # eigenvalues of M0 shifted by eps turned a true margin of 1.8e-6 into
    # -1.1e-5 on one rank-one pair
    shift = np.asarray(eps_sequence, dtype=np.float64)[:, None, None] * np.eye(A0.dim)
    A, B = A0.mat + shift, B0.mat + shift
    # the levels are checked positive definite only once A0 and B0 are
    # known to be positive semidefinite
    (lam, _), eig_A, eig_B = yield [(np.stack([A0.mat, B0.mat]), False), (A, False), (B, False)]
    for vals, name in zip(lam, ("A0", "B0")):
        if float(vals[-1]) < -tol * (1.0 + float(np.abs(vals).max())):
            raise MatrixFormatError(f"{name} must be positive semidefinite")
    _check_pd(np.stack([eig_A[0], eig_B[0]]))
    pair = yield Pair.decomposed(A, B, eig_A, eig_B)
    keys = [("heron", p, "geometric", 1.0, 1.0, 2.0) for p in range(k)] + [("bly", p, 1.0, 1.0) for p in range(k)]
    ((vals, _),) = yield [(_build(pair, keys), True)]
    margins = [float(m) for m in _wm_margin(vals[:k], vals[k:])]
    gap = 0.0
    if len(margins) >= 3:
        m1, m2, m3 = margins[-3], margins[-2], margins[-1]
        denom = (m3 - m2) - (m2 - m1)
        extrapolated = m3 if denom == 0.0 else m3 - (m3 - m2) ** 2 / denom
        gap = abs(m3 - extrapolated)
    report = _report("semidefinite_limit", tol, min(margins), context)
    report.diagnostics["margins_along_sequence"] = margins
    report.diagnostics["convergence_gap"] = gap
    return [report]


def check_semidefinite_limit(A0: HermitianMatrix, B0: HermitianMatrix,
                             eps_sequence: tuple[float, ...] = DEFAULT_EPS_SEQUENCE,
                             tol: float = 1e-8,
                             context: dict | None = None) -> CheckReport:
    """Stability of the square-root Heron comparison as a positive
    semidefinite pair is regularized by eps I and eps decreases.

    Margins must stay above -tol along the whole sequence.  The distance
    between the final margin and the Aitken-extrapolated limit of the
    sequence is recorded as a convergence diagnostic; for singular
    noncommuting pairs it decays like sqrt(eps), so it is reported, not
    gated at tol.
    """
    return _run_staged([_limit_task(A0, B0, eps_sequence, tol, context)])[0]


def certified_pairs() -> tuple[Pair, Pair]:
    """Float Pairs of the two certified incomparability instances: the 3x3
    pair of direction one and the 2x2 pair of direction two."""
    return tuple(Pair.gated(np.array(data["A"].to_float()), np.array(data["B"].to_float()))
                 for data in (direction_one_data(), direction_two_data()))


def check_incomparability_float(one: Pair, two: Pair, tol: float = 1e-8) -> CheckReport:
    """Floating replay of the certified incomparability instances
    (`certified_pairs()`): the k=1 Ky Fan inequality fails one way on the
    3x3 pair, and the trace comparison fails the other way on the 2x2 pair."""
    report = CheckReport("incomparability_float", tol)
    # the means are gated as positive definite, the Heron sums as Hermitian
    spectra = _spectra(one.geometric(), one.spectral(),
                       one.heron("geometric", 1.0, 1.0, 2.0), one.heron("spectral", 1.0, 1.0, 2.0),
                       pd=[True, True, False, False])
    k1_gap = float(spectra[2][0]) - float(spectra[3][0])
    report.record(k1_gap - 1e-2, {"seed_offset": None, "item": "k=1 failure of direction one"})

    _spectra(two.geometric(), two.spectral())  # gated as the public means are
    trace_gap = 2.0 * (float(np.trace(two.spectral()).real) - float(np.trace(two.geometric()).real))
    report.record(trace_gap - 0.6, {"seed_offset": None, "item": "trace failure of direction two"})
    report.diagnostics["k1_gap"] = k1_gap
    report.diagnostics["trace_gap"] = trace_gap
    return report


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------
#
# Each kind of instance has a sampler that makes its rng draws (eigenvalues
# and the complex Gaussian of a Haar unitary) and no linear algebra.  The
# helpers below build one instance from one sample with the single-matrix
# functions; they are the one-at-a-time reference of the instance stream.
# A suite trial records the samples of a segment instead (`_Segment`) and
# builds all of them at once.

# A candidate noncommuting pair must clear ||AB - BA|| >= floor ||A|| ||B||
# within this many draws.
NONCOMMUTING_FLOOR = 1e-3
NONCOMMUTING_TRIES = 200


def _commuting_sample(dim: int, cond_max: float, rng: np.random.Generator):
    """The draws of a commuting pair: the Gaussian of their shared
    eigenbasis, then two spectra, each decreasing and with the column
    order of the basis it takes."""
    gaussian = complex_gaussian(dim, rng)
    lo = -np.log10(cond_max) if cond_max > 1.0 else 0.0
    spectra = []
    for _ in range(2):
        vals = 10.0 ** rng.uniform(lo, 0.0, dim)
        vals /= vals.max()
        order = np.argsort(vals)[::-1]
        spectra.append((vals[order].copy(), order))
    return gaussian, spectra


def _pinching_weight_sample(dim: int, rng: np.random.Generator):
    """The draws of the pinching weight R: eigenvalues in [0.05, 0.95]."""
    vals = np.sort(rng.uniform(0.05, 0.95, dim))[::-1].copy()
    return vals, complex_gaussian(dim, rng)


def _rank_deficient_sample(dim: int, rng: np.random.Generator):
    """The draws of a positive semidefinite matrix of rank below dim (rank
    1 at dim 1)."""
    rank = int(rng.integers(1, dim)) if dim > 1 else 1
    vals = np.zeros(dim)
    vals[:rank] = np.sort(10.0 ** rng.uniform(-2.0, 0.0, rank))[::-1]
    return vals, complex_gaussian(dim, rng)


def _commuting_pair(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    """A pair sharing a random eigenbasis commutes by construction."""
    gaussian, spectra = _commuting_sample(dim, cond_max, rng)
    U = haar_unitaries(gaussian)
    A, B = (PDMatrix._from_eig(vals, U[:, order].copy()) for vals, order in spectra)
    return A, B


def _clearly_noncommuting(A: PDMatrix, B: PDMatrix) -> bool:
    comm = float(np.linalg.norm(A.mat @ B.mat - B.mat @ A.mat))
    return comm >= NONCOMMUTING_FLOOR * float(np.linalg.norm(A.mat)) * float(np.linalg.norm(B.mat))


def _noncommuting_pair(dim: int, cond_max: float, rng: np.random.Generator,
                       first: tuple[PDMatrix, PDMatrix] | None = None) -> tuple[PDMatrix, PDMatrix]:
    """Resample, one pair at a time, until the commutator clears the
    noncommutativity floor.  `first`, a candidate already drawn from rng,
    is the first of the NONCOMMUTING_TRIES candidates.  A cond_max close
    to 1 leaves too little spectral spread for any candidate to clear the
    floor; how close depends on dim."""
    for _ in range(NONCOMMUTING_TRIES):
        A, B = first or (random_pd_from_rng(dim, cond_max, rng), random_pd_from_rng(dim, cond_max, rng))
        first = None
        if _clearly_noncommuting(A, B):
            return A, B
    raise InstanceDrawError(
        f"cond_max = {cond_max!r} is too close to 1 at dim {dim}: none of {NONCOMMUTING_TRIES} candidate "
        f"pairs cleared the commutator floor {NONCOMMUTING_FLOOR:g} ||A|| ||B||; use a larger cond_max"
    )


def _pinching_operands(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    C = random_pd_from_rng(dim, cond_max, rng)
    vals, gaussian = _pinching_weight_sample(dim, rng)
    return C, PDMatrix._from_eig(vals, haar_unitaries(gaussian))


def _rank_deficient_psd(dim: int, rng: np.random.Generator) -> HermitianMatrix:
    vals, gaussian = _rank_deficient_sample(dim, rng)
    U = haar_unitaries(gaussian)
    return HermitianMatrix((U * vals) @ U.conj().T)


def _scaled_under(C: PDMatrix, D0: PDMatrix) -> np.ndarray:
    """D0 scaled so that lambda(D) prec_w lambda(C); raw (Hermitian by
    construction)."""
    ratios = ky_fan_sums(spectrum(C)) / ky_fan_sums(spectrum(D0))
    return (float(ratios.min()) * (1.0 - 1e-12)) * D0.mat


def _shrunk_dominated(C: PDMatrix, rng: np.random.Generator) -> np.ndarray:
    """Random D with lambda(D) prec_w lambda(C), enforced by scaling."""
    return _scaled_under(C, random_pd_from_rng(C.dim, 100.0, rng))


class _Segment:
    """The samples of one segment of a trial, recorded as their rng draws
    are made; `matrices` then builds every matrix at once: one stacked QR
    for the Haar unitaries, one `gate_eig` check of every (lambda, U) and
    one stacked U diag(lambda) U*."""

    def __init__(self):
        self.gaussians: list[np.ndarray] = []
        # (eigenvalues, index of the Gaussian, columns of its unitary or
        # None for all in order, positive definite)
        self.entries: list[tuple] = []

    def add(self, vals: np.ndarray, gaussian: np.ndarray, pd: bool = True) -> None:
        self.share(gaussian, [(vals, None)], pd)

    def share(self, gaussian: np.ndarray, spectra, pd: bool = True) -> None:
        """Matrices on one unitary: one per (eigenvalues, column order)."""
        self.gaussians.append(gaussian)
        k = len(self.gaussians) - 1
        self.entries += [(vals, k, order, pd) for vals, order in spectra]

    def matrices(self) -> list:
        """The matrices in the order added: PDMatrix, or HermitianMatrix
        (gated as such) where pd is False."""
        U = haar_unitaries(np.stack(self.gaussians))
        vals = np.stack([entry[0] for entry in self.entries])
        vecs = np.stack([U[k] if order is None else U[k][:, order] for _, k, order, _ in self.entries])
        pd = [entry[3] for entry in self.entries]
        gate_eig(vals, vecs, pd)
        mats = assemble(vals, vecs)
        return [PDMatrix._gated(M, v, W) if p else HermitianMatrix(M) for M, v, W, p in zip(mats, vals, vecs, pd)]


class _Draw(NamedTuple):
    """The random instances of one suite trial."""

    dim: int
    a: float
    b: float
    pairs: list          # the main pair, the commuting and the noncommuting one
    C: PDMatrix          # the pinching operands
    R: PDMatrix
    C1: np.ndarray       # raw C1 <= C for the order check
    D: np.ndarray        # raw D with lambda(D) prec_w lambda(C) for the lift
    A0: HermitianMatrix  # the rank-deficient pair of the semidefinite limit
    B0: HermitianMatrix


def _trial_start(config: SuiteConfig, offset: int) -> tuple[np.random.Generator, int, tuple[float, float]]:
    """The rng, dimension and weights (a, b) of trial `offset`."""
    return (np.random.default_rng([config.seed, offset]), config.dims[offset % len(config.dims)],
            config.weight_grid[offset % len(config.weight_grid)])


def _draw_trial(config: SuiteConfig, offset: int) -> _Draw:
    """The random instances of trial `offset`, with the draws of
    `iter_instances` and the helpers above in the same rng order, made as
    two segments: A, B, the commuting pair and the first noncommuting
    candidate; then C, R, the bump behind C1, D0 and A0, B0.  A rejected
    candidate is redrawn one pair at a time before the second segment
    draws anything, so the stream is unchanged."""
    rng, dim, (a, b) = _trial_start(config, offset)
    cond = config.cond_max
    first = _Segment()
    for _ in range(2):
        first.add(*random_pd_sample(dim, cond, rng))
    first.share(*_commuting_sample(dim, cond, rng))
    if dim > 1:
        for _ in range(2):
            first.add(*random_pd_sample(dim, cond, rng))
    A, B, A_c, B_c, *candidate = first.matrices()
    pairs = [(A, B), (A_c, B_c)]
    if dim > 1:
        pairs.append(_noncommuting_pair(dim, cond, rng, tuple(candidate)))

    second = _Segment()
    second.add(*random_pd_sample(dim, cond, rng))
    second.add(*_pinching_weight_sample(dim, rng))
    second.add(*random_pd_sample(dim, 10.0, rng))
    second.add(*random_pd_sample(dim, 100.0, rng))
    for _ in range(2):
        second.add(*_rank_deficient_sample(dim, rng), pd=False)
    C, R, bump, D0, A0, B0 = second.matrices()
    return _Draw(dim, a, b, pairs, C, R, _dominated_by(C, bump), _scaled_under(C, D0), A0, B0)


# ---------------------------------------------------------------------------
# the suite driver
# ---------------------------------------------------------------------------

def _merge_into(pool: dict[str, CheckReport], report: CheckReport) -> None:
    if report.check_name in pool:
        pool[report.check_name].merge(report)
    else:
        pool[report.check_name] = report


def trial_grid(a: float, b: float, config: SuiteConfig) -> list[tuple[str, float, float, float]]:
    """The Heron grid of one suite trial with weights (a, b)."""
    items = []
    for frac in config.c_fractions:
        items.append(("spectral_heron", a, b, frac * 2.0 * a * b))
        items.append(("kubo_heron", a, b, frac * 2.0 * a * b))
    for t in config.t_grid:
        for frac in config.c_fractions:
            items.append(("weighted_corollary", 1.0 - t, t, frac * 2.0 * t * (1.0 - t)))
    return items


def iter_instances(config: SuiteConfig):
    """The deterministic randomized instance stream of the suite, one draw
    at a time: yields (offset, rng, dim, a, b, A, B)."""
    for offset in range(config.trials):
        rng, dim, (a, b) = _trial_start(config, offset)
        A = random_pd_from_rng(dim, config.cond_max, rng)
        B = random_pd_from_rng(dim, config.cond_max, rng)
        yield offset, rng, dim, a, b, A, B


def run_suite(config: SuiteConfig) -> RunReport:
    """Run every checker over the deterministic instance stream plus the
    fixed certified instances; identical configs yield identical reports.

    Each trial draws all of its random instances first (`_draw_trial`),
    then runs two stages (see the module docstring): the main pair and
    the equality pairs as one stacked Pair, then pinching with its
    quadratic lift and the semidefinite limit."""
    pool: dict[str, CheckReport] = {}
    tol = config.tol

    # fixed instances first
    one, two = certified_pairs()
    _merge_into(pool, check_incomparability_float(one, two, tol))
    ctx = {"seed_offset": None, "instance": "certified-3x3", "a": 1.0, "b": 1.0}
    for report in _compare(one, [_spreading(1.0, 1.0, ctx), _grid([("kubo_heron", 1.0, 1.0, 2.0)], ctx),
                                 _log_majorization(ctx), _bly(1.0, 1.0, ctx)], tol):
        _merge_into(pool, report)
    for c_over in (2.001, 2.01, 2.1, 3.0):
        _merge_into(pool, check_sharpness_scalar(1.0, 1.0, c_over))

    # randomized stream; contexts hold the matrices themselves, serialized
    # only for a failing record
    for offset in range(config.trials):
        draw = _draw_trial(config, offset)
        dim, a, b, pairs = draw.dim, draw.a, draw.b, draw.pairs
        (A, B), *equality_pairs = pairs
        context = {"seed_offset": offset, "dim": dim, "a": a, "b": b, "A": A, "B": B}
        contexts = [dict(context, A=A_e, B=B_e, variant=variant)
                    for (A_e, B_e), variant in zip(equality_pairs, ("commuting", "noncommuting"))]

        # stage 1: the main pair (index 0) and the equality pairs
        checks = [_grid(trial_grid(a, b, config), context), _spreading(a, b, context),
                  _endpoints(a, b, context), _log_majorization(context), _bly(a, b, context),
                  _equality(range(1, len(pairs)), a, b, contexts)]
        for report in _compare(Pair.stack(pairs), checks, tol):
            _merge_into(pool, report)

        # stage 2: pinching with the quadratic lift of Phi_R(C) and D, and
        # the semidefinite boundary
        ctx_p = dict(context, C=draw.C, R=draw.R)
        ctx_s = dict(context, A=draw.A0, B=draw.B0, variant="rank-deficient")
        for report in _run_staged([_pinching_task(draw.C, draw.R, draw.C1, tol, ctx_p, [draw.D]),
                                   _limit_task(draw.A0, draw.B0, DEFAULT_EPS_SEQUENCE, tol, ctx_s)]):
            _merge_into(pool, report)

    return RunReport(config=config, checks=list(pool.values()))
