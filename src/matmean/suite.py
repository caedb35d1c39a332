"""Randomized and fixed-instance checkers for every comparison theorem.

Each checker evaluates one instance, or a stack of same-dimension
instances with one record each, and returns a CheckReport whose worst
normalized margin decides failure (margin < -tol).  Margins are normalized
by 1 + max|dominating side| so one tolerance knob covers all scales; the
majorization margins are those of the `majorization` kernel.

Every checker is written in two parts, the matrices to gate and the
margin from their spectra, so that a stage can gate the matrices of
several checkers in one stacked call while each margin formula exists
once.  A stage is a `_Plan` of checkers run on one `Pair` stack.  The
checkers name the matrices they use by key; the plan lays out each kind
as one batch of arrays (the Heron sums one broadcast over (a^2, b^2, c),
the W_{a,b} one pass over the weights), and a key named twice is built
and gated once: the sharp Heron sums and W_{a,b} of spreading, endpoints and
BLY are entries of the Heron grid, and a Heron sum at c = 0, which has no
cross term, has one key whatever its checker's cross term.  A key that
is made from others (a difference, a quadratic lift of Phi_R(C)) reads
them as built.  Each mean (X with A natural B, A # B, the square roots)
is computed once, over the pairs whose keys read it: the plan lists
them (`where`) and gives each such key its position in the list, and
the stage takes the Pair of those pairs (`Pair.take`).  Pinching and
the semidefinite limit first make operand pairs: the compression pairs
(R X R, S X S) at X = C, I, 2C and C1, and the eps-levels
(A0 + eps I, B0 + eps I).  On those pairs the maps
Phi_R(X) and the Heron side of the limit are the same keyed sum,
A + B + 2 (A # B); the quadratic lift's keys read C and D from the
trial.  A checker's records go to one report per stage, in item order.
Weights are checked when a checker is made, so once per plan: a plan
depends only on the trial's weights and pair count, and run_suite keeps
one per shape for the process (`_trial_plan`).

The public checkers run one checker through a plan of its own (the
quadratic lift alone is one gate call between its two parts).  run_suite
makes every random draw of a trial first (`_draw_trial`), as one stacked
segment of two parts: A, B, the commuting pair and the first noncommuting
candidate; then the pinching operands C and R, the bump behind C1, the D0
behind D and the rank-deficient A0, B0.  The segment makes all of its rng
draws, then one stacked QR for its Haar unitaries and one stacked
U diag(lambda) U*; `gate_eig` checks the drawn (lambda, U) of the first
part, the candidate is tested, and `gate_eig` checks the second part.  A
rejected candidate restores the rng to its state after the first part and
is redrawn one pair at a time, and the second part is drawn again, so the
draws are those of drawing each instance in turn.  The trial then runs
one stage on one Pair (`Pair.stack`): the main pair, the two equality
pairs, then the four compression pairs and the four eps-levels, whose raw
operands are gated in one call of their own first.
So X, and with it A natural B and W_{a,b}, is computed on the first three
pairs and the compression pair of C only, and one gate holds every
compared matrix of the trial, those of pinching, its lift and the limit
first.

The certified instances and their float replay come from `exact`
(`certified_pairs`, `certified_replay`); the dependency runs one way, so
`exact` and the `certify` command never load this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InstanceDrawError, InvalidWeightsError, MatrixFormatError
from .exact import certified_pairs, certified_replay, scalar_heron_gap
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
    require,
    require_weights,
)
from .majorization import ky_fan_margins, trace_margin, weak_margin
from .means import Pair, _check_dims, heron_batch, joint_means, wasserstein_batch
from .report import CheckReport
from .schur import pinching_compressions

# The test design: the weights (a, b) of each trial, in turn, the
# coefficients c of the Heron grid as fractions of 2ab, the geodesic points
# t of the weighted corollary, and the eps-levels of the semidefinite limit.
WEIGHT_GRID = ((1.0, 1.0), (0.5, 0.5), (1.0, 0.25), (0.3, 0.9), (2.0, 0.5))
C_FRACTIONS = (0.0, 0.5, 1.0)
T_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
EPS_SEQUENCE = (1e-2, 1e-4, 1e-6, 1e-8)


def _finite(x) -> bool:
    """x is a finite number and not a bool (bool is a subclass of int)."""
    return not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 1000
    dims: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    cond_max: float = 1e4
    tol: float = 1e-8

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if type(self.seed) is not int or self.seed < 0:  # bool is a subclass of int
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not self.dims:
            raise ConfigError("dims must be nonempty")
        if any(type(d) is not int or d < 1 for d in self.dims):
            raise ConfigError(f"every dimension must be an integer >= 1, got {self.dims!r}")
        if not (_finite(self.cond_max) and self.cond_max >= 1.0):
            raise ConfigError(f"cond_max must be finite and >= 1, got {self.cond_max}")
        if not (_finite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "cond_max": self.cond_max,
            "tol": self.tol,
            "weight_grid": [list(w) for w in WEIGHT_GRID],
            "c_fractions": list(C_FRACTIONS),
            "t_grid": list(T_GRID),
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


# ---------------------------------------------------------------------------
# margin helpers
# ---------------------------------------------------------------------------

def _eq_margin(gap, scale):
    """Margin form of an equality constraint |gap| <= tol * scale."""
    return -np.abs(gap) / scale


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

# The matrices of pair p of a (flattened) Pair stack, by key.  The kinds
# in HERMITIAN_KINDS are gated as Hermitian, every other kind as positive
# definite.
#   ("heron", p, cross, a, b, c)     a^2 A + b^2 B + c M, M the `cross` mean
#   ("W", p, a, b)                   W_{a,b}
#   ("spectral", p), ("geometric", p)   A natural B, A # B
#   ("bly", p, a, b)                 (a A^{1/2} + b B^{1/2})^2
#   ("difference", key1, key2)       the matrix of key1 minus that of key2
#   ("lift", key), ("lift", "D")     C^{1/2} M C^{1/2}, M that of key or D
#   ("D",)                           D, with C the trial's `_Operands`
HERMITIAN_KINDS = ("W", "difference")


class _Operands(NamedTuple):
    """What pinching and the lift read beyond the Pair: C, R, S = I - R
    and the raw D."""

    C: PDMatrix
    R: PDMatrix | None = None
    S: np.ndarray | None = None
    D: np.ndarray | None = None


def _bly_rhs(built: _Built, batch) -> np.ndarray:
    at, a, b = batch
    Ah, Bh = (as_stack(M)[at] for M in built.means["sqrt"].sqrt())
    T = a * Ah + b * Bh
    return hermitian_part(T @ T)


def _lifts(built: _Built, sources) -> np.ndarray:
    C, _, _, D = built.operands
    return _lift_matrices(C, [D if row == "D" else built.mats[row] for row in sources])


def _indices(p) -> np.ndarray:
    return np.array(p, dtype=np.intp)


# Each kind's (prepare, make): prepare(*columns) turns the columns of its
# keys into a batch of arrays once per plan, a key in a column standing
# for its row and a key that reads a mean ending in its position in that
# mean's pairs; make(built, batch) builds the matrices.
_MAKERS = {
    "heron": (heron_batch, lambda built, batch: built.pair.herons(batch, built.means)),
    "W": (wasserstein_batch, lambda built, batch: built.pair.wassersteins(batch, built.means)[0]),
    "spectral": (lambda p, at: _indices(at), lambda built, at: as_stack(built.means["riccati"].spectral())[at]),
    "geometric": (lambda p, at: _indices(at), lambda built, at: as_stack(built.means["geometric"].geometric())[at]),
    "bly": (lambda p, a, b, at: (_indices(at), *(np.array(x, dtype=np.float64)[:, None, None] for x in (a, b))),
            _bly_rhs),
    "difference": (lambda *keys: [_indices(rows) for rows in keys],
                   lambda built, rows: built.mats[rows[0]] - built.mats[rows[1]]),
    "lift": (tuple, _lifts),
    "D": (tuple, lambda built, _: built.operands.D),
}

# The mean that a key of each kind may read on its pair p, by the Pair
# method that computes it: "riccati" (X, with A natural B built from it),
# "geometric" or "sqrt", or None for none.  A Heron sum reads the mean of
# its cross term unless c = 0, and W_{a,b} reads X unless a weight is 0.
_READS = {
    "heron": lambda p, cross, a, b, c: ("riccati" if cross == "spectral" else "geometric", p) if c else None,
    "W": lambda p, a, b: ("riccati", p) if a and b else None,
    "spectral": lambda p: ("riccati", p),
    "geometric": lambda p: ("geometric", p),
    "bly": lambda p, *_: ("sqrt", p),
}


class _Check(NamedTuple):
    """One checker's part of a stage: groups of the keys of the matrices
    whose spectra it compares (gated) and of those it uses otherwise, and
    its reports(built, rows, tol, context) from the rows of each group."""

    gated: tuple
    plain: tuple
    reports: Callable[..., list[CheckReport]]


class _Plan:
    """A stage's layout: each key once, those gated as positive definite
    first (so a failure names the same stack index whatever Hermitian
    ones a stage adds), the plain ones last; the pairs each mean is
    computed on (`where`, sorted, each once) and, by row, the position
    in them of the pair a key reads (`at`; a key that reads no mean has
    none, and its batch gets position 0, which it skips); each kind's
    batch, those that others read first; the rows each check reads.  It
    is only read once made."""

    def __init__(self, checks: list[_Check]):
        def flat(part: str) -> dict:
            return dict.fromkeys(key for check in checks for group in getattr(check, part) for key in group)

        gated = sorted(flat("gated"), key=lambda key: key[0] in HERMITIAN_KINDS)
        seen = set(gated)
        keys = gated + [key for key in flat("plain") if key not in seen]
        index = {key: i for i, key in enumerate(keys)}
        self.size = len(keys)
        self.pd = np.array([key[0] not in HERMITIAN_KINDS for key in gated])
        kinds: dict = {}
        reads: dict = {}
        pairs: dict = {}
        for i, (kind, *args) in enumerate(keys):
            kinds.setdefault(kind, []).append(i)
            read = kind in _READS and _READS[kind](*args)
            if read:
                mean, p = reads[i] = read
                pairs.setdefault(mean, set()).add(p)
        self.where = {mean: sorted(ps) for mean, ps in pairs.items()}
        self.at = {i: self.where[mean].index(p) for i, (mean, p) in reads.items()}
        self.batches = []
        for kind in sorted(kinds, key=lambda kind: kind not in _READS):
            prepare, make = _MAKERS[kind]
            columns = zip(*([index.get(arg, arg) for arg in keys[i][1:]]
                            + ([self.at.get(i, 0)] if kind in _READS else []) for i in kinds[kind]))
            self.batches.append((_indices(kinds[kind]), make, prepare(*columns)))
        self.checks = [(check.reports, [_indices([index[key] for key in group]) for group in check.gated + check.plain])
                       for check in checks]

    def run(self, pair: Pair, tol: float, contexts, operands: _Operands | None = None) -> list[CheckReport]:
        """The checks' reports on one Pair stack, with one context each."""
        built = _Built(self, pair, operands)
        return [report for (reports, rows), context in zip(self.checks, contexts)
                for report in reports(built, rows, tol, context)]


def _build(built: _Built, batches) -> None:
    """Build the batches of a plan into built.mats, each in one pass."""
    for rows, make, batch in batches:
        built.mats[rows] = make(built, batch)


class _Built:
    """The matrices that a plan builds on one Pair (and operands), the
    Pair of each mean's pairs that computes it (`means`, read at the
    plan's `at`; X and A # B are computed first, in one `joint_means`
    pass), and the spectra of those gated."""

    def __init__(self, plan: _Plan, pair: Pair, operands: _Operands | None):
        self.pair, self.operands, self.at = pair, operands, plan.at
        self.means = {mean: pair.take(where) for mean, where in plan.where.items()}
        joint_means(self.means.get("riccati"), self.means.get("geometric"))
        self.mats = np.empty((plan.size, pair.dim, pair.dim), dtype=np.complex128)
        _build(self, plan.batches)
        self.vals = gate_stack(self.mats[:len(plan.pd)], plan.pd)[0] if len(plan.pd) else None


def _stage(pair: Pair, check: _Check, tol: float, context, operands: _Operands | None = None) -> CheckReport:
    """One checker's report on a Pair, through a plan of its own."""
    return _Plan([check]).run(pair, tol, [context], operands)[0]


# Checkers of the Heron grid, each with the cross term of its Heron
# expression.  weighted_corollary is spectral_heron at (a, b) = (1-t, t).
GRID_CROSS = {"spectral_heron": "spectral", "kubo_heron": "geometric", "weighted_corollary": "spectral"}


def _grid(items) -> _Check:
    """One report per checker in GRID_CROSS, with one record per (check,
    a, b, c) item of it, in item order: lambda(a^2 A + b^2 B + c M) prec_w
    lambda(W_{a,b}) for 0 <= c <= 2ab, with the cross term M of the check.
    With the spectral cross term the endpoint c = 2ab is a true
    majorization, so trace equality is checked there too."""
    checks = [item[0] for item in items]
    a, b, c = (np.array(x, dtype=np.float64) for x in list(zip(*items))[1:])
    names = list(dict.fromkeys(checks))
    picks = [_indices([i for i, check in enumerate(checks) if check == name]) for name in names]
    for name, pick in zip(names, picks):  # one array per checker, so an error names it
        require_weights(name, a=a[pick], b=b[pick], c=c[pick])
    two_ab = 2.0 * a * b
    ok = c <= two_ab * (1.0 + 1e-12)

    def first_bad(_) -> str:
        check, a, b, c = items[int(np.argmin(ok))]
        return f"{check}: need c <= 2ab = {2.0 * a * b}, got a = {a}, b = {b}, c = {c}"

    require(ok.all(), InvalidWeightsError, first_bad)
    # at c = 0 the sum has no cross term, so every check shares one key
    H = tuple(("heron", 0, GRID_CROSS[check] if c else "spectral", a, b, c) for check, a, b, c in items)
    W = tuple(("W", 0, a, b) for _, a, b, _ in items)
    endpoint = np.array([GRID_CROSS[check] == "spectral" for check in checks]) & (two_ab > 0.0) \
        & (c >= two_ab * (1.0 - 1e-12))

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        sH, sW = built.vals[rows[0]], built.vals[rows[1]]
        margins = weak_margin(sH, sW)
        trace_margins = trace_margin(sH, sW)
        margins = np.where(endpoint & (trace_margins < margins), trace_margins, margins)
        return [_report(name, tol, margins[pick], context) for name, pick in zip(names, picks)]

    return _Check((H, W), (), reports)


def heron_grid(pair: Pair, items, tol: float, context: dict | None = None) -> list[CheckReport]:
    """The Heron grid (see `_grid`) of one pair, one report per checker:
    the Heron sums (gated as positive definite) and the distinct W_{a,b}
    (gated as Hermitian) are decomposed in one stacked call."""
    require(len(items) > 0, InvalidWeightsError, lambda _: "items must be nonempty")
    return _Plan([_grid(items)]).run(pair, tol, [context])


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

    require_weights("sharpness_scalar", a=a, b=b, c_over=c_over)
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c_over)
    if not fc > 2 * fa * fb:
        raise InvalidWeightsError(f"need c > 2ab, got c = {c_over}, 2ab = {2 * a * b}")
    report = CheckReport("sharpness_scalar", 0.0)
    exact_margin = scalar_heron_gap(fa, fb, fc)
    identity_holds = exact_margin == fc - 2 * fa * fb
    report.record(float(exact_margin) if (identity_holds and exact_margin > 0) else -1.0,
                  {"seed_offset": None, "a": a, "b": b, "c_over": c_over})
    report.diagnostics["exact_margin"] = str(exact_margin)
    return report


def _spreading(a: float, b: float) -> _Check:
    require_weights("spreading", positive=True, a=a, b=b)
    keys = (("heron", 0, "spectral", a, b, 2.0 * a * b), ("W", 0, a, b))

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        sH, sW = built.vals[rows[0]]
        margins = [weak_margin(sH, sW)]
        # bottom-k sums, Heron side dominating: -lambda(H) prec_w -lambda(W)
        margins.append(weak_margin(-sH[::-1], -sW[::-1]))
        margins.append(trace_margin(sH, sW))
        # determinants compared in the log domain
        logdet_H = float(np.log(sH).sum())
        logdet_W = float(np.log(sW).sum())
        margins.append((logdet_H - logdet_W) / (1.0 + abs(logdet_W)))
        return [_report("spreading", tol, min(margins), context)]

    return _Check((keys,), (), reports)


def check_spreading(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """At the endpoint coefficient the spectral Heron expression is
    spectrally less spread: top-k sums smaller, bottom-k sums larger,
    trace equal, determinant at least as large."""
    return _stage(pair, _spreading(a, b), tol, context)


def _equality(pairs, a: float, b: float) -> _Check:
    require_weights("equality_iff_commuting", positive=True, a=a, b=b)
    pairs = _indices(pairs)
    keys = tuple(tuple((kind, p, *args) for p in pairs.tolist()) for kind, *args in (
        ("heron", "spectral", a, b, 2.0 * a * b), ("heron", "geometric", a, b, 2.0 * a * b), ("W", a, b)))

    def reports(built: _Built, rows, tol: float, contexts) -> list[CheckReport]:
        H_nat, H_kubo, W = (built.mats[r] for r in rows)
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
            np.where(comm >= NONCOMMUTING_FLOOR * comm_scale,
                     (np.minimum(diff_nat, diff_kubo) - 1e-6 * w_norm) / w_norm, 0.0),
        )
        return [_report("equality_iff_commuting", tol, margins, contexts)]

    return _Check((), keys, reports)


def check_equality_iff_commuting(pair: Pair, a: float, b: float,
                                 tol: float, context: dict | list[dict] | None = None) -> CheckReport:
    """Both endpoint Heron expressions equal the Wasserstein expression
    exactly when A and B commute; otherwise they stay separated by a
    data-dependent positive amount.  One record per pair of a stacked
    Pair."""
    return _stage(pair, _equality(range(len(pair)), a, b), tol, context)


def _endpoints(a: float, b: float) -> _Check:
    require_weights("endpoints", a=a, b=b)
    keys = (("heron", 0, "geometric", a, b, 2.0 * a * b), ("W", 0, a, b))

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        sH, sW = built.vals[rows[0]]
        top, scale = ky_fan_margins(sH, sW)
        bottom = ky_fan_margins(-sH[::-1], -sW[::-1])[0]
        # smallest and largest eigenvalue, trace and, for n > 1, (n-1)-sum
        margins = [bottom[0], top[0], top[-1], *top[-2:-1]]
        return [_report("endpoints", tol, min(margins) / scale, context)]

    return _Check((keys,), (), reports)


def check_endpoints(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """Order of the extreme eigenvalues, the trace, and the (n-1)-sum
    between the sharp geometric Heron and Wasserstein expressions."""
    return _stage(pair, _endpoints(a, b), tol, context)


def _log_majorization_means() -> _Check:
    keys = (("geometric", 0), ("spectral", 0))

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        sG, sN = built.vals[rows[0]]  # positive: both are gated as positive definite
        margins, scale = ky_fan_margins(np.log(sG), np.log(sN))
        prefix = margins[:-1].min() / scale if len(sG) > 1 else 0.0
        total = _eq_margin(margins[-1], scale)
        trace = (sN.sum() - sG.sum()) / (1.0 + sN.sum())
        return [_report("log_majorization_means", tol, min(prefix, total, trace), context)]

    return _Check((keys,), (), reports)


def check_log_majorization_means(pair: Pair, tol: float,
                                 context: dict | None = None) -> CheckReport:
    """The geometric mean is log-majorized by the spectral mean; in
    particular its trace is no larger."""
    return _stage(pair, _log_majorization_means(), tol, context)


def _bly(a: float, b: float) -> _Check:
    require_weights("bly", a=a, b=b)
    keys = (("heron", 0, "geometric", a, b, 2.0 * a * b), ("bly", 0, a, b))

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        sH, sR = built.vals[rows[0]]
        rhs = built.mats[rows[0][1]]
        roots, at = built.means["sqrt"], built.at[rows[0][1]]
        A, B, Ah, Bh = (as_stack(M)[at] for M in (roots.A, roots.B, *roots.sqrt()))
        margins = [weak_margin(sH, sR)]
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

    return _Check((keys,), (), reports)


def check_bly(pair: Pair, a: float, b: float,
              tol: float, context: dict | None = None) -> CheckReport:
    """Weak-majorization refinement of the two-variable Heron comparison
    against the squared sum of weighted square roots, plus the expansion
    identity and Schatten p = 1, 2, inf spot checks."""
    return _stage(pair, _bly(a, b), tol, context)


# ---------------------------------------------------------------------------
# pinching, its quadratic lift and the semidefinite limit: their operand
# pairs are made per trial (`_compressions`, `_levels`), and run_suite
# joins them into one gated Pair; all three key the matrices they compare
# like the checkers above
# ---------------------------------------------------------------------------

def _sharp_geometric(p) -> tuple:
    """Key of A + B + 2 (A # B) of pair p: Phi_R(C) when the pair is the
    compression pair (R C R, S C S), and the Heron side of the
    semidefinite limit."""
    return ("heron", p, "geometric", 1.0, 1.0, 2.0)


def _compressions(C: PDMatrix, R: PDMatrix, C1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = I - R and the raw pairs (R X R, S X S) at X = C, I, 2C and C1 <=
    C of `_pinching`.  Only C is gated: the spectra of I and 2C are exact,
    and R C1 R is gated with the operands (congruence by the invertible R
    keeps the inertia)."""
    return pinching_compressions(np.stack([C.mat, np.eye(C.dim), 2.0 * C.mat, C1]), R)


def _pinching(p: int = 0) -> _Check:
    """The check of Phi = Phi_R(C) on the compression pairs as pairs p,
    ..., p+3 of the stage's Pair.  Only Phi_R(C) and the order check's
    Phi_R(C) - Phi_R(C1), gated as Hermitian, are gated: unitality and
    homogeneity read Frobenius norms of Phi_R(I) and Phi_R(2C), and the
    trace identity the spectral mean of pair p, all plain keys."""
    keys = tuple(_sharp_geometric(p + i) for i in range(4))
    gap = ("difference", keys[0], keys[3])

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        C, R, S, _ = built.operands
        n = C.dim
        eye = np.eye(n)
        (Phi,), (sPhi,), (gap_vals,) = built.mats[rows[0]], built.vals[rows[0]], built.vals[rows[1]]
        Phi_eye, Phi2, _, natural = built.mats[rows[2]]
        margins = [weak_margin(sPhi, C.eig().eigenvalues)]
        # unitality
        margins.append(_eq_margin(float(np.linalg.norm(Phi_eye - eye)), 1.0 + math.sqrt(n)))
        # positive homogeneity at alpha = 2
        margins.append(_eq_margin(float(np.linalg.norm(Phi2 - 2.0 * Phi)),
                                  1.0 + 2.0 * float(np.linalg.norm(Phi))))
        # trace-subpreservation
        margins.append((C.trace() - float(np.trace(Phi).real)) / (1.0 + C.trace()))
        # order preservation on the dominated pair C1 <= C
        margins.append(float(gap_vals[-1]) / (1.0 + float(np.abs(gap_vals).max())))
        # trace identity linking the spectral mean of the two compressions
        lhs_tr = float(np.trace(natural).real)
        rhs_tr = float(np.trace(R.mat @ S @ C.mat).real)
        margins.append(_eq_margin(lhs_tr - rhs_tr, 1.0 + abs(rhs_tr)))
        return [_report("pinching", tol, min(margins), context)]

    return _Check(((keys[0],), (gap,)), (keys[1:] + (("spectral", p),),), reports)


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
    S, *compressions = _compressions(C, R, C1)
    return _stage(Pair.gated(*compressions), _pinching(), tol, context, _Operands(C, R, S))


def _lift_matrices(C: PDMatrix, Ds) -> np.ndarray:
    """C^{1/2} D C^{1/2} for each D, raw."""
    Ch = principal_sqrt(C).mat
    return hermitian_part(Ch @ np.stack(Ds) @ Ch)


def _lift_report(C: PDMatrix, dominated: np.ndarray, lifted: np.ndarray, tol: float, context,
                 names) -> CheckReport:
    """lambda(C^{1/2} D C^{1/2}) prec_w lambda(C^2) = lambda(C)^2, one
    record per D, from the stacked spectra of the Ds and of their lifts;
    each D must satisfy the hypothesis lambda(D) prec_w lambda(C), and a
    violation names the D by its entry of `names`."""
    sC = C.eig().eigenvalues
    require(weak_margin(dominated, sC) >= -tol, InvalidWeightsError,
            lambda i: f"instance violates the hypothesis lambda({names[i[0]]}) prec_w lambda(C)")
    return _report("quadratic_lifting", tol, weak_margin(lifted, sC ** 2), context)


def _lift(p: int = 0) -> _Check:
    """The quadratic lift of Phi_R(C), the sharp geometric Heron sum of
    pair p (see `_pinching`), and of the raw D with lambda(D) prec_w
    lambda(C), as the stage built Phi; D is gated with its lift, and
    Phi's hypothesis is read from its gated spectrum."""
    Phi = _sharp_geometric(p)

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        return [_lift_report(built.operands.C, built.vals[rows[1]], built.vals[rows[0]], tol, context,
                             ("Phi_R(C)", "D"))]

    return _Check(((("lift", Phi), ("lift", "D")), (Phi, ("D",))), (), reports)


def check_quadratic_lifting(C: PDMatrix, Ds: list[PDMatrix], tol: float,
                            context: dict | None = None) -> CheckReport:
    """If lambda(D) prec_w lambda(C), the congruence by C^{1/2} lifts the
    comparison to lambda(C^{1/2} D C^{1/2}) prec_w lambda(C^2).  One record
    per D; lambda(C^2) = lambda(C)^2 comes from the gated decomposition of
    C, and the lifted matrices are gated in one stacked call."""
    require(len(Ds) > 0, InvalidWeightsError, lambda _: "Ds must be nonempty")
    lifted = gate_stack(_lift_matrices(C, [D.mat for D in Ds]))[0]
    return _lift_report(C, np.stack([D.eig().eigenvalues for D in Ds]), lifted, tol, context, ["D"] * len(Ds))


def _levels(A0: HermitianMatrix, B0: HermitianMatrix, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The raw pairs (A0 + eps I, B0 + eps I) of `_limit`, one per eps of
    EPS_SEQUENCE.  A0 and B0 are checked positive semidefinite from their
    decompositions (for the suite's, the drawn eigen-data that `gate_eig`
    checked); the gate on the pairs then checks each level definite."""
    _check_dims(A0, B0)
    for M, name in ((A0, "A0"), (B0, "B0")):
        vals = M.eig().eigenvalues
        if float(vals[-1]) < -tol * (1.0 + float(np.abs(vals).max())):
            raise MatrixFormatError(f"{name} must be positive semidefinite")
    # every level at once, each M0 + eps I decomposed afresh: at eps = 1e-8
    # the margin amplifies a decomposition's rounding to about 1e-5, and the
    # eigenvalues of M0 shifted by eps turned a true margin of 1.8e-6 into
    # -1.1e-5 on one rank-one pair
    shift = np.asarray(EPS_SEQUENCE, dtype=np.float64)[:, None, None] * np.eye(A0.dim)
    return A0.mat + shift, B0.mat + shift


def _limit(p: int = 0) -> _Check:
    """`check_semidefinite_limit` on the levels as pairs p, p+1, ..."""
    k = len(EPS_SEQUENCE)
    heron = tuple(_sharp_geometric(p + i) for i in range(k))
    bly = tuple(("bly", p + i, 1.0, 1.0) for i in range(k))

    def reports(built: _Built, rows, tol: float, context) -> list[CheckReport]:
        margins = [float(m) for m in weak_margin(built.vals[rows[0]], built.vals[rows[1]])]
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

    return _Check((heron, bly), (), reports)


def check_semidefinite_limit(A0: HermitianMatrix, B0: HermitianMatrix, tol: float = 1e-8,
                             context: dict | None = None) -> CheckReport:
    """Stability of the square-root Heron comparison as a positive
    semidefinite pair is regularized by eps I and eps decreases along
    EPS_SEQUENCE.

    Margins must stay above -tol along the whole sequence.  The distance
    between the final margin and the Aitken-extrapolated limit of the
    sequence is recorded as a convergence diagnostic; for singular
    noncommuting pairs it decays like sqrt(eps), so it is reported, not
    gated at tol.
    """
    return _stage(Pair.gated(*_levels(A0, B0, tol)), _limit(), tol, context)


def check_incomparability_float(one: Pair, two: Pair, tol: float = 1e-8) -> CheckReport:
    """Floating replay of the certified incomparability instances
    (`certified_replay`): the k=1 Ky Fan inequality fails one way on the
    3x3 pair, and the trace comparison fails the other way on the 2x2 pair."""
    report = CheckReport("incomparability_float", tol)
    replay = certified_replay(one, two)
    k1_gap = replay["lambda1_sharp"] - replay["lambda1_natural"]
    report.record(k1_gap - 1e-2, {"seed_offset": None, "item": "k=1 failure of direction one"})
    trace_gap = 2.0 * (replay["trace_natural"] - replay["trace_sharp"])
    report.record(trace_gap - 0.6, {"seed_offset": None, "item": "trace failure of direction two"})
    report.diagnostics["k1_gap"] = k1_gap
    report.diagnostics["trace_gap"] = trace_gap
    return report


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------
#
# Each kind of instance has a sampler that makes its rng draws (eigenvalues
# and the complex Gaussian of a Haar unitary) and no linear algebra.  A
# suite trial records its samples in a segment (`_Segment`) and builds all
# of them at once.  The tests build the same instances one at a time from
# the same samplers (`iter_instances` and its helpers in tests/conftest.py)
# and compare the two draws bit for bit.

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


def _scaled_under(C: PDMatrix, D0: PDMatrix) -> np.ndarray:
    """D0 scaled so that lambda(D) prec_w lambda(C); raw (Hermitian by
    construction)."""
    ratios = np.cumsum(C.eig().eigenvalues) / np.cumsum(D0.eig().eigenvalues)
    return (float(ratios.min()) * (1.0 - 1e-12)) * D0.mat


class _Segment:
    """The samples of a trial, recorded as their rng draws are made;
    `build` then makes every matrix at once (one stacked QR for the Haar
    unitaries and one stacked U diag(lambda) U*), and `gated` runs one
    `gate_eig` check of the (lambda, U) of a part before wrapping them."""

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

    def build(self) -> "_Segment":
        """The matrices in the order added, as stacks: `mats`, with the
        drawn decompositions `vals` and `vecs`, none of them checked yet."""
        U = haar_unitaries(np.stack(self.gaussians))
        self.vals = np.stack([entry[0] for entry in self.entries])
        self.vecs = np.stack([U[k] if order is None else U[k][:, order] for _, k, order, _ in self.entries])
        self.pd = [entry[3] for entry in self.entries]
        self.mats = assemble(self.vals, self.vecs)
        return self

    def gated(self, part: slice) -> list:
        """The matrices of a part of the built stacks after one `gate_eig`
        check, whose stack indices count from the part's start: PDMatrix,
        or HermitianMatrix where pd is False, each with its drawn
        decomposition."""
        vals, vecs, pd = self.vals[part], self.vecs[part], self.pd[part]
        gate_eig(vals, vecs, pd)
        return [(PDMatrix if p else HermitianMatrix)._gated(M, v, W)
                for M, v, W, p in zip(self.mats[part], vals, vecs, pd)]


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
    A0: HermitianMatrix  # the rank-deficient pair of the semidefinite limit,
    B0: HermitianMatrix  # with their drawn decompositions


def _trial_start(config: SuiteConfig, offset: int) -> tuple[np.random.Generator, int, tuple[float, float]]:
    """The rng, dimension and weights (a, b) of trial `offset`."""
    return (np.random.default_rng([config.seed, offset]), config.dims[offset % len(config.dims)],
            WEIGHT_GRID[offset % len(WEIGHT_GRID)])


def _second_part(segment: _Segment, dim: int, cond: float, rng: np.random.Generator) -> _Segment:
    """Add the draws of C, R, the bump behind C1, D0 and A0, B0."""
    segment.add(*random_pd_sample(dim, cond, rng))
    segment.add(*_pinching_weight_sample(dim, rng))
    segment.add(*random_pd_sample(dim, 10.0, rng))
    segment.add(*random_pd_sample(dim, 100.0, rng))
    for _ in range(2):
        segment.add(*_rank_deficient_sample(dim, rng), pd=False)
    return segment


def _draw_trial(config: SuiteConfig, offset: int) -> _Draw:
    """The random instances of trial `offset`, made as one segment of two
    parts: A, B, the commuting pair and the first noncommuting candidate;
    then C, R, the bump behind C1, D0 and A0, B0.  The first part is
    gated, then the candidate tested, then the second part gated, so a
    failure is raised where drawing each instance in turn would raise it.
    A rejected candidate restores the rng to its state after the first
    part, is redrawn one pair at a time (`_noncommuting_pair`), and the
    second part is drawn again, so the draws are those of drawing each
    instance in turn."""
    rng, dim, (a, b) = _trial_start(config, offset)
    cond = config.cond_max
    segment = _Segment()
    for _ in range(2):
        segment.add(*random_pd_sample(dim, cond, rng))
    segment.share(*_commuting_sample(dim, cond, rng))
    if dim > 1:
        for _ in range(2):
            segment.add(*random_pd_sample(dim, cond, rng))
        state = rng.bit_generator.state
    first = slice(0, len(segment.entries))
    rest = slice(first.stop, None)
    _second_part(segment, dim, cond, rng).build()
    A, B, A_c, B_c, *candidate = segment.gated(first)
    pairs = [(A, B), (A_c, B_c)]
    if dim > 1:
        if not _clearly_noncommuting(*candidate):
            rng.bit_generator.state = state
            candidate = _noncommuting_pair(dim, cond, rng, tuple(candidate))
            segment, rest = _second_part(_Segment(), dim, cond, rng).build(), slice(None)
        pairs.append(tuple(candidate))
    C, R, bump, D0, A0, B0 = segment.gated(rest)
    return _Draw(dim, a, b, pairs, C, R, _dominated_by(C, bump), _scaled_under(C, D0), A0, B0)


# ---------------------------------------------------------------------------
# the suite driver
# ---------------------------------------------------------------------------

def _merge_into(pool: dict[str, CheckReport], report: CheckReport) -> None:
    if report.check_name in pool:
        pool[report.check_name].merge(report)
    else:
        pool[report.check_name] = report


def trial_grid(a: float, b: float) -> list[tuple[str, float, float, float]]:
    """The Heron grid of one suite trial with weights (a, b)."""
    items = []
    for frac in C_FRACTIONS:
        items.append(("spectral_heron", a, b, frac * 2.0 * a * b))
        items.append(("kubo_heron", a, b, frac * 2.0 * a * b))
    for t in T_GRID:
        for frac in C_FRACTIONS:
            items.append(("weighted_corollary", 1.0 - t, t, frac * 2.0 * t * (1.0 - t)))
    return items


@functools.cache
def _certified_plan() -> _Plan:
    """The stage of the certified 3x3 pair, made once per process."""
    return _Plan([_spreading(1.0, 1.0), _grid([("kubo_heron", 1.0, 1.0, 2.0)]), _log_majorization_means(),
                  _bly(1.0, 1.0)])


@functools.cache
def _trial_plan(a: float, b: float, k: int) -> _Plan:
    """The stage of a trial with weights (a, b) and k drawn pairs, then the
    four compression pairs and the levels, made once per process.  The
    checks of the compression pairs and levels come first, so their
    matrices keep their stack indices in the gate; run_suite passes the
    contexts in this order."""
    return _Plan([_pinching(k), _lift(k), _limit(k + 4), _grid(trial_grid(a, b)), _spreading(a, b),
                  _endpoints(a, b), _log_majorization_means(), _bly(a, b), _equality(range(1, k), a, b)])


def run_suite(config: SuiteConfig) -> RunReport:
    """Run every checker over the deterministic instance stream plus the
    fixed certified instances; identical configs yield identical reports.

    Each trial draws all of its random instances first (`_draw_trial`),
    then runs one stage (see the module docstring) on one Pair: the main
    pair and the equality pairs, then the compression pairs of pinching
    (with its quadratic lift) and the eps-levels of the semidefinite
    limit, which are gated as operands first.  Only the stage plans are
    kept for the process (`_trial_plan`, `_certified_plan`); the fixed
    instances and every trial are computed afresh on each call."""
    pool: dict[str, CheckReport] = {}
    tol = config.tol

    # fixed instances first
    one, two = certified_pairs()
    _merge_into(pool, check_incomparability_float(one, two, tol))
    ctx = {"seed_offset": None, "instance": "certified-3x3", "a": 1.0, "b": 1.0}
    for report in _certified_plan().run(one, tol, [ctx] * 4):
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
        ctx_p = dict(context, C=draw.C, R=draw.R)
        ctx_s = dict(context, A=draw.A0, B=draw.B0, variant="rank-deficient")

        # the main pair (index 0) and the equality pairs, then the
        # compression pairs and the eps-levels after them, whose raw
        # operands are gated in one call of their own; neither they nor
        # the Pair joined here are kept through the stage's gate
        S, *compressions = _compressions(draw.C, draw.R, draw.C1)
        levels = _levels(draw.A0, draw.B0, tol)
        pair = Pair.stack([*pairs, Pair.gated(*map(np.concatenate, zip(compressions, levels)))])
        del compressions, levels
        plan = _trial_plan(a, b, len(pairs))
        for report in plan.run(pair, tol, [ctx_p, ctx_p, ctx_s] + [context] * 5 + [contexts],
                               _Operands(draw.C, draw.R, S, draw.D)):
            _merge_into(pool, report)

    return RunReport(config=config, checks=list(pool.values()))
