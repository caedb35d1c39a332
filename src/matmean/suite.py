"""Randomized and fixed-instance checkers for every comparison theorem.

Each checker evaluates one instance, or a stack of same-dimension
instances with one record each, and returns a CheckReport whose worst
normalized margin decides failure (margin < -tol).  Margins are normalized
by 1 + max|dominating side| so one tolerance knob covers all scales.

A record's margin is the least of its named parts (PARTS, one table for
every checker), each a relation of a dominated to a dominating side, two
keyed matrices: of their spectra (`_SPECTRAL`) or of the matrices
(`_MATRIX`: ||x - arg y||, tr x <= tr y, ||x - y|| >= arg ||y||).  An
identity's parts are tagged `equality`, and the stage takes their
margins as -|gap| in one pass.  A record keeps the parts of its case (the
equality case those of its pair's commuting zone).  A stage is a `_Plan`
of records run on one `Pair` stack, each naming its checker and its pair:
it builds and gates each key once, each kind in one batch, computes each
mean once over the pairs whose keys read it (`where`, `Pair.take`),
evaluates each relation in one call over all of its parts, and records
each margin in one report per checker with its pair's context.  Pinching
and the semidefinite limit first make operand pairs, the compressions
(R X R, S X S) and the eps-levels, on which Phi_R(X) and the limit's
Heron side are the one keyed sum A + B + 2 (A # B).  Weights are checked
when a checker is made; run_suite keeps one plan per trial shape
(`_trial_plan`) and runs one stage per trial, and a public checker runs
a plan of its own.

The certified instances and their float replay come from `exact`
(`certified_pairs`, `certified_replay`); the dependency runs one way, so
`exact` and the `certify` command never load this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InstanceDrawError, InvalidWeightsError, MatrixFormatError
from .exact import certified_pairs, certified_replay, scalar_heron_gap
from .linalg import (
    HermitianMatrix,
    PDMatrix,
    adjoint,
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
from .majorization import ky_fan_margins, weak_margin
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


def _design() -> dict:
    """The test design as a report's config writes it."""
    return {"weight_grid": [list(w) for w in WEIGHT_GRID], "c_fractions": list(C_FRACTIONS), "t_grid": list(T_GRID)}


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
            **_design(),
        }

    @classmethod
    def from_dict(cls, config: dict) -> SuiteConfig:
        """The config that `to_dict` wrote, as a report holds it, checked
        as the constructor checks it.  A report of another test design is
        refused, naming its first key that differs from this suite's."""
        for key, value in _design().items():
            if config.get(key) != value:
                raise ConfigError(f"{key} must be this suite's {value}, got {config.get(key)}")
        fields = {key: config.get(key) for key in ("seed", "trials", "cond_max", "tol")}
        return cls(dims=tuple(config.get("dims") or ()), **fields)


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
# the parts of a margin: each relation written once, over a stage's parts
# ---------------------------------------------------------------------------

def _ky_fan_entry(x, y, k):
    """The normalized Ky Fan margin at entry k, counted from the end where
    k < 0 (entry -2 is the trace's at n = 1)."""
    margins, scale = ky_fan_margins(x, y)
    return margins[np.arange(len(k)), np.maximum(k.astype(np.intp), -x.shape[-1])] / scale


def _log_ky_fan(x, y, total: bool):
    """The least log Ky Fan margin below k = n (0 at n = 1), or the gap
    between the totals, sum log y - sum log x."""
    margins, scale = ky_fan_margins(np.log(x), np.log(y))
    if total:
        return margins[:, -1] / scale
    return margins[:, :-1].min(-1) / scale if x.shape[-1] > 1 else np.zeros(len(x))


def _schatten(x, y, p):
    """||x||_p <= ||y||_p over 1 + ||y||_p, for the Schatten norms p = 1, 2
    and inf of decreasing spectra; tagged as an identity at p = 1 it is the
    trace equality, -|sum y - sum x| / (1 + |sum y|), hence the abs."""
    nx, ny = (np.where(p == 1.0, s.sum(-1), np.where(p == 2.0, np.sqrt((s ** 2).sum(-1)), s[:, 0])) for s in (x, y))
    return (ny - nx) / (1.0 + np.abs(ny))


# The relations between spectra, f(x, y, arg) over a stage's parts, one row
# each: x, y the decreasing spectra of the sides, arg a Ky Fan k or a p.
_SPECTRAL = {
    "weak": lambda x, y, _: weak_margin(x, y),
    # the Ky Fan sums of -x reversed are minus the bottom-k sums of x
    "bottom": lambda x, y, _: weak_margin(-x[:, ::-1], -y[:, ::-1]),
    "ky_fan": _ky_fan_entry,
    "bottom_ky_fan": lambda x, y, k: _ky_fan_entry(-x[:, ::-1], -y[:, ::-1], k),
    # det x <= det y in the log domain, normalized by the dominated side
    "log_det": lambda x, y, _: (np.log(y).sum(-1) - np.log(x).sum(-1)) / (1.0 + np.abs(np.log(x).sum(-1))),
    "log_prefix": lambda x, y, _: _log_ky_fan(x, y, False),
    "log_total": lambda x, y, _: _log_ky_fan(x, y, True),
    "schatten": _schatten,
    # x <= y in the Loewner order, read from the gated spectrum of y - x
    "loewner": lambda _, gap, __: gap[:, -1] / (1.0 + np.abs(gap).max(-1)),
}


def _norms(mats) -> np.ndarray:
    """np.linalg.norm of each matrix of a stack, with its own summation."""
    return np.array([np.linalg.norm(M) for M in mats])


def _traces(x, y, _):
    """tr x <= tr y, normalized by 1 + |tr y|."""
    tx, ty = (np.trace(M, axis1=-2, axis2=-1).real for M in (x, y))
    return (ty - tx) / (1.0 + np.abs(ty))


# The relations between matrices, f(x, y, arg) over a stage's parts, one row
# each: x, y the sides' rows of built.mats, arg a scale of y.
_MATRIX = {
    # ||x - arg y||, normalized by 1 + arg ||y||, of an identity x = arg y
    "equal": lambda x, y, arg: _norms(x - arg[:, None, None] * y) / (1.0 + arg * _norms(y)),
    "tr": _traces,
    # ||x - y|| >= arg ||y||, normalized by ||y||; at arg 0 the gap of x = y
    "apart": lambda x, y, arg: (frobenius(x - y) - arg * frobenius(y)) / frobenius(y),
}


class _Part(NamedTuple):
    """A named part of a record's margin: its relation (in `_SPECTRAL` or
    `_MATRIX`) of the dominated to the dominating side, its arg, and
    whether it is an identity (`equality`, margin -|gap|)."""

    name: str
    relation: str
    dominated: object
    dominating: object
    arg: float = 0.0
    equality: bool = False


# The parts of each checker that runs in a stage, in the order its record
# takes their min, the identities tagged.  The Heron grid checks those only
# at c = 2ab.  On the compression pair (R C R, S C S), tr(A natural B) = tr(R S C).
PARTS = {
    "spectral_heron": (_Part("weak", "weak", "H", "W"), _Part("trace", "schatten", "H", "W", 1, True)),
    "kubo_heron": (_Part("weak", "weak", "H", "W"),),
    "weighted_corollary": (_Part("weak", "weak", "H", "W"), _Part("trace", "schatten", "H", "W", 1, True)),
    "spreading": (_Part("weak", "weak", "H_natural", "W"), _Part("bottom", "bottom", "H_natural", "W"),
                  _Part("trace", "schatten", "H_natural", "W", 1, True), _Part("log_det", "log_det", "W", "H_natural")),
    "endpoints": (_Part("lambda_min", "bottom_ky_fan", "H_kubo", "W", 0),
                  _Part("lambda_max", "ky_fan", "H_kubo", "W", 0), _Part("trace", "ky_fan", "H_kubo", "W", -1),
                  _Part("top_n_minus_1", "ky_fan", "H_kubo", "W", -2)),
    "log_majorization_means": (_Part("log_prefix", "log_prefix", "G", "N"),
                               _Part("log_det_equality", "log_total", "G", "N", 0, True),
                               _Part("trace", "schatten", "G", "N", 1)),
    "bly": (_Part("weak", "weak", "H_kubo", "R"), _Part("expansion", "equal", "R_expanded", "R", 1, True),
            *(_Part(f"schatten_{p:g}", "schatten", "H_kubo", "R", p) for p in (1, 2, math.inf))),
    "pinching": (_Part("weak", "weak", "Phi", "C"), _Part("unitality", "equal", "Phi(I)", "I", 1, True),
                 _Part("homogeneity", "equal", "Phi(2C)", "Phi", 2, True),
                 _Part("trace_subpreservation", "tr", "Phi", "C_matrix"),
                 _Part("order", "loewner", "Phi(C1)", "Phi"), _Part("trace_identity", "tr", "N", "RSC", 0, True)),
    "quadratic_lifting": (_Part("lift", "weak", "lift", "C^2"),),
    "semidefinite_limit": tuple(_Part(f"eps={eps:g}", "weak", ("H_kubo", i), ("R", i))
                                for i, eps in enumerate(EPS_SEQUENCE)),
    "equality_iff_commuting": (_Part("natural", "apart", "H_natural", "W", 0, True),
                               _Part("kubo", "apart", "H_kubo", "W", 0, True),
                               _Part("natural_apart", "apart", "H_natural", "W", 1e-6),
                               _Part("kubo_apart", "apart", "H_kubo", "W", 1e-6)),
}


def _bind(parts, keys: dict) -> tuple:
    """The parts with their roles replaced by the keys of one record."""
    return tuple(part._replace(dominated=keys.get(part.dominated), dominating=keys.get(part.dominating))
                 for part in parts)


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
#   ("expansion", p, a, b)           a^2 A + b^2 B + ab (A^{1/2} B^{1/2} + B^{1/2} A^{1/2})
#   ("difference", key1, key2)       the matrix of key1 minus that of key2
#   ("lift", key)                    C^{1/2} M C^{1/2}, M that of key
#   ("D", i)                         D_i, with C, R and S the stage's `_Operands`
#   ("I",), ("C_matrix",), ("RSC",)  I, C and R S C
#   ("C", k)                         never built: lambda(C)^k, from C's decomposition
HERMITIAN_KINDS = ("W", "difference")
MADE_FROM_KEYS = ("difference", "lift")


def _keys(p: int, a: float, b: float) -> dict:
    """The key of each role of a checker of pair p, Heron sums at c = 2ab."""
    c = 2.0 * a * b
    return {"H_natural": ("heron", p, "spectral", a, b, c), "H_kubo": ("heron", p, "geometric", a, b, c),
            "W": ("W", p, a, b), "R": ("bly", p, a, b), "R_expanded": ("expansion", p, a, b), "G": ("geometric", p),
            "N": ("spectral", p)}


class _Operands(NamedTuple):
    """What pinching and the lift read beyond the Pair: C, R, S = I - R, Ds."""

    C: PDMatrix
    R: PDMatrix | None = None
    S: np.ndarray | None = None
    D: np.ndarray | None = None


def _bly_rhs(built: _Built, batch) -> np.ndarray:
    at, a, b = batch
    Ah, Bh = (as_stack(M)[at] for M in built.means["sqrt"].sqrt())
    T = a * Ah + b * Bh
    return hermitian_part(T @ T)


def _expansion(built: _Built, batch) -> np.ndarray:
    at, a, b = batch
    roots = built.means["sqrt"]
    A, B, Ah, Bh = (as_stack(M)[at] for M in (roots.A, roots.B, *roots.sqrt()))
    cross = Ah @ Bh
    return a * a * A + b * b * B + a * b * (cross + adjoint(cross))


def _lifts(built: _Built, rows) -> np.ndarray:
    Ch = principal_sqrt(built.operands.C).mat
    return hermitian_part(Ch @ built.mats[rows] @ Ch)


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
    "lift": (_indices, _lifts),
    "D": (_indices, lambda built, i: built.operands.D[i]),
    "I": (lambda: None, lambda built, _: np.eye(built.mats.shape[-1])),
    "C_matrix": (lambda: None, lambda built, _: built.operands.C.mat),
    "RSC": (lambda: None, lambda built, _: built.operands.R.mat @ built.operands.S @ built.operands.C.mat),
}
_MAKERS["expansion"] = (_MAKERS["bly"][0], _expansion)  # from the same batch of arrays as "bly"

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
_READS["expansion"] = _READS["bly"]


class _Record(NamedTuple):
    """One record of a stage: its checker's report name, the pair of the
    stage's Pair whose context it records with, and its bound parts."""

    name: str
    pair: int
    parts: tuple


def _compared(part: _Part) -> tuple:
    """The keys a part reads: its sides, or their difference twice."""
    if part.relation == "loewner":
        return (("difference", part.dominating, part.dominated),) * 2
    return part.dominated, part.dominating


class _Plan:
    """A stage's layout: each key once (`keys`), those whose spectra a part
    compares first and gated, positive definite first (so a failure names
    the same stack index whatever Hermitian ones a stage adds); the pairs
    each mean is computed on (`where`, sorted, each once); each kind's
    batch, those made from other keys last, with the position in `where`
    of the pair a key reads (none if it reads no mean: its batch skips
    position 0); each relation's rows, args and places; the identities';
    and the first record of each checker (`first`)."""

    def __init__(self, records: list[_Record]):
        self.records, self.first = records, {}
        for slot, record in enumerate(records):
            self.first.setdefault(record.name, slot)

        def sides(spectral: bool) -> list:
            return [_compared(part)[side] for record in records for side in (0, 1)
                    for part in record.parts if (part.relation in _SPECTRAL) == spectral]

        compared, plain = sides(True), sides(False)
        gated = sorted(dict.fromkeys(key for key in compared if key[0] != "C"),
                       key=lambda key: key[0] in HERMITIAN_KINDS)
        self.keys = keys = list(dict.fromkeys(gated + plain + [arg for key in gated + plain
                                                               if key[0] in MADE_FROM_KEYS for arg in key[1:]]))
        index = {key: i for i, key in enumerate(keys)}
        self.pd = np.array([key[0] not in HERMITIAN_KINDS for key in gated])
        self.powers = list(dict.fromkeys(key[1] for key in compared if key[0] == "C"))
        spectra = index | {("C", k): len(gated) + i for i, k in enumerate(self.powers)}
        kinds, reads, pairs = {}, {}, {}
        for i, (kind, *args) in enumerate(keys):
            kinds.setdefault(kind, []).append(i)
            read = kind in _READS and _READS[kind](*args)
            if read:
                mean, p = reads[i] = read
                pairs.setdefault(mean, set()).add(p)
        self.where = {mean: sorted(ps) for mean, ps in pairs.items()}
        at = {i: self.where[mean].index(p) for i, (mean, p) in reads.items()}
        self.batches = []
        for kind in sorted(kinds, key=lambda kind: kind in MADE_FROM_KEYS):
            prepare, make = _MAKERS[kind]
            columns = zip(*([index.get(arg, arg) for arg in keys[i][1:]]
                            + ([at.get(i, 0)] if kind in _READS else []) for i in kinds[kind]))
            self.batches.append((_indices(kinds[kind]), make, prepare(*columns)))
        relations: dict = {}
        for slot, record in enumerate(records):
            for j, part in enumerate(record.parts):
                rows = spectra if part.relation in _SPECTRAL else index
                relations.setdefault(part.relation, []).append((slot, j, *(rows[key] for key in _compared(part)),
                                                                part.arg))
        self.shape = (len(records), max(1, *(len(r.parts) for r in records)))  # a record of no parts reads +inf
        self.relations = []
        for relation, table in relations.items():
            slots, js, x, y, args = zip(*table)
            self.relations.append((relation, _indices(slots) * self.shape[1] + _indices(js), _indices(x),
                                   _indices(y), np.array(args, dtype=np.float64)))
        self.equalities = _indices([slot * self.shape[1] + j for slot, record in enumerate(records)
                                    for j, part in enumerate(record.parts) if part.equality])

    def run(self, pair: Pair | None, tol: float, contexts, operands: _Operands | None = None) -> list[CheckReport]:
        """One report per checker on one Pair stack, each record with the
        context of its pair (one per pair, one if there is no Pair), in the
        order of their first records: each relation is evaluated in one call."""
        built = _Built(self, pair, operands)
        parts = np.full(self.shape, np.inf)
        flat = parts.reshape(-1)
        for relation, at, x, y, args in self.relations:
            if relation in _SPECTRAL:
                flat[at] = _SPECTRAL[relation](built.vals[x], built.vals[y], args)
            else:
                flat[at] = _MATRIX[relation](built.mats[x], built.mats[y], args)
        flat[self.equalities] = -np.abs(flat[self.equalities])
        # the least part of each record as min() picks it (the first of
        # equal parts, so -0.0 before 0.0), but NaN where any part is NaN
        margins = parts[np.arange(len(parts)), parts.argmin(axis=1)]
        reports = {name: CheckReport(name, tol) for name in self.first}
        for record, margin in zip(self.records, margins.tolist()):
            reports[record.name].record(margin, contexts[record.pair])
        for name, slot in self.first.items():
            if name in _DIAGNOSTICS:
                _DIAGNOSTICS[name](reports[name], parts[slot, :len(self.records[slot].parts)])
        return list(reports.values())


def _build(built: _Built, batches) -> None:
    """Build the batches of a plan into built.mats, each in one pass."""
    for rows, make, batch in batches:
        built.mats[rows] = make(built, batch)


class _Built:
    """The matrices a plan builds on one Pair (None if it reads no mean) and
    operands, by row of the plan's `keys`; the Pair of each mean's pairs
    (`means`; X and A # B in one `joint_means` pass); and the spectra its
    parts compare (`vals`): those gated, then the plan's powers of C's."""

    def __init__(self, plan: _Plan, pair: Pair | None, operands: _Operands | None):
        self.pair, self.operands = pair, operands
        dim = (operands.C if pair is None else pair).dim
        self.means = {mean: pair.take(where) for mean, where in plan.where.items()}
        joint_means(self.means.get("riccati"), self.means.get("geometric"))
        self.mats = np.empty((len(plan.keys), dim, dim), dtype=np.complex128)
        _build(self, plan.batches)
        self.vals = gate_stack(self.mats[:len(plan.pd)], plan.pd)[0] if len(plan.pd) else np.empty((0, dim))
        if plan.powers:
            self.vals = np.concatenate([self.vals, [operands.C.eig().eigenvalues ** k for k in plan.powers]])


def _stage(pair: Pair | None, records: list, tol: float, context, operands: _Operands | None = None) -> CheckReport:
    """One checker's report on a Pair, through a plan of its own, with one
    context for every pair or a list of one per pair."""
    size = 1 if pair is None else len(pair)
    contexts = context if isinstance(context, list) else [context] * size
    if len(contexts) != size:
        raise MatrixFormatError(f"{len(contexts)} contexts for a stack of {size} pairs")
    return _Plan(records).run(pair, tol, contexts, operands)[0]


def _records(name: str, a: float = 1.0, b: float = 1.0, pairs=(0,)) -> list[_Record]:
    """A checker's records on `pairs`, one each, with its weights checked
    (positive for those in POSITIVE_WEIGHTS)."""
    require_weights(name, positive=name in POSITIVE_WEIGHTS, a=a, b=b)
    return [_Record(name, p, _bind(PARTS[name], _keys(p, a, b))) for p in pairs]


# Checkers of the Heron grid, each with the cross term of its Heron
# expression.  weighted_corollary is spectral_heron at (a, b) = (1-t, t).
GRID_CROSS = {"spectral_heron": "spectral", "kubo_heron": "geometric", "weighted_corollary": "spectral"}
# Checkers whose weights must be positive, not only nonnegative.
POSITIVE_WEIGHTS = ("spreading", "equality_iff_commuting")


def _grid(items) -> list[_Record]:
    """One report per checker in GRID_CROSS, with one record per (check,
    a, b, c) item of it, in item order: lambda(a^2 A + b^2 B + c M) prec_w
    lambda(W_{a,b}) for 0 <= c <= 2ab, with the cross term M of the check.
    With the spectral cross term the endpoint c = 2ab is a true
    majorization, so its identity, trace equality, is checked there too."""
    checks = [item[0] for item in items]
    a, b, c = (np.array(x, dtype=np.float64) for x in list(zip(*items))[1:])
    for name in dict.fromkeys(checks):  # one array per checker, so an error names it
        pick = _indices([i for i, check in enumerate(checks) if check == name])
        require_weights(name, a=a[pick], b=b[pick], c=c[pick])
    two_ab = 2.0 * a * b
    ok = c <= two_ab * (1.0 + 1e-12)

    def first_bad(_) -> str:
        check, a, b, c = items[int(np.argmin(ok))]
        return f"{check}: need c <= 2ab = {2.0 * a * b}, got a = {a}, b = {b}, c = {c}"

    require(ok.all(), InvalidWeightsError, first_bad)
    endpoint = (two_ab > 0.0) & (c >= two_ab * (1.0 - 1e-12))
    # at c = 0 the sum has no cross term, so every check shares one key
    return [_Record(check, 0, _bind(tuple(part for part in PARTS[check] if end or not part.equality),
                                    {"H": ("heron", 0, GRID_CROSS[check] if c else "spectral", a, b, c),
                                     "W": ("W", 0, a, b)}))
            for (check, a, b, c), end in zip(items, endpoint)]


def heron_grid(pair: Pair, items, tol: float, context: dict | None = None) -> list[CheckReport]:
    """The Heron grid (see `_grid`) of one pair, one report per checker:
    the Heron sums (gated as positive definite) and the distinct W_{a,b}
    (gated as Hermitian) are decomposed in one stacked call."""
    require(len(items) > 0, InvalidWeightsError, lambda _: "items must be nonempty")
    return _Plan(_grid(items)).run(pair, tol, [context])


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


def check_spreading(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """At the endpoint coefficient the spectral Heron expression is
    spectrally less spread: top-k sums smaller, bottom-k sums larger,
    trace equal, determinant at least as large."""
    return _stage(pair, _records("spreading", a, b), tol, context)


def _commutator_ratio(A, B) -> np.ndarray:
    """||AB - BA|| / (||A|| ||B||), Frobenius, over a stack of pairs: the
    draw's test of NONCOMMUTING_FLOOR, and the zones of
    `check_equality_iff_commuting`."""
    return frobenius(A @ B - B @ A) / (frobenius(A) * frobenius(B))


def _equality(a: float, b: float, pairs, commuting) -> list[_Record]:
    """The equality case's records on `pairs`, with the parts of each pair's
    zone: the identities H = W where it commutes (True), the separations
    where it is apart (False), none in the gray zone between (None)."""
    return [record._replace(parts=tuple(part for part in record.parts if part.equality == zone))
            for record, zone in zip(_records("equality_iff_commuting", a, b, pairs), commuting, strict=True)]


def check_equality_iff_commuting(pair: Pair, a: float, b: float,
                                 tol: float, context: dict | list[dict] | None = None) -> CheckReport:
    """Both endpoint Heron expressions equal the Wasserstein expression
    exactly when A and B commute; otherwise they stay separated by a
    data-dependent positive amount.  One record per pair of a stacked
    Pair, in the zone of its `_commutator_ratio` (`_equality`), with the
    one context or that of its pair in a list of one per pair."""
    ratio = _commutator_ratio(as_stack(pair.A), as_stack(pair.B)).tolist()
    zones = [True if r <= COMMUTING_CEILING else False if r >= NONCOMMUTING_FLOOR else None for r in ratio]
    return _stage(pair, _equality(a, b, range(len(pair)), zones), tol, context)


def check_endpoints(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """Order of the extreme eigenvalues, the trace, and the (n-1)-sum
    between the sharp geometric Heron and Wasserstein expressions."""
    return _stage(pair, _records("endpoints", a, b), tol, context)


def check_log_majorization_means(pair: Pair, tol: float,
                                 context: dict | None = None) -> CheckReport:
    """The geometric mean is log-majorized by the spectral mean; in
    particular its trace is no larger."""
    return _stage(pair, _records("log_majorization_means"), tol, context)


def check_bly(pair: Pair, a: float, b: float,
              tol: float, context: dict | None = None) -> CheckReport:
    """Weak-majorization refinement of the two-variable Heron comparison
    against the squared sum of weighted square roots, plus the expansion
    identity and Schatten p = 1, 2, inf spot checks."""
    return _stage(pair, _records("bly", a, b), tol, context)


# ---------------------------------------------------------------------------
# pinching, its quadratic lift and the semidefinite limit, on operand pairs
# made per trial (`_compressions`, `_levels`) and joined into one gated Pair
# ---------------------------------------------------------------------------

def _compressions(C: PDMatrix, R: PDMatrix, C1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = I - R and the raw pairs (R X R, S X S) at X = C, I, 2C and C1 <=
    C of `_pinching`.  Only C is gated: the spectra of I and 2C are exact,
    and R C1 R is gated with the operands (congruence by the invertible R
    keeps the inertia)."""
    return pinching_compressions(np.stack([C.mat, np.eye(C.dim), 2.0 * C.mat, C1]), R)


def _pinching(p: int = 0) -> list[_Record]:
    """The check of Phi = Phi_R(C) on the compression pairs as pairs p,
    ..., p+3 of the stage's Pair, where Phi_R(X) is their sharp geometric
    Heron sum A + B + 2 (A # B).  Only Phi_R(C) and Phi_R(C) - Phi_R(C1)
    are gated; the identities also read Phi_R(I), Phi_R(2C), A natural B,
    I, C and R S C."""
    keys = {role: _keys(p + i, 1.0, 1.0)["H_kubo"] for i, role in enumerate(("Phi", "Phi(I)", "Phi(2C)", "Phi(C1)"))}
    keys |= {"C": ("C", 1), "N": ("spectral", p), "I": ("I",), "C_matrix": ("C_matrix",), "RSC": ("RSC",)}
    return [_Record("pinching", p, _bind(PARTS["pinching"], keys))]


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
    _check_dims(C, R)
    if rng is None:
        rng = np.random.default_rng(0)
    C1 = _dominated_by(C, random_pd_from_rng(C.dim, 10.0, rng))
    S, *compressions = _compressions(C, R, C1)
    return _stage(Pair.gated(*compressions), _pinching(), tol, context, _Operands(C, R, S))


def _lift(Ds: int, p: int | None = None) -> list[_Record]:
    """lambda(C^{1/2} M C^{1/2}) prec_w lambda(C)^2, one record per M on pair
    p (or 0): Phi_R(C) of pair p if p is given, then each D of the operands.
    Pinching's weak part is the hypothesis lambda(M) prec_w lambda(C) for Phi_R(C)."""
    sources = [_keys(p, 1.0, 1.0)["H_kubo"]] if p is not None else []
    sources += [("D", i) for i in range(Ds)]
    return [_Record("quadratic_lifting", p or 0,
                    _bind(PARTS["quadratic_lifting"], {"lift": ("lift", key), "C^2": ("C", 2)})) for key in sources]


def check_quadratic_lifting(C: PDMatrix, Ds: list[PDMatrix], tol: float,
                            context: dict | None = None) -> CheckReport:
    """If lambda(D) prec_w lambda(C), the congruence by C^{1/2} lifts the
    comparison to lambda(C^{1/2} D C^{1/2}) prec_w lambda(C^2).  One record
    per D; lambda(C^2) = lambda(C)^2 comes from the gated decomposition of
    C, the lifts are gated in one stacked call, and the Ds are checked
    against the hypothesis on their gated spectra."""
    require(len(Ds) > 0, InvalidWeightsError, lambda _: "Ds must be nonempty")
    for D in Ds:
        _check_dims(C, D)
    require(weak_margin(np.stack([D.eig().eigenvalues for D in Ds]), C.eig().eigenvalues) >= -tol,
            InvalidWeightsError, lambda _: "instance violates the hypothesis lambda(D) prec_w lambda(C)")
    return _stage(None, _lift(len(Ds)), tol, context, _Operands(C, D=np.stack([D.mat for D in Ds])))


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


def _aitken(report: CheckReport, margins) -> None:
    """The limit's diagnostics: its margins along EPS_SEQUENCE, and the
    distance between the last and their Aitken-extrapolated limit."""
    margins = [float(m) for m in margins]
    m1, m2, m3 = margins[-3:]
    denom = (m3 - m2) - (m2 - m1)
    extrapolated = m3 if denom == 0.0 else m3 - (m3 - m2) ** 2 / denom
    report.diagnostics.update(margins_along_sequence=margins, convergence_gap=abs(m3 - extrapolated))


# The diagnostics of a one-record checker, f(report, parts of its record).
_DIAGNOSTICS = {"semidefinite_limit": _aitken}


def _limit(p: int = 0) -> list[_Record]:
    """`check_semidefinite_limit` on the levels as pairs p, p+1, ..."""
    keys = {(role, i): _keys(p + i, 1.0, 1.0)[role] for i in range(len(EPS_SEQUENCE)) for role in ("H_kubo", "R")}
    return [_Record("semidefinite_limit", p, _bind(PARTS["semidefinite_limit"], keys))]


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
    report.record(replay["k1_clearance"], {"seed_offset": None, "item": "k=1 failure of direction one"})
    report.record(replay["trace_clearance"], {"seed_offset": None, "item": "trace failure of direction two"})
    report.diagnostics.update(k1_gap=replay["k1_gap"], trace_gap=replay["trace_gap"])
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

# The zones of `_commutator_ratio`, fixed, not `tol`: drawn commuting pairs
# read <= 8.2e-16 (dims 1-64, cond 1e4-1e12), and the identity's gap is
# second order in it (16-100 ratio^2 measured; 1.3e-13 at ratio 5.5e-8).
# A noncommuting candidate must clear the floor within NONCOMMUTING_TRIES.
COMMUTING_CEILING = 1e-8
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


def _noncommuting_pair(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    """Resample, one pair at a time, until the commutator clears the
    noncommutativity floor.  A cond_max close to 1 leaves too little
    spectral spread for any candidate to clear the floor; how close
    depends on dim."""
    for _ in range(NONCOMMUTING_TRIES):
        A, B = random_pd_from_rng(dim, cond_max, rng), random_pd_from_rng(dim, cond_max, rng)
        if _commutator_ratio(A.mat, B.mat) >= NONCOMMUTING_FLOOR:
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
        if _commutator_ratio(*(M.mat for M in candidate)) < NONCOMMUTING_FLOOR:
            rng.bit_generator.state = state
            candidate = _noncommuting_pair(dim, cond, rng)
            segment, rest = _second_part(_Segment(), dim, cond, rng).build(), slice(None)
        pairs.append(tuple(candidate))
    C, R, bump, D0, A0, B0 = segment.gated(rest)
    return _Draw(dim, a, b, pairs, C, R, _dominated_by(C, bump), _scaled_under(C, D0), A0, B0)


# ---------------------------------------------------------------------------
# the suite driver
# ---------------------------------------------------------------------------

def _merge_into(pool: dict[str, CheckReport], report: CheckReport) -> None:
    if pool.setdefault(report.check_name, report) is not report:
        pool[report.check_name].merge(report)


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
    return _Plan(_records("spreading") + _grid([("kubo_heron", 1.0, 1.0, 2.0)]) + _records("log_majorization_means")
                 + _records("bly"))


@functools.cache
def _trial_plan(a: float, b: float, k: int) -> _Plan:
    """The stage of a trial with weights (a, b) and k drawn pairs, then the
    four compression pairs and the levels, made once per process.  The
    records of the compression pairs and levels come first, so their
    matrices keep their stack indices in the gate.  Drawn pair 1 commutes,
    and pair 2 is apart."""
    return _Plan(_pinching(k) + _lift(1, k) + _limit(k + 4) + _grid(trial_grid(a, b)) + _records("spreading", a, b)
                 + _records("endpoints", a, b) + _records("log_majorization_means") + _records("bly", a, b)
                 + _equality(a, b, range(1, k), (True, False)[:k - 1]))


def run_suite(config: SuiteConfig) -> RunReport:
    """Run every checker over the deterministic instance stream plus the
    fixed certified instances; identical configs yield identical reports.

    Each trial draws all of its random instances first (`_draw_trial`),
    then runs one stage (see the module docstring) on one Pair, with one
    context per pair: the main pair and the equality pairs, then the
    compression pairs of pinching (with its quadratic lift) and the
    eps-levels of the semidefinite limit, which are gated as operands
    first.  Only the stage plans are
    kept for the process (`_trial_plan`, `_certified_plan`); the fixed
    instances and every trial are computed afresh on each call."""
    pool: dict[str, CheckReport] = {}
    tol = config.tol

    # fixed instances first
    one, two = certified_pairs()
    _merge_into(pool, check_incomparability_float(one, two, tol))
    ctx = {"seed_offset": None, "instance": "certified-3x3", "a": 1.0, "b": 1.0}
    for report in _certified_plan().run(one, tol, [ctx]):
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
        # the main pair (index 0) and the equality pairs, then the
        # compression pairs and the eps-levels after them, whose raw
        # operands are gated in one call of their own; neither they nor
        # the Pair joined here are kept through the stage's gate.  One
        # context per pair, in this order
        contexts = ([context] + [dict(context, A=A_e, B=B_e, variant=variant)
                                 for (A_e, B_e), variant in zip(equality_pairs, ("commuting", "noncommuting"))]
                    + [dict(context, C=draw.C, R=draw.R)] * 4
                    + [dict(context, A=draw.A0, B=draw.B0, variant="rank-deficient")] * len(EPS_SEQUENCE))
        S, *compressions = _compressions(draw.C, draw.R, draw.C1)
        levels = _levels(draw.A0, draw.B0, tol)
        pair = Pair.stack([*pairs, Pair.gated(*map(np.concatenate, zip(compressions, levels)))])
        del compressions, levels
        plan = _trial_plan(a, b, len(pairs))
        for report in plan.run(pair, tol, contexts, _Operands(draw.C, draw.R, S, draw.D[None])):
            _merge_into(pool, report)

    return RunReport(config=config, checks=list(pool.values()))
