"""Randomized and fixed-instance checkers for every comparison theorem.

Each checker evaluates one instance, or a stack of same-dimension
instances with one record each, and returns a CheckReport whose worst
normalized margin decides failure (margin < -tol).  Margins are normalized
by 1 + max|dominating side| so one tolerance knob covers all scales.
run_suite drives a deterministic instance stream over every checker and
aggregates the reports; within a trial, same-dimension operands are
evaluated as stacks (see `means.Pair` and `schur.pinching_map`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWeightsError, MatrixFormatError
from .exact import direction_one_data, direction_two_data
from .linalg import (
    HermitianMatrix,
    PDMatrix,
    frobenius,
    gate_stack,
    haar_unitary,
    hermitian_part,
    principal_sqrt,
    random_pd_from_rng,
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
from .schur import pinching_map

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
        if self.trials < 1:
            raise InvalidWeightsError(f"trials must be >= 1, got {self.trials}")
        if not self.dims:
            raise InvalidWeightsError("dims must be nonempty")
        if any(d < 1 for d in self.dims):
            raise InvalidWeightsError("every dimension must be at least 1")
        if self.tol <= 0:
            raise InvalidWeightsError(f"tol must be positive, got {self.tol}")
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


# ---------------------------------------------------------------------------
# individual theorem checkers
# ---------------------------------------------------------------------------

# Checkers of the Heron grid, each with the cross term of its Heron
# expression.  weighted_corollary is spectral_heron at (a, b) = (1-t, t).
GRID_CROSS = {"spectral_heron": "spectral", "kubo_heron": "geometric", "weighted_corollary": "spectral"}


def heron_grid(pair: Pair, items, tol: float, context: dict | None = None) -> list[CheckReport]:
    """One report per (check, a, b, c) item of a checker in GRID_CROSS:
    lambda(a^2 A + b^2 B + c M) prec_w lambda(W_{a,b}) for 0 <= c <= 2ab,
    with the cross term M of the check.  With the spectral cross term the
    endpoint c = 2ab is a true majorization, so trace equality is checked
    there too.

    The Heron sums (gated as positive definite) and the distinct W_{a,b}
    (gated as Hermitian) are decomposed in one stacked call.
    """
    for check, a, b, c in items:
        two_ab = 2.0 * a * b
        if a < 0 or b < 0 or not 0.0 <= c <= two_ab * (1.0 + 1e-12):
            raise InvalidWeightsError(f"{check}: need a, b >= 0 and 0 <= c <= 2ab = {two_ab}, "
                                      f"got a = {a}, b = {b}, c = {c}")
    w_index: dict[tuple[float, float], int] = {}
    for _, a, b, _ in items:
        w_index.setdefault((a, b), len(w_index))
    n = len(items)
    vals = _spectra(*[pair.heron(GRID_CROSS[check], a, b, c) for check, a, b, c in items],
                    *[pair.wasserstein(a, b) for a, b in w_index],
                    pd=[True] * n + [False] * len(w_index))
    sH = vals[:n]
    sW = vals[n:][[w_index[a, b] for _, a, b, _ in items]]
    margins = _wm_margin(sH, sW)
    trace_margins = _trace_eq_margin(sH, sW)
    reports = []
    for i, (check, a, b, c) in enumerate(items):
        two_ab = 2.0 * a * b
        margin = margins[i]
        if GRID_CROSS[check] == "spectral" and two_ab > 0.0 and c >= two_ab * (1.0 - 1e-12):
            margin = min(margin, trace_margins[i])
        report = CheckReport(check, tol)
        report.record(margin, context)
        reports.append(report)
    return reports


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


def check_spreading(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """At the endpoint coefficient the spectral Heron expression is
    spectrally less spread: top-k sums smaller, bottom-k sums larger,
    trace equal, determinant at least as large."""
    if a <= 0 or b <= 0:
        raise InvalidWeightsError(f"need a, b > 0, got a={a}, b={b}")
    report = CheckReport("spreading", tol)
    sH, sW = _spectra(pair.heron("spectral", a, b, 2.0 * a * b), pair.wasserstein(a, b), pd=[True, False])
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
    report.record(min(margins), context)
    return report


def _record_each(report: CheckReport, margins, context) -> None:
    """One record per pair of a stack; `context` is one dict for every
    record or a list with one dict per pair."""
    margins = np.atleast_1d(margins)
    contexts = context if isinstance(context, list) else [context] * len(margins)
    for margin, ctx in zip(margins, contexts):
        report.record(margin, ctx)


def check_equality_iff_commuting(pair: Pair, a: float, b: float,
                                 tol: float, context: dict | list[dict] | None = None) -> CheckReport:
    """Both endpoint Heron expressions equal the Wasserstein expression
    exactly when A and B commute; otherwise they stay separated by a
    data-dependent positive amount.  One record per pair of a stacked
    Pair."""
    if a <= 0 or b <= 0:
        raise InvalidWeightsError(f"need a, b > 0, got a={a}, b={b}")
    report = CheckReport("equality_iff_commuting", tol)
    A, B = pair.A, pair.B
    comm = frobenius(A @ B - B @ A)
    comm_scale = frobenius(A) * frobenius(B)
    W = pair.wasserstein(a, b)
    w_norm = frobenius(W)
    diff_nat = frobenius(pair.heron("spectral", a, b, 2.0 * a * b) - W)
    diff_kubo = frobenius(pair.heron("geometric", a, b, 2.0 * a * b) - W)
    # between clearly commuting and clearly noncommuting lies a gray zone
    # with nothing sharp to assert (margin 0)
    margins = np.where(
        comm <= tol * comm_scale,
        _eq_margin(np.maximum(diff_nat, diff_kubo), w_norm),
        np.where(comm >= 1e-3 * comm_scale, (np.minimum(diff_nat, diff_kubo) - 1e-6 * w_norm) / w_norm, 0.0),
    )
    _record_each(report, margins, context)
    return report


def check_pinching(C: PDMatrix, R: PDMatrix, tol: float,
                   context: dict | None = None,
                   rng: np.random.Generator | None = None) -> tuple[CheckReport, PDMatrix]:
    """The nonlinear pinching map Phi = Phi_R(C) contracts in weak
    majorization; its four structural hypotheses (monotone, homogeneous,
    unital, trace-subpreserving) are spot-checked on the same instance.

    Phi_R is evaluated at C, I, 2C and a random C1 <= C in one stacked
    `pinching_map` call.  Returns the report and Phi_R(C), gated.
    """
    report = CheckReport("pinching", tol)
    n = C.dim
    if rng is None:
        rng = np.random.default_rng(0)
    bump = random_pd_from_rng(n, 10.0, rng)
    C1 = PDMatrix(C.mat - (0.5 * C.min_eigenvalue_witness) * bump.mat / bump.eig().eigenvalues[0])
    # I and 2C are not gated: their decompositions are exactly those of
    # the identity and of the gated C
    eye = np.eye(n)
    pinch = pinching_map(np.stack([C.mat, eye, 2.0 * C.mat, C1.mat]), R)
    Phi, Phi_eye, Phi2, Phi1 = pinch.phi
    margins = [_wm_margin(pinch.eigenvalues[0], spectrum(C).values)]
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
    lhs_tr = float(np.trace(pinch.compressions[0].spectral()).real)
    rhs_tr = float(np.trace(R.mat @ pinch.S @ C.mat).real)
    margins.append(_eq_margin(lhs_tr - rhs_tr, 1.0 + abs(rhs_tr)))

    report.record(min(margins), context)
    return report, pinch.matrix(0)


def check_endpoints(pair: Pair, a: float, b: float,
                    tol: float, context: dict | None = None) -> CheckReport:
    """Order of the extreme eigenvalues, the trace, and the (n-1)-sum
    between the sharp geometric Heron and Wasserstein expressions."""
    if a < 0 or b < 0:
        raise InvalidWeightsError(f"need a, b >= 0, got a={a}, b={b}")
    report = CheckReport("endpoints", tol)
    sH, sW = _spectra(pair.heron("geometric", a, b, 2.0 * a * b), pair.wasserstein(a, b), pd=[True, False])
    scale = 1.0 + float(np.abs(sW).max())
    margins = [
        (float(sH[-1]) - float(sW[-1])) / scale,   # smallest eigenvalue
        (float(sW[0]) - float(sH[0])) / scale,     # largest eigenvalue
        (float(sW.sum()) - float(sH.sum())) / scale,
    ]
    n = len(sH)
    if n > 1:
        margins.append((float(sW[:-1].sum()) - float(sH[:-1].sum())) / scale)
    report.record(min(margins), context)
    return report


def check_log_majorization_means(pair: Pair, tol: float,
                                 context: dict | None = None) -> CheckReport:
    """The geometric mean is log-majorized by the spectral mean; in
    particular its trace is no larger."""
    report = CheckReport("log_majorization_means", tol)
    sG, sN = map(SpectrumVector, _spectra(pair.geometric(), pair.spectral()))
    verdict = log_majorization(sG, sN, tol)
    log_scale = 1.0 + float(np.abs(np.log(sN.values)).max())
    prefix = min(verdict.per_k_margins[:-1]) / log_scale if len(sG) > 1 else 0.0
    total = _eq_margin(verdict.trace_gap, log_scale)
    trace_margin = (float(sN.values.sum()) - float(sG.values.sum())) / (1.0 + float(sN.values.sum()))
    report.record(min(prefix, total, trace_margin), context)
    return report


def check_quadratic_lifting(C: PDMatrix, Ds: list[PDMatrix], tol: float,
                            context: dict | None = None) -> CheckReport:
    """If lambda(D) prec_w lambda(C), the congruence by C^{1/2} lifts the
    comparison to lambda(C^{1/2} D C^{1/2}) prec_w lambda(C^2).  One record
    per D; lambda(C^2) = lambda(C)^2 comes from the gated decomposition of
    C, and the lifted matrices are gated in one stacked call."""
    report = CheckReport("quadratic_lifting", tol)
    sC = spectrum(C)
    for D in Ds:
        if not weak_majorization(spectrum(D), sC, tol).holds:
            raise InvalidWeightsError("instance violates the hypothesis lambda(D) prec_w lambda(C)")
    Ch = principal_sqrt(C).mat
    lifted = _spectra(*[hermitian_part(Ch @ D.mat @ Ch) for D in Ds])
    _record_each(report, _wm_margin(lifted, sC.values ** 2), context)
    return report


def _bly_sides(pair: Pair, a: float, b: float):
    """Spectra of the sharp geometric Heron expression and of the
    right-hand side (a A^{1/2} + b B^{1/2})^2, both gated as positive
    definite, with the square roots and the right-hand side."""
    Ah, Bh = pair.sqrt()
    T = a * Ah + b * Bh
    rhs = hermitian_part(T @ T)
    sH, sR = _spectra(pair.heron("geometric", a, b, 2.0 * a * b), rhs)
    return sH, sR, Ah, Bh, rhs


def check_bly(pair: Pair, a: float, b: float,
              tol: float, context: dict | None = None) -> CheckReport:
    """Weak-majorization refinement of the two-variable Heron comparison
    against the squared sum of weighted square roots, plus the expansion
    identity and Schatten p = 1, 2, inf spot checks."""
    if a < 0 or b < 0:
        raise InvalidWeightsError(f"need a, b >= 0, got a={a}, b={b}")
    report = CheckReport("bly", tol)
    sH, sR, Ah, Bh, rhs = _bly_sides(pair, a, b)
    margins = [_wm_margin(sH, sR)]
    # expansion of the square: a^2 A + b^2 B + ab(sqrtA sqrtB + sqrtB sqrtA)
    cross = Ah @ Bh
    expanded = a * a * pair.A + b * b * pair.B + a * b * (cross + cross.conj().T)
    margins.append(_eq_margin(float(np.linalg.norm(expanded - rhs)), 1.0 + float(np.linalg.norm(rhs))))
    # Schatten norms follow from the eigenvalue comparison for PSD matrices
    for p_lhs, p_rhs in (
        (float(sH.sum()), float(sR.sum())),
        (float(np.sqrt((sH ** 2).sum())), float(np.sqrt((sR ** 2).sum()))),
        (float(sH[0]), float(sR[0])),
    ):
        margins.append((p_rhs - p_lhs) / (1.0 + p_rhs))
    report.record(min(margins), context)
    return report


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
    if A0.dim != B0.dim:
        raise MatrixFormatError(f"dimension mismatch: {A0.dim} vs {B0.dim}")
    for lam, name in zip(_spectra(A0.mat, B0.mat, pd=False), ("A0", "B0")):
        if float(lam[-1]) < -tol * (1.0 + float(np.abs(lam).max())):
            raise MatrixFormatError(f"{name} must be positive semidefinite")
    report = CheckReport("semidefinite_limit", tol)
    # every level at once, each M0 + eps I decomposed afresh: at eps = 1e-8
    # the margin amplifies a decomposition's rounding to about 1e-5, and the
    # eigenvalues of M0 shifted by eps turned a true margin of 1.8e-6 into
    # -1.1e-5 on one rank-one pair
    shift = np.asarray(eps_sequence, dtype=np.float64)[:, None, None] * np.eye(A0.dim)
    pair = Pair.gated(A0.mat + shift, B0.mat + shift)
    sH, sR, *_ = _bly_sides(pair, 1.0, 1.0)
    margins = [float(m) for m in _wm_margin(sH, sR)]
    worst = min(margins)
    gap = 0.0
    if len(margins) >= 3:
        m1, m2, m3 = margins[-3], margins[-2], margins[-1]
        denom = (m3 - m2) - (m2 - m1)
        extrapolated = m3 if denom == 0.0 else m3 - (m3 - m2) ** 2 / denom
        gap = abs(m3 - extrapolated)
    report.record(worst, context)
    report.diagnostics["margins_along_sequence"] = margins
    report.diagnostics["convergence_gap"] = gap
    return report


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

def _commuting_pair(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    """A pair sharing a random eigenbasis commutes by construction."""
    U = haar_unitary(dim, rng)
    lo = -np.log10(cond_max) if cond_max > 1.0 else 0.0
    pair = []
    for _ in range(2):
        vals = 10.0 ** rng.uniform(lo, 0.0, dim)
        vals /= vals.max()
        order = np.argsort(vals)[::-1]
        pair.append(PDMatrix._from_eig(vals[order].copy(), U[:, order].copy()))
    return pair[0], pair[1]


def _noncommuting_pair(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    """Resample until the commutator clears the noncommutativity floor."""
    for _ in range(200):
        A = random_pd_from_rng(dim, cond_max, rng)
        B = random_pd_from_rng(dim, cond_max, rng)
        comm = float(np.linalg.norm(A.mat @ B.mat - B.mat @ A.mat))
        if comm >= 1e-3 * float(np.linalg.norm(A.mat)) * float(np.linalg.norm(B.mat)):
            return A, B
    raise RuntimeError("could not generate a clearly noncommuting pair")


def _pinching_operands(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    C = random_pd_from_rng(dim, cond_max, rng)
    vals = np.sort(rng.uniform(0.05, 0.95, dim))[::-1].copy()
    R = PDMatrix._from_eig(vals, haar_unitary(dim, rng))
    return C, R


def _rank_deficient_psd(dim: int, rng: np.random.Generator) -> HermitianMatrix:
    rank = int(rng.integers(1, dim)) if dim > 1 else 1
    vals = np.zeros(dim)
    vals[:rank] = np.sort(10.0 ** rng.uniform(-2.0, 0.0, rank))[::-1]
    U = haar_unitary(dim, rng)
    return HermitianMatrix((U * vals) @ U.conj().T)


def _shrunk_dominated(C: PDMatrix, rng: np.random.Generator) -> PDMatrix:
    """Random D with lambda(D) prec_w lambda(C), enforced by scaling."""
    D0 = random_pd_from_rng(C.dim, 100.0, rng)
    ratios = ky_fan_sums(spectrum(C)) / ky_fan_sums(spectrum(D0))
    return PDMatrix((float(ratios.min()) * (1.0 - 1e-12)) * D0.mat)


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
    """The deterministic randomized instance stream of the suite:
    yields (offset, rng, dim, a, b, A, B)."""
    for offset in range(config.trials):
        rng = np.random.default_rng([config.seed, offset])
        dim = config.dims[offset % len(config.dims)]
        a, b = config.weight_grid[offset % len(config.weight_grid)]
        A = random_pd_from_rng(dim, config.cond_max, rng)
        B = random_pd_from_rng(dim, config.cond_max, rng)
        yield offset, rng, dim, a, b, A, B


def run_suite(config: SuiteConfig) -> RunReport:
    """Run every checker over the deterministic instance stream plus the
    fixed certified instances; identical configs yield identical reports."""
    pool: dict[str, CheckReport] = {}

    # fixed instances first
    one, two = certified_pairs()
    _merge_into(pool, check_incomparability_float(one, two, config.tol))
    a = b = 1.0
    ctx = {"seed_offset": None, "instance": "certified-3x3", "a": a, "b": b}
    _merge_into(pool, check_spreading(one, a, b, config.tol, ctx))
    _merge_into(pool, check_kubo_heron(one, a, b, 2.0 * a * b, config.tol, ctx))
    _merge_into(pool, check_log_majorization_means(one, config.tol, ctx))
    _merge_into(pool, check_bly(one, a, b, config.tol, ctx))
    for c_over in (2.001, 2.01, 2.1, 3.0):
        _merge_into(pool, check_sharpness_scalar(1.0, 1.0, c_over))

    # randomized stream; contexts hold the matrices themselves, serialized
    # only for a failing record
    for offset, rng, dim, a, b, A, B in iter_instances(config):
        context = {"seed_offset": offset, "dim": dim, "a": a, "b": b, "A": A, "B": B}

        pair = Pair(A, B)
        for report in heron_grid(pair, trial_grid(a, b, config), config.tol, context):
            _merge_into(pool, report)
        _merge_into(pool, check_spreading(pair, a, b, config.tol, context))
        _merge_into(pool, check_endpoints(pair, a, b, config.tol, context))
        _merge_into(pool, check_log_majorization_means(pair, config.tol, context))
        _merge_into(pool, check_bly(pair, a, b, config.tol, context))

        # equality case: one pair commuting by construction, one generic,
        # checked as one stacked Pair
        A_c, B_c = _commuting_pair(dim, config.cond_max, rng)
        pairs = [(A_c, B_c)]
        contexts = [dict(context, A=A_c, B=B_c, variant="commuting")]
        if dim > 1:
            A_n, B_n = _noncommuting_pair(dim, config.cond_max, rng)
            pairs.append((A_n, B_n))
            contexts.append(dict(context, A=A_n, B=B_n, variant="noncommuting"))
        _merge_into(pool, check_equality_iff_commuting(Pair.stack(pairs), a, b, config.tol, contexts))

        # pinching and its quadratic lift
        C, R = _pinching_operands(dim, config.cond_max, rng)
        ctx_p = dict(context, C=C, R=R)
        report, Phi = check_pinching(C, R, config.tol, ctx_p, rng)
        _merge_into(pool, report)
        D = _shrunk_dominated(C, rng)
        _merge_into(pool, check_quadratic_lifting(C, [Phi, D], config.tol, ctx_p))

        # semidefinite boundary
        A0 = _rank_deficient_psd(dim, rng)
        B0 = _rank_deficient_psd(dim, rng)
        ctx_s = dict(context, A=A0, B=B0, variant="rank-deficient")
        _merge_into(pool, check_semidefinite_limit(A0, B0, DEFAULT_EPS_SEQUENCE, config.tol, ctx_s))

    return RunReport(config=config, checks=list(pool.values()))
