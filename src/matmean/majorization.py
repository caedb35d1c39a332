"""Spectra, Ky Fan sums, and majorization predicates with explicit margins.

Every predicate takes an explicit tolerance and returns a verdict carrying
the per-k margins, never a bare boolean, so sharpness experiments can see
how slack degenerates as coefficients approach their critical values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError, NotPositiveDefiniteError
from .linalg import HermitianMatrix

DEFAULT_TOL = 1e-8


class SpectrumVector:
    """Real vector sorted in decreasing order."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=np.float64))[::-1].copy()
        if vals.ndim != 1 or vals.size == 0:
            raise MatrixFormatError("spectrum must be a nonempty 1-d vector")
        vals.flags.writeable = False
        self.values = vals

    def __len__(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"SpectrumVector({self.values.tolist()})"


@dataclass(frozen=True)
class MajorizationVerdict:
    holds: bool
    per_k_margins: tuple[float, ...]
    trace_gap: float
    tolerance_used: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "per_k_margins": list(self.per_k_margins),
            "trace_gap": self.trace_gap,
            "tolerance_used": self.tolerance_used,
        }


def spectrum(H: HermitianMatrix) -> SpectrumVector:
    """Eigenvalues of a Hermitian matrix, sorted decreasing."""
    return SpectrumVector(H.eig().eigenvalues)


def ky_fan_sums(x: SpectrumVector) -> np.ndarray:
    """k-th entry is the sum of the k largest values."""
    return np.cumsum(x.values)


def _check_lengths(x: SpectrumVector, y: SpectrumVector):
    if len(x) != len(y):
        raise MatrixFormatError(f"spectra have different lengths: {len(x)} vs {len(y)}")


def weak_majorization(x: SpectrumVector, y: SpectrumVector, tol: float = DEFAULT_TOL) -> MajorizationVerdict:
    """x prec_w y: every prefix sum of y dominates the one of x.

    The margin at k is sum_{j<=k} y_j - sum_{j<=k} x_j; the verdict allows
    an additive slack of tol * (1 + max|y|).
    """
    _check_lengths(x, y)
    margins = ky_fan_sums(y) - ky_fan_sums(x)
    slack = tol * (1.0 + float(np.abs(y.values).max()))
    holds = bool(np.all(margins >= -slack))
    return MajorizationVerdict(holds, tuple(float(m) for m in margins), float(margins[-1]), slack)


def majorization(x: SpectrumVector, y: SpectrumVector, tol: float = DEFAULT_TOL) -> MajorizationVerdict:
    """x prec y: weak majorization plus equality of the total sums."""
    _check_lengths(x, y)
    margins = ky_fan_sums(y) - ky_fan_sums(x)
    slack = tol * (1.0 + float(np.abs(y.values).max()))
    trace_gap = float(margins[-1])
    trace_slack = tol * (1.0 + abs(float(ky_fan_sums(y)[-1])))
    holds = bool(np.all(margins >= -slack)) and abs(trace_gap) <= trace_slack
    return MajorizationVerdict(holds, tuple(float(m) for m in margins), trace_gap, slack)


def log_majorization(x: SpectrumVector, y: SpectrumVector, tol: float = DEFAULT_TOL) -> MajorizationVerdict:
    """x prec_log y: prefix products of y dominate, total products equal.

    Evaluated in the log domain; margins are differences of prefix log
    sums, and the slack is tol * (1 + max|log y|).
    """
    _check_lengths(x, y)
    if float(x.values[-1]) <= 0.0 or float(y.values[-1]) <= 0.0:
        raise MatrixFormatError("log-majorization requires strictly positive entries")
    lx = np.cumsum(np.log(x.values))
    ly = np.cumsum(np.log(y.values))
    margins = ly - lx
    slack = tol * (1.0 + float(np.abs(np.log(y.values)).max()))
    total_gap = float(margins[-1])
    holds = bool(np.all(margins[:-1] >= -slack)) and abs(total_gap) <= slack
    return MajorizationVerdict(holds, tuple(float(m) for m in margins), total_gap, slack)


def ky_fan_threshold(Y: HermitianMatrix, k: int, tol: float = 1e-10) -> float:
    """Sum of the k largest eigenvalues of a PSD matrix through the
    threshold form min_{t>=0} { k t + Tr (Y - t I)_+ }.

    The minimum is attained at one of the eigenvalues (or at 0), so it is
    evaluated exactly over that finite candidate set.
    """
    vals = Y.eig().eigenvalues
    n = vals.shape[0]
    if not 1 <= k <= n:
        raise MatrixFormatError(f"k must lie in 1..{n}, got {k}")
    lam_min = float(vals[-1])
    scale = 1.0 + float(np.abs(vals).max())
    if lam_min < -tol * scale:
        raise NotPositiveDefiniteError(f"matrix is not PSD: lambda_min = {lam_min:.3e}")
    mu = np.maximum(vals, 0.0)
    candidates = np.concatenate([mu, [0.0]])
    best = np.inf
    for t in candidates:
        best = min(best, k * float(t) + float(np.maximum(mu - t, 0.0).sum()))
    return best
