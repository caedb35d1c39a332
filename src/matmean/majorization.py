"""The three majorization relations, written once over stacks of spectra.

Each function takes spectra as arrays of shape (..., n), sorted in
decreasing order along the last axis, as `HermitianMatrix.eig()` and
`gate_stack` return them, and compares x (dominated) with y (dominating)
slice by slice.  The Ky Fan margin at k is sum_{j<=k} y_j - sum_{j<=k}
x_j, normalized by 1 + max|y| so that one tolerance covers all scales.

- x prec_w y (weak): every Ky Fan margin is nonnegative (`weak_margin`).
- x prec y: weak majorization and equal totals (`verdict("major")`).
- x prec_log y: the Ky Fan margins of log x and log y, the last one an
  equality.

The suite reads the margins of whole stacks; `verdict` decides one pair
for the `check` command.  `ky_fan_threshold` is the independent threshold
form of a Ky Fan sum, the oracle the tests compare the direct sums with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError, NotPositiveDefiniteError
from .linalg import HermitianMatrix


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


def ky_fan_margins(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-k Ky Fan margins of x against y and their scale 1 + max|y|."""
    return np.cumsum(y, axis=-1) - np.cumsum(x, axis=-1), 1.0 + np.abs(y).max(axis=-1)


def weak_margin(x: np.ndarray, y: np.ndarray):
    """Worst normalized Ky Fan margin of x prec_w y."""
    margins, scale = ky_fan_margins(x, y)
    return margins.min(axis=-1) / scale


def verdict(relation: str, x: np.ndarray, y: np.ndarray, tol: float) -> MajorizationVerdict:
    """Whether x prec_w y ("weak"), x prec y ("major") or x prec_log y
    ("log") holds for one pair of spectra.  Each Ky Fan margin may fall
    below zero by tol times its scale (the reported tolerance); the gap
    between the totals may reach tol (1 + |sum y|) for "major", and the
    same tolerance as the margins for "log"."""
    if x.shape != y.shape:
        raise MatrixFormatError(f"spectra have different lengths: {len(x)} vs {len(y)}")
    if relation == "log":
        if float(x[-1]) <= 0.0 or float(y[-1]) <= 0.0:
            raise MatrixFormatError("log-majorization requires strictly positive entries")
        x, y = np.log(x), np.log(y)
    margins, scale = ky_fan_margins(x, y)
    slack = tol * float(scale)
    gap = float(margins[-1])
    if relation == "weak":
        holds = bool(np.all(margins >= -slack))
    elif relation == "major":
        holds = bool(np.all(margins >= -slack)) and abs(gap) <= tol * (1.0 + abs(float(y.sum())))
    else:
        holds = bool(np.all(margins[:-1] >= -slack)) and abs(gap) <= slack
    return MajorizationVerdict(holds, tuple(float(m) for m in margins), gap, slack)


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
