"""The nonlinear pinching map of the Kubo reduction.

For a positive definite R with spectrum strictly inside (0, 1) and S = I - R,

    Phi_R(C) = R C R + S C S + 2 (R C R # S C S)

is unital, homogeneous, order preserving and trace-subpreserving.  The
paper's Kubo bound reduces to it: with T = aI + bX and R = a T^{-1},
a^2 A + b^2 B + 2ab (A # B) = Phi_R(W_{a,b}).

`pinching_map` evaluates Phi_R over a (..., n, n) stack of C's with one
decomposition of R: one stacked gate for the compressions R C R and
S C S, one stacked `#`, and one stacked gate for the maps.  Phi_R(C) is
the sharp unit-weight geometric Heron sum of the compression pair,
`Pair.heron("geometric", 1, 1, 2)`, so the suite takes only
`pinching_compressions` from here: it gates the compression pairs with
its other operand pairs and keys the maps like any other Heron sum (see
`suite._pinching`); `pinching_map` is the per-C reference that the
suite's stacked records are tested against.  S = I - R is
`linalg.derived` from the decomposition of R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError, NotPositiveDefiniteError
from .linalg import PDMatrix, assemble, derived, gate_stack, hermitian_part, hermitize
from .means import Pair

PINCH_SPECTRUM_MARGIN = 1e-10


@dataclass(frozen=True)
class Pinching:
    """Phi_R over a stack of C's, with the gated pieces it is built from."""

    phi: np.ndarray            # Phi_R(C), gated positive definite
    eigenvalues: np.ndarray    # of each Phi_R(C), decreasing
    eigenvectors: np.ndarray
    compressions: Pair         # Pair(R C R, S C S)
    S: np.ndarray              # I - R, from the decomposition of R

    def matrix(self, index=()) -> PDMatrix:
        """Phi_R(C) at `index` of the stack (the whole map for one C)."""
        return PDMatrix._gated(self.phi[index], self.eigenvalues[index], self.eigenvectors[index])


def pinching_compressions(Cs: np.ndarray, R: PDMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, R C R, S C S) with S = I - R, for a Hermitian (..., n, n) stack
    of C's; the compressions are raw arrays, to be gated as positive
    definite by the caller.

    Requires the spectrum of R to lie strictly inside (0, 1); the theorem
    hypotheses are open conditions, so the boundary is rejected.
    """
    if Cs.ndim < 2 or Cs.shape[-2:] != (R.dim, R.dim):
        raise MatrixFormatError(f"dimension mismatch: C {Cs.shape}, R {R.dim}")
    dec = R.eig()
    vals = dec.eigenvalues
    if float(vals[-1]) < PINCH_SPECTRUM_MARGIN or float(vals[0]) > 1.0 - PINCH_SPECTRUM_MARGIN:
        raise NotPositiveDefiniteError(
            f"spectrum of R must lie strictly inside (0, 1): [{vals[-1]:.3e}, {vals[0]:.3e}]"
        )
    S = assemble(*derived(dec, lambda vals: 1.0 - vals, reverse=True))
    return S, hermitian_part(R.mat @ Cs @ R.mat), hermitian_part(S @ Cs @ S)


def pinching_map(C, R: PDMatrix) -> Pinching:
    """Phi_R(C) = R C R + S C S + 2 (R C R # S C S) with S = I - R, for a
    PDMatrix C or a (..., n, n) stack of C's; every map shares the
    decomposition of R.

    A stack is checked Hermitian here, and its positive definiteness by
    the gate on R C R (congruence by the invertible R keeps the inertia).
    """
    Cs = C.mat if isinstance(C, PDMatrix) else hermitize(np.asarray(C, dtype=np.complex128))
    S, P, Q = pinching_compressions(Cs, R)
    compressions = Pair.gated(P, Q)
    phi = compressions.heron("geometric", 1.0, 1.0, 2.0)
    eigenvalues, eigenvectors = gate_stack(phi)
    return Pinching(phi, eigenvalues, eigenvectors, compressions, S)
