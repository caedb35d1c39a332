"""Schur-multiplier mechanism and the nonlinear pinching map.

Two change-of-variables routines reduce the Heron/Wasserstein comparisons
to canonical forms: the spectral one lands on a Schur multiplier

    Gamma_c = D^{-1} (alpha alpha^T + beta beta^T + c 11^T) D^{-1},

a rank-at-most-three PSD matrix whose diagonal is <= 1 for c <= 2ab and
exactly 1 at c = 2ab; the direct one lands on the pinching map

    Phi_R(C) = R C R + S C S + 2 (R C R # S C S),   S = I - R,

which is unital, homogeneous, order preserving, and trace-subpreserving.
`pinching_map` evaluates Phi_R over a (..., n, n) stack of C's with one
decomposition of R: one stacked gate for the compressions R C R and
S C S, one stacked `#`, and one stacked gate for the maps.  Its two steps,
`pinching_compressions` and `pinching_phi`, also serve the suite, which
gates the compressions and the maps together with other checkers'
matrices (see `suite._run_staged`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidWeightsError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalFailure,
)
from .linalg import (
    HermitianMatrix,
    PDMatrix,
    gate_stack,
    hermitian_part,
    hermitize,
    inverse,
    principal_sqrt,
)
from .means import Pair, riccati_mean

GAMMA_RECON_RTOL = 1e-12
GAMMA_DIAG_TOL = 1e-12
GAMMA_RANK_TOL = 1e-10
CHANGE_OF_VARS_RTOL = 1e-8
PINCH_SPECTRUM_MARGIN = 1e-10


def schur_product(M: HermitianMatrix, N: HermitianMatrix) -> HermitianMatrix:
    """Entrywise (Hadamard) product; PSD whenever both factors are."""
    if M.dim != N.dim:
        raise MatrixFormatError(f"Schur product dimension mismatch: {M.dim} vs {N.dim}")
    return HermitianMatrix(M.mat * N.mat)


@dataclass(frozen=True)
class MultiplierBundle:
    """The multiplier Gamma_c together with its generating data.

    low_rank_factors holds up to three vectors v with
    Gamma_c = sum v v^T, certifying the rank bound directly.
    """

    gamma: HermitianMatrix
    alpha: np.ndarray
    beta: np.ndarray
    d: np.ndarray
    c: float
    low_rank_factors: tuple[np.ndarray, ...] = field(default=())

    def validate(self) -> None:
        g = self.gamma.mat.real
        recon = np.zeros_like(g)
        for v in self.low_rank_factors:
            recon += np.outer(v, v)
        scale = float(np.abs(g).max())
        if float(np.abs(recon - g).max()) > GAMMA_RECON_RTOL * scale:
            raise NumericalFailure("multiplier does not match its low-rank factorization")
        vals = self.gamma.eig().eigenvalues
        if float(vals[-1]) < -GAMMA_RANK_TOL * float(vals[0]):
            raise NumericalFailure(f"multiplier is not PSD: lambda_min = {vals[-1]:.3e}")
        if len(vals) > 3 and float(vals[3]) > GAMMA_RANK_TOL * float(vals[0]):
            raise NumericalFailure(f"multiplier rank exceeds three: lambda_4 = {vals[3]:.3e}")
        two_ab = 2.0 * float(self.alpha[0] * self.beta[0])
        diag = np.diag(g)
        if self.c <= two_ab * (1.0 + 1e-15) and float(diag.max()) > 1.0 + GAMMA_DIAG_TOL:
            raise NumericalFailure(f"multiplier diagonal exceeds 1: {diag.max():.15f}")
        if abs(self.c - two_ab) <= 1e-13 * (1.0 + two_ab):
            if float(np.abs(diag - 1.0).max()) > GAMMA_DIAG_TOL:
                raise NumericalFailure("endpoint multiplier must have unit diagonal")


def gamma_multiplier(r: np.ndarray, a: float, b: float, c: float) -> MultiplierBundle:
    """Multiplier with entries (alpha_i alpha_j + beta_i beta_j + c) / (d_i d_j)
    where alpha_i = a / r_i, beta_i = b r_i, d_i = alpha_i + beta_i."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise MatrixFormatError("r must be a nonempty vector")
    if np.any(r <= 0.0):
        raise InvalidWeightsError("r must be entrywise strictly positive")
    if a <= 0.0 or b <= 0.0 or c < 0.0:
        raise InvalidWeightsError(f"need a, b > 0 and c >= 0; got a={a}, b={b}, c={c}")
    alpha = a / r
    beta = b * r
    d = alpha + beta
    gamma = (np.outer(alpha, alpha) + np.outer(beta, beta) + c) / np.outer(d, d)
    factors = [alpha / d, beta / d]
    if c > 0.0:
        factors.append(np.sqrt(c) / d)
    bundle = MultiplierBundle(
        gamma=HermitianMatrix(gamma),
        alpha=alpha,
        beta=beta,
        d=d,
        c=float(c),
        low_rank_factors=tuple(factors),
    )
    bundle.validate()
    return bundle


def correlation_decomposition(r: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (s, t) with Gamma_{2ab} = (11^T + s s^T + t t^T) / 2:
    s_i = (alpha_i - beta_i)/d_i and t_i = 2 sqrt(ab)/d_i, so s_i^2 + t_i^2 = 1."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0.0):
        raise InvalidWeightsError("r must be entrywise strictly positive")
    if a <= 0.0 or b <= 0.0:
        raise InvalidWeightsError(f"need a, b > 0; got a={a}, b={b}")
    alpha = a / r
    beta = b * r
    d = alpha + beta
    s = (alpha - beta) / d
    t = 2.0 * np.sqrt(a * b) / d
    return s, t


def spectral_change_of_vars(A: PDMatrix, B: PDMatrix) -> tuple[PDMatrix, PDMatrix]:
    """(R, C) with R = (A^{-1} # B)^{1/2} and C = R A R, so that
    A = R^{-1} C R^{-1}, B = R C R, and the spectral mean of (A, B) is C."""
    X = riccati_mean(A, B)
    R = principal_sqrt(X)
    C = PDMatrix(hermitian_part(R.mat @ A.mat @ R.mat))
    Ri = inverse(R)
    res_a = float(np.linalg.norm(Ri.mat @ C.mat @ Ri.mat - A.mat)) / float(np.linalg.norm(A.mat))
    res_b = float(np.linalg.norm(R.mat @ C.mat @ R.mat - B.mat)) / float(np.linalg.norm(B.mat))
    if max(res_a, res_b) > CHANGE_OF_VARS_RTOL:
        raise NumericalFailure(
            f"spectral change of variables failed: residuals {res_a:.3e}, {res_b:.3e}"
        )
    return R, C


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
    S = PDMatrix._derived((1.0 - vals)[::-1].copy(), dec.eigenvectors[:, ::-1].copy()).mat
    return S, hermitian_part(R.mat @ Cs @ R.mat), hermitian_part(S @ Cs @ S)


def pinching_phi(compressions: Pair) -> np.ndarray:
    """Phi_R(C) = R C R + S C S + 2 (R C R # S C S) from the gated Pair of
    compressions, as a raw array."""
    return compressions.A + compressions.B + 2.0 * compressions.geometric()


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
    phi = pinching_phi(compressions)
    eigenvalues, eigenvectors = gate_stack(phi)
    return Pinching(phi, eigenvalues, eigenvectors, compressions, S)


def kubo_change_of_vars(A: PDMatrix, B: PDMatrix, a: float, b: float) -> tuple[PDMatrix, PDMatrix]:
    """(R, C) with T = aI + bX, C = T A T = W_{a,b}(A,B), R = a T^{-1}.

    Then S = I - R = b X T^{-1}, R C R = a^2 A, S C S = b^2 B, and the
    Heron expression with the geometric cross term equals Phi_R(C).
    """
    if a <= 0.0 or b <= 0.0:
        raise InvalidWeightsError(f"need a, b > 0; got a={a}, b={b}")
    pair = Pair(A, B)
    X = pair.riccati()
    n = A.dim
    T = a * np.eye(n) + b * X
    Tinv = inverse(PDMatrix(hermitian_part(T)))
    R = PDMatrix(a * Tinv.mat)
    S_direct = b * X @ Tinv.mat
    if float(np.linalg.norm(R.mat + S_direct - np.eye(n))) > 1e-10 * np.sqrt(n):
        raise NumericalFailure("R + S deviates from the identity")
    C = PDMatrix(pair.wasserstein(a, b)[0])
    res_a = float(np.linalg.norm(R.mat @ C.mat @ R.mat - a * a * A.mat)) / float(np.linalg.norm(a * a * A.mat))
    res_b_mat = hermitian_part(S_direct @ C.mat @ S_direct.conj().T)
    res_b = float(np.linalg.norm(res_b_mat - b * b * B.mat)) / float(np.linalg.norm(b * b * B.mat))
    if max(res_a, res_b) > CHANGE_OF_VARS_RTOL:
        raise NumericalFailure(
            f"direct change of variables failed: residuals {res_a:.3e}, {res_b:.3e}"
        )
    return R, C
