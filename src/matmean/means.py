"""Matrix means and the quadratic Heron / Bures-Wasserstein expressions.

The central device is the Riccati parametrization: X = A^{-1} # B is the
unique positive definite solution of X A X = B, and it linearizes the
cross terms:

    (A B)^{1/2} = A X,      (B A)^{1/2} = X A,
    W_{a,b}(A, B) = a^2 A + b^2 B + a b ((A B)^{1/2} + (B A)^{1/2})
                  = (a I + b X) A (a I + b X).

The dual Wasserstein formula is recomputed for every W_{a,b} and used as
a built-in correctness oracle.

A `Pair(A, B)` computes each derived quantity of one operand pair at most
once: X, A natural B, A # B and each W_{a,b}.  Its kernels return raw
Hermitian arrays.  The strict PDMatrix gate runs where a value leaves or
is judged: on the operands (the caller's job), on what the public
functions below return (each a thin wrapper over a Pair), and, through
`linalg.gate_stack`, on every matrix whose spectrum a checker compares.
The one gated intermediate is X, whose eigenvectors build A natural B.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    hermitian_part,
    inverse,
    pd_power,
    principal_sqrt,
)

RICCATI_RESIDUAL_RTOL = 1e-8
WASSERSTEIN_FORM_RTOL = 1e-8


def _psd_pow_raw(mat: np.ndarray, t: float) -> np.ndarray:
    """mat**t for a raw PSD intermediate.

    Conjugated intermediates like A^{-1/2} B A^{-1/2} can be far worse
    conditioned than either operand, so they bypass the strict PDMatrix
    gate; genuine indefiniteness is still rejected, and rounding-level
    negative eigenvalues clamp to zero.
    """
    vals, vecs = np.linalg.eigh(mat)
    lam_max = float(vals[-1])
    if float(vals[0]) < -1e-12 * lam_max or lam_max <= 0.0:
        raise NotPositiveDefiniteError(
            f"intermediate matrix is not PSD: lambda_min = {vals[0]:.3e}, lambda_max = {lam_max:.3e}"
        )
    return hermitian_part((vecs * np.maximum(vals, 0.0) ** t) @ vecs.conj().T)


@dataclass(frozen=True)
class MeanWeights:
    """Coefficient bundle (a, b, c, t) for the Heron-type expressions."""

    a: float
    b: float
    c: float
    t: float = 0.5

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise InvalidWeightsError(f"coefficients must be nonnegative: a={self.a}, b={self.b}, c={self.c}")
        if not 0.0 <= self.t <= 1.0:
            raise InvalidWeightsError(f"t must lie in [0, 1], got {self.t}")

    @classmethod
    def sharp(cls, a: float, b: float, t: float = 0.5) -> "MeanWeights":
        """Weights with the endpoint cross coefficient c = 2ab."""
        return cls(a=a, b=b, c=2.0 * a * b, t=t)


def _check_dims(A: PDMatrix, B: PDMatrix) -> None:
    if A.dim != B.dim:
        raise MatrixFormatError(f"dimension mismatch: {A.dim} vs {B.dim}")


def _check_t(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise InvalidWeightsError(f"t must lie in [0, 1], got {t}")


def _geometric_raw(A: PDMatrix, B: PDMatrix, t: float) -> np.ndarray:
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} as a raw array."""
    Ah = principal_sqrt(A)
    Aih = inverse(Ah)
    inner = hermitian_part(Aih.mat @ B.mat @ Aih.mat)
    mid = _psd_pow_raw(inner, t)
    return hermitian_part(Ah.mat @ mid @ Ah.mat)


def _spectral_raw(A: PDMatrix, X: PDMatrix, t: float) -> np.ndarray:
    """X^t A X^t as a raw array."""
    Xt = principal_sqrt(X) if t == 0.5 else pd_power(X, t)
    return hermitian_part(Xt.mat @ A.mat @ Xt.mat)


class Pair:
    """One operand pair of positive definite matrices.

    Each derived quantity is computed at most once, on first use, and
    lives as long as the Pair: callers create one per instance and pass
    it to every computation on that instance.
    """

    __slots__ = ("A", "B", "_riccati", "_spectral", "_geometric", "_wasserstein")

    def __init__(self, A: PDMatrix, B: PDMatrix):
        _check_dims(A, B)
        self.A = A
        self.B = B
        self._riccati = self._spectral = self._geometric = None
        self._wasserstein: dict[tuple[float, float], tuple[np.ndarray, float]] = {}

    @property
    def dim(self) -> int:
        return self.A.dim

    def riccati(self) -> PDMatrix:
        """X = A^{-1} # B, the unique positive definite solution of
        X A X = B, gated because its eigenvectors build A natural B.

        The defining residual is verified once; a violation means the
        floating pipeline lost too much accuracy to be trusted.
        """
        if self._riccati is None:
            A, B = self.A, self.B
            X = PDMatrix(_geometric_raw(inverse(A), B, 0.5))
            residual = float(np.linalg.norm(X.mat @ A.mat @ X.mat - B.mat))
            limit = RICCATI_RESIDUAL_RTOL * float(np.linalg.norm(B.mat))
            if residual > limit:
                raise NumericalFailure(f"Riccati residual ||XAX - B|| = {residual:.3e} exceeds {limit:.3e}")
            self._riccati = X
        return self._riccati

    def spectral(self) -> np.ndarray:
        """A natural B = X^{1/2} A X^{1/2}."""
        if self._spectral is None:
            self._spectral = _spectral_raw(self.A, self.riccati(), 0.5)
        return self._spectral

    def geometric(self) -> np.ndarray:
        """A # B."""
        if self._geometric is None:
            self._geometric = _geometric_raw(self.A, self.B, 0.5)
        return self._geometric

    def _wasserstein_entry(self, a: float, b: float) -> tuple[np.ndarray, float]:
        key = (float(a), float(b))
        if key not in self._wasserstein:
            self._wasserstein[key] = self._compute_wasserstein(*key)
        return self._wasserstein[key]

    def _compute_wasserstein(self, a: float, b: float) -> tuple[np.ndarray, float]:
        if a < 0 or b < 0:
            raise InvalidWeightsError(f"weights must be nonnegative: a={a}, b={b}")
        A, B = self.A.mat, self.B.mat
        if b == 0.0:
            return a * a * A, 0.0
        if a == 0.0:
            return b * b * B, 0.0
        X = self.riccati().mat
        T = a * np.eye(self.dim) + b * X
        by_congruence = hermitian_part(T @ A @ T)
        AX = A @ X
        by_definition = a * a * A + b * b * B + a * b * (AX + AX.conj().T)
        scale = float(np.linalg.norm(by_congruence))
        residual = float(np.linalg.norm(by_definition - by_congruence))
        if residual > WASSERSTEIN_FORM_RTOL * scale:
            raise NumericalFailure(
                f"Wasserstein dual formulas disagree: ||diff|| = {residual:.3e} vs scale {scale:.3e}"
            )
        return by_congruence, residual

    def wasserstein(self, a: float, b: float) -> np.ndarray:
        """W_{a,b}(A,B) through the congruence form (aI + bX) A (aI + bX),
        cross-validated against the definitional form."""
        return self._wasserstein_entry(a, b)[0]

    def wasserstein_residual(self, a: float, b: float) -> float:
        """Frobenius distance between the two Wasserstein formulas."""
        return self._wasserstein_entry(a, b)[1]

    def heron(self, cross: str, a: float, b: float, c: float) -> np.ndarray:
        """a^2 A + b^2 B + c M with the cross term M = A natural B
        (cross="spectral") or A # B (cross="geometric")."""
        A, B = self.A.mat, self.B.mat
        if c == 0.0:
            return a * a * A + b * b * B
        M = self.spectral() if cross == "spectral" else self.geometric()
        return a * a * A + b * b * B + c * M


def geometric_mean(A: PDMatrix, B: PDMatrix) -> PDMatrix:
    """Midpoint geometric mean A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}."""
    return PDMatrix(Pair(A, B).geometric())


def geometric_mean_weighted(A: PDMatrix, B: PDMatrix, t: float) -> PDMatrix:
    """Weighted geometric mean A #_t B."""
    _check_dims(A, B)
    _check_t(t)
    if t == 0.0:
        return A
    if t == 1.0:
        return B
    return PDMatrix(_geometric_raw(A, B, t))


def riccati_mean(A: PDMatrix, B: PDMatrix) -> PDMatrix:
    """X = A^{-1} # B, the unique positive definite solution of X A X = B."""
    return Pair(A, B).riccati()


def spectral_mean_weighted(A: PDMatrix, B: PDMatrix, t: float) -> PDMatrix:
    """Weighted spectral geometric mean (A^{-1} # B)^t A (A^{-1} # B)^t."""
    pair = Pair(A, B)
    _check_t(t)
    if t == 0.0:
        return A
    return PDMatrix(_spectral_raw(A, pair.riccati(), t))


def spectral_mean(A: PDMatrix, B: PDMatrix) -> PDMatrix:
    """Midpoint spectral geometric mean."""
    return PDMatrix(Pair(A, B).spectral())


def product_sqrt_pair(A: PDMatrix, B: PDMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Principal square roots ((AB)^{1/2}, (BA)^{1/2}) = (A X, X A).

    Neither factor is Hermitian in general, but their sum is.
    """
    X = riccati_mean(A, B)
    return A.mat @ X.mat, X.mat @ A.mat


def wasserstein_expression(A: PDMatrix, B: PDMatrix, a: float, b: float) -> HermitianMatrix:
    """W_{a,b}(A,B) = a^2 A + b^2 B + ab((AB)^{1/2} + (BA)^{1/2}).

    Computed through the congruence form (aI + bX) A (aI + bX) and
    cross-validated against the definitional form on every call.
    """
    return HermitianMatrix(Pair(A, B).wasserstein(a, b))


def wasserstein_residual(A: PDMatrix, B: PDMatrix, a: float, b: float) -> float:
    """Frobenius distance between the two Wasserstein formulas."""
    return Pair(A, B).wasserstein_residual(a, b)


def bw_geodesic(A: PDMatrix, B: PDMatrix, t: float) -> HermitianMatrix:
    """Bures-Wasserstein geodesic point W_{1-t,t}(A, B)."""
    _check_t(t)
    return wasserstein_expression(A, B, 1.0 - t, t)


def heron_spectral(A: PDMatrix, B: PDMatrix, w: MeanWeights) -> PDMatrix:
    """Spectral Heron expression a^2 A + b^2 B + c (A natural B)."""
    return PDMatrix(Pair(A, B).heron("spectral", w.a, w.b, w.c))


def heron_kubo(A: PDMatrix, B: PDMatrix, a: float, b: float, c: float | None = None) -> PDMatrix:
    """Heron expression with the geometric-mean cross term,
    a^2 A + b^2 B + c (A # B); c defaults to the endpoint 2ab."""
    if c is None:
        c = 2.0 * a * b
    if a < 0 or b < 0 or c < 0:
        raise InvalidWeightsError(f"coefficients must be nonnegative: a={a}, b={b}, c={c}")
    return PDMatrix(Pair(A, B).heron("geometric", a, b, c))
