"""Matrix means and the quadratic Heron / Bures-Wasserstein expressions.

The central device is the Riccati parametrization: X = A^{-1} # B is the
unique positive definite solution of X A X = B, and it linearizes the
cross terms:

    (A B)^{1/2} = A X,      (B A)^{1/2} = X A,
    W_{a,b}(A, B) = a^2 A + b^2 B + a b ((A B)^{1/2} + (B A)^{1/2})
                  = (a I + b X) A (a I + b X).

The dual Wasserstein formula is recomputed for every W_{a,b} and used as
a built-in correctness oracle.

Everything here is written once over (..., n, n) stacks.  A `Pair`
holds one operand pair (batch shape ()) or a stack of same-dimension
pairs, and computes each derived quantity at most once: X, A natural B,
A # B, the square roots and each W_{a,b}.  `Pair.herons` and
`Pair.wassersteins` build many expressions over many pairs of the stack
in one batched pass (the suite's whole Heron/Wasserstein grid, say).
Its kernels return raw Hermitian arrays and take the operands'
decompositions from where they were gated: PDMatrix operands
(`Pair(A, B)`, `Pair.stack`), one `linalg.gate_stack` call
(`Pair.gated`), or a gate the caller ran (`Pair.decomposed`, joined
with `Pair.join`).  The strict gate runs where a value leaves or is
judged: on the operands, on what the public functions below return
(each a thin wrapper over a one-pair Pair), and, through
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
    adjoint,
    as_stack,
    assemble,
    check_pd,
    frobenius,
    gate_stack,
    hermitian_part,
    locate,
)

RICCATI_RESIDUAL_RTOL = 1e-8
WASSERSTEIN_FORM_RTOL = 1e-8


def _psd_pow_raw(mat: np.ndarray, t: float) -> np.ndarray:
    """mat**t for a raw PSD intermediate, or a stack of them.

    Conjugated intermediates like A^{-1/2} B A^{-1/2} can be far worse
    conditioned than either operand, so they bypass the strict PDMatrix
    gate; genuine indefiniteness is still rejected, and rounding-level
    negative eigenvalues clamp to zero.
    """
    vals, vecs = np.linalg.eigh(mat)
    lam_min, lam_max = vals[..., 0], vals[..., -1]
    bad = (lam_min < -1e-12 * lam_max) | (lam_max <= 0.0)
    if bad.any():
        i, where = locate(bad)
        raise NotPositiveDefiniteError(
            f"intermediate matrix is not PSD: lambda_min = {lam_min[i]:.3e}, "
            f"lambda_max = {lam_max[i]:.3e}{where}"
        )
    return assemble(np.maximum(vals, 0.0) ** t, vecs)


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


Eig = tuple[np.ndarray, np.ndarray]


def _eig(P: PDMatrix) -> Eig:
    dec = P.eig()
    return dec.eigenvalues, dec.eigenvectors


def _inverse(eig: Eig) -> Eig:
    """Decomposition of P^{-1} from that of a gated P, decreasing."""
    vals, vecs = eig
    inv = (1.0 / vals)[..., ::-1]
    check_pd(inv)
    return inv, vecs[..., ::-1]


def _root(eig: Eig) -> Eig:
    """Decomposition of P^{1/2} from that of a gated P."""
    root = np.sqrt(eig[0])
    check_pd(root)
    return root, eig[1]


def _geometric_raw(eig_A: Eig, B: np.ndarray, t: float) -> np.ndarray:
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} as a raw array,
    with A given by its decomposition."""
    root = _root(eig_A)
    Ah, Aih = assemble(*root), assemble(*_inverse(root))
    mid = _psd_pow_raw(hermitian_part(Aih @ B @ Aih), t)
    return hermitian_part(Ah @ mid @ Ah)


def _spectral_raw(A: np.ndarray, eig_X: Eig, t: float) -> np.ndarray:
    """X^t A X^t as a raw array, with X given by its decomposition."""
    vals = np.sqrt(eig_X[0]) if t == 0.5 else eig_X[0] ** t
    check_pd(vals)
    Xt = assemble(vals, eig_X[1])
    return hermitian_part(Xt @ A @ Xt)


def _stacked(mats: list[PDMatrix]) -> tuple[np.ndarray, Eig]:
    eigs = [_eig(M) for M in mats]
    return np.stack([M.mat for M in mats]), (np.stack([v for v, _ in eigs]), np.stack([U for _, U in eigs]))


class Pair:
    """One operand pair of positive definite matrices, or a stack of
    same-dimension pairs: A and B are (..., n, n) arrays.

    Each derived quantity is computed at most once, on first use, for the
    whole stack, and lives as long as the Pair: callers create one per
    instance (or per stack of instances) and pass it to every computation
    on it.  `herons` and `wassersteins` take the index of a pair in the
    flattened stack, so one call builds many expressions over many pairs.
    """

    __slots__ = ("A", "B", "_eig_A", "_eig_B", "_riccati", "_spectral", "_geometric", "_sqrt", "_wasserstein")

    def __init__(self, A: PDMatrix, B: PDMatrix):
        _check_dims(A, B)
        self._set(A.mat, B.mat, _eig(A), _eig(B))

    def _set(self, A: np.ndarray, B: np.ndarray, eig_A: Eig, eig_B: Eig) -> None:
        self.A, self.B = A, B
        self._eig_A, self._eig_B = eig_A, eig_B
        self._riccati = self._spectral = self._geometric = self._sqrt = None
        self._wasserstein: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def decomposed(cls, A, B, eig_A: Eig, eig_B: Eig) -> "Pair":
        """Pair of raw Hermitian (..., n, n) stacks with the decompositions
        (decreasing eigenvalues, eigenvectors) that a gate made of them."""
        obj = cls.__new__(cls)
        obj._set(A, B, eig_A, eig_B)
        return obj

    @classmethod
    def stack(cls, pairs) -> "Pair":
        """Stack of same-dimension (PDMatrix, PDMatrix) pairs, with the
        decompositions their gates already made."""
        dims = {M.dim for pair in pairs for M in pair}
        if len(dims) != 1:
            raise MatrixFormatError(f"cannot stack pairs of dimensions {sorted(dims)}")
        (A, eig_A), (B, eig_B) = (_stacked([pair[k] for pair in pairs]) for k in (0, 1))
        return cls.decomposed(A, B, eig_A, eig_B)

    @classmethod
    def join(cls, pairs) -> "Pair":
        """The (k_i, n, n) stacks of several Pairs as one stack, in order."""
        cat = np.concatenate
        return cls.decomposed(cat([p.A for p in pairs]), cat([p.B for p in pairs]),
                              tuple(cat([p._eig_A[k] for p in pairs]) for k in (0, 1)),
                              tuple(cat([p._eig_B[k] for p in pairs]) for k in (0, 1)))

    @classmethod
    def gated(cls, A, B) -> "Pair":
        """Pair of raw (..., n, n) stacks, both gated as positive definite
        in one `gate_stack` call; an error names its stack index as
        (0 for A or 1 for B, *index within the stack)."""
        A, B = np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128)
        if A.shape != B.shape:
            raise MatrixFormatError(f"shape mismatch: {A.shape} vs {B.shape}")
        mats = np.stack([A, B])
        vals, vecs = gate_stack(mats)
        mats = hermitian_part(mats)
        return cls.decomposed(mats[0], mats[1], (vals[0], vecs[0]), (vals[1], vecs[1]))

    def __getitem__(self, index) -> "Pair":
        """The pairs at `index` of the stack, sharing the decompositions
        and every mean already computed."""
        def part(value):
            return None if value is None else tuple(x[index] for x in value)

        obj = Pair.decomposed(self.A[index], self.B[index], part(self._eig_A), part(self._eig_B))
        obj._riccati = None if self._riccati is None else (self._riccati[0][index], part(self._riccati[1]))
        obj._spectral = None if self._spectral is None else self._spectral[index]
        obj._geometric = None if self._geometric is None else self._geometric[index]
        obj._sqrt = part(self._sqrt)
        return obj

    @property
    def dim(self) -> int:
        return self.A.shape[-1]

    def __len__(self) -> int:
        """Number of pairs in the flattened stack (1 for one pair)."""
        return as_stack(self.A).shape[0]

    def sqrt(self) -> tuple[np.ndarray, np.ndarray]:
        """(A^{1/2}, B^{1/2}) from the operands' decompositions."""
        if self._sqrt is None:
            self._sqrt = assemble(*_root(self._eig_A)), assemble(*_root(self._eig_B))
        return self._sqrt

    def _riccati_gated(self) -> tuple[np.ndarray, Eig]:
        """X = A^{-1} # B, the unique positive definite solution of
        X A X = B, gated because its eigenvectors build A natural B.

        The defining residual is verified once; a violation means the
        floating pipeline lost too much accuracy to be trusted.
        """
        if self._riccati is None:
            A, B = self.A, self.B
            X = _geometric_raw(_inverse(self._eig_A), B, 0.5)
            eig_X = gate_stack(X)
            residual = frobenius(X @ A @ X - B)
            limit = RICCATI_RESIDUAL_RTOL * frobenius(B)
            bad = residual > limit
            if bad.any():
                i, where = locate(bad)
                raise NumericalFailure(
                    f"Riccati residual ||XAX - B|| = {residual[i]:.3e} exceeds {limit[i]:.3e}{where}")
            self._riccati = X, eig_X
        return self._riccati

    def riccati(self) -> np.ndarray:
        """X = A^{-1} # B as a raw array (gated)."""
        return self._riccati_gated()[0]

    def spectral(self) -> np.ndarray:
        """A natural B = X^{1/2} A X^{1/2}."""
        if self._spectral is None:
            self._spectral = _spectral_raw(self.A, self._riccati_gated()[1], 0.5)
        return self._spectral

    def geometric(self) -> np.ndarray:
        """A # B."""
        if self._geometric is None:
            self._geometric = _geometric_raw(self._eig_A, self.B, 0.5)
        return self._geometric

    def wassersteins(self, index, a, b) -> tuple[np.ndarray, np.ndarray]:
        """W_{a_i,b_i} of pair index[i] of the flattened stack, and the
        Frobenius distance between its two formulas, in one batched pass.

        W is computed through the congruence form (aI + bX) A (aI + bX)
        and cross-validated against the definitional form
        a^2 A + b^2 B + ab((AB)^{1/2} + (BA)^{1/2}); with a zero weight it
        is exactly a^2 A or b^2 B.
        """
        index = np.asarray(index)
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        negative = (a < 0) | (b < 0)
        if negative.any():
            i = int(np.argmax(negative))
            raise InvalidWeightsError(f"weights must be nonnegative: a={a[i]}, b={b[i]}")
        A, B = as_stack(self.A)[index], as_stack(self.B)[index]
        both = (a != 0.0) & (b != 0.0)
        a, b = a[:, None, None], b[:, None, None]
        W = np.where(b == 0.0, a * a * A, b * b * B)
        residual = np.zeros(len(index))
        if both.any():
            X = as_stack(self.riccati())[index[both]]
            a, b, A, B = a[both], b[both], A[both], B[both]
            T = a * np.eye(self.dim) + b * X
            by_congruence = hermitian_part(T @ A @ T)
            AX = A @ X
            by_definition = a * a * A + b * b * B + a * b * (AX + adjoint(AX))
            scale = frobenius(by_congruence)
            distance = frobenius(by_definition - by_congruence)
            bad = distance > WASSERSTEIN_FORM_RTOL * scale
            if bad.any():
                i, where = locate(bad)
                raise NumericalFailure(
                    f"Wasserstein dual formulas disagree: ||diff|| = {distance[i]:.3e} "
                    f"vs scale {scale[i]:.3e}{where}"
                )
            W[both], residual[both] = by_congruence, distance
        return W, residual

    def _wasserstein_entry(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        key = (float(a), float(b))
        if key not in self._wasserstein:
            m = len(self)
            W, residual = self.wassersteins(np.arange(m), np.full(m, key[0]), np.full(m, key[1]))
            self._wasserstein[key] = W.reshape(self.A.shape), residual.reshape(self.A.shape[:-2])[()]
        return self._wasserstein[key]

    def wasserstein(self, a: float, b: float) -> np.ndarray:
        """W_{a,b}(A,B) of every pair (see `wassersteins`)."""
        return self._wasserstein_entry(a, b)[0]

    def wasserstein_residual(self, a: float, b: float):
        """Frobenius distance between the two Wasserstein formulas, one
        per pair of the stack."""
        return self._wasserstein_entry(a, b)[1]

    def herons(self, index, cross, a, b, c) -> np.ndarray:
        """a_i^2 A + b_i^2 B + c_i M_i of pair index[i] of the flattened
        stack, in one broadcast; the cross term M_i is A natural B where
        cross[i] is "spectral" and A # B otherwise, and is left out where
        c_i = 0 (so no mean is computed for it)."""
        index = np.asarray(index)
        a, b, c = (np.asarray(x, dtype=np.float64)[:, None, None] for x in (a, b, c))
        H = a * a * as_stack(self.A)[index] + b * b * as_stack(self.B)[index]
        spectral = np.asarray(cross) == "spectral"
        for which, mean in ((spectral, self.spectral), (~spectral, self.geometric)):
            add = which & (c[:, 0, 0] != 0.0)
            if add.any():
                H[add] += c[add] * as_stack(mean())[index[add]]
        return H

    def heron(self, cross: str, a: float, b: float, c: float) -> np.ndarray:
        """a^2 A + b^2 B + c M of every pair, with the cross term M = A
        natural B (cross="spectral") or A # B (cross="geometric")."""
        m = len(self)
        return self.herons(np.arange(m), [cross] * m, [a] * m, [b] * m, [c] * m).reshape(self.A.shape)


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
    return PDMatrix(_geometric_raw(_eig(A), B.mat, t))


def riccati_mean(A: PDMatrix, B: PDMatrix) -> PDMatrix:
    """X = A^{-1} # B, the unique positive definite solution of X A X = B."""
    X, (vals, vecs) = Pair(A, B)._riccati_gated()
    return PDMatrix._gated(X, vals, vecs)


def spectral_mean_weighted(A: PDMatrix, B: PDMatrix, t: float) -> PDMatrix:
    """Weighted spectral geometric mean (A^{-1} # B)^t A (A^{-1} # B)^t."""
    pair = Pair(A, B)
    _check_t(t)
    if t == 0.0:
        return A
    return PDMatrix(_spectral_raw(A.mat, pair._riccati_gated()[1], t))


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
