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
A # B and the square roots, each in one stacked call over every pair;
`Pair.take` makes the Pair of some of them.  X = A^{-1} # B and A # B
are one square-root kernel, the chain of `_geometric_raw`, on (A^{-1}, B)
and (A, B) (see Iannazzo, arXiv:1201.0101): `joint_means` runs it once
for both, over the stacked inputs of the Pair whose X is wanted and of
the Pair whose A # B is wanted (one Pair, two Pairs taken from one
stack, or one alone), so one eigendecomposition serves both middles.
A Pair keeps no Heron sum or W_{a,b}: those are built on request, and
`Pair.herons` and `Pair.wassersteins` build many of them over many pairs
of the stack in one batched pass (the suite's whole Heron/Wasserstein
grid, say) from a batch of arrays (`heron_batch`, `wasserstein_batch`)
that also says where in the Pairs holding the means to read them.
Its kernels return raw Hermitian arrays and take the operands'
decompositions from where they were gated: PDMatrix operands
(`Pair(A, B)`, `Pair.stack`) or one `linalg.gate_stack` call
(`Pair.gated`, which keeps the Hermitian parts that gate decomposed);
`Pair.stack` also joins Pairs, so a suite trial puts its drawn pairs
before the gated operand pairs of pinching and of the semidefinite
limit.  The strict
gate runs where a value leaves or is judged: on the operands, on what
the public functions below return (each a thin wrapper over a one-pair
Pair), and, through `linalg.gate_stack`, on every matrix whose spectrum
a checker compares.  The one gated intermediate is X, whose
eigenvectors build A natural B.  A^{+-1/2} and X^t are `linalg.derived`
from the gated decompositions, the stacked checks fail through
`linalg.require`, and the coefficients go through `linalg.require_weights`.
"""

from __future__ import annotations

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
    SpectralDecomposition,
    _eigh,
    adjoint,
    as_stack,
    assemble,
    derived,
    frobenius,
    gate_stack,
    gate_stack_parts,
    hermitian_part,
    require,
    require_entry_limit,
    require_weights,
)

RICCATI_RESIDUAL_RTOL = 1e-8
WASSERSTEIN_FORM_RTOL = 1e-8


def _psd_pow_raw(middle: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """mat**t for a raw PSD intermediate, or a stack of them, from its
    `linalg._eigh` decomposition `middle`.

    Conjugated intermediates like A^{-1/2} B A^{-1/2} can be far worse
    conditioned than either operand, so they bypass the strict PDMatrix
    gate; genuine indefiniteness is still rejected, and rounding-level
    negative eigenvalues clamp to zero.  It reads the decomposition as
    `_eigh` returns it, in LAPACK's increasing order, so U f(Lambda) U*
    sums its terms in that order.
    """
    vals, vecs = middle
    lam_min, lam_max = vals[..., 0], vals[..., -1]
    require((lam_min >= -1e-12 * lam_max) & (lam_max > 0.0), NotPositiveDefiniteError,
            lambda i: f"intermediate matrix is not PSD: lambda_min = {lam_min[i]:.3e}, "
                      f"lambda_max = {lam_max[i]:.3e}")
    return assemble(np.maximum(vals, 0.0) ** t, vecs)


def _check_dims(A: PDMatrix, B: PDMatrix) -> None:
    if A.dim != B.dim:
        raise MatrixFormatError(f"dimension mismatch: {A.dim} vs {B.dim}")


def _check_t(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise InvalidWeightsError(f"t must lie in [0, 1], got {t}")


def _middle(eig_A: SpectralDecomposition, B: np.ndarray) -> tuple[np.ndarray, tuple]:
    """A^{1/2} and the `_eigh` decomposition of the middle A^{-1/2} B
    A^{-1/2} of A #_t B, with A given by its decomposition."""
    root = derived(eig_A, np.sqrt)
    Ah, Aih = assemble(*root), assemble(*derived(root, np.reciprocal, reverse=True))
    return Ah, _eigh(hermitian_part(Aih @ B @ Aih))


def _geometric_raw(Ah: np.ndarray, middle: tuple, t: float) -> np.ndarray:
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} as a raw array,
    from A^{1/2} and the middle's decomposition (`_middle`)."""
    return hermitian_part(Ah @ _psd_pow_raw(middle, t) @ Ah)


def _spectral_raw(A: np.ndarray, eig_X: SpectralDecomposition, t: float) -> np.ndarray:
    """X^t A X^t as a raw array, with X given by its decomposition."""
    Xt = assemble(*derived(eig_X, np.sqrt if t == 0.5 else lambda vals: vals ** t))
    return hermitian_part(Xt @ A @ Xt)


def _stack_rows(item) -> tuple:
    """A, B and the eigenvalues and eigenvectors of each, as (k, ...)
    stacks, of one item of `Pair.stack`: a Pair or a (PDMatrix, PDMatrix)
    pair."""
    if isinstance(item, Pair):
        return (as_stack(item.A), as_stack(item.B), *_flat(item._eig_A), *_flat(item._eig_B))
    A, B = item
    return tuple(part[None] for part in (A.mat, B.mat, *A.eig(), *B.eig()))


def _flat(dec: SpectralDecomposition) -> SpectralDecomposition:
    """A decomposition of one matrix or of a stack as a (k, n) / (k, n, n) stack."""
    n = dec.dim
    return SpectralDecomposition(dec.eigenvalues.reshape(-1, n), dec.eigenvectors.reshape(-1, n, n))


class Pair:
    """One operand pair of positive definite matrices, or a stack of
    same-dimension pairs: A and B are (..., n, n) arrays.

    Each derived quantity is computed at most once, on first use, in one
    stacked call, and lives as long as the Pair: callers create one per
    instance (or per stack of instances) and pass it to every computation
    on it.  A mean is computed on every pair of the stack; `take` makes
    the Pair of fewer pairs to compute one on.  X and A # B come from
    `joint_means`: `riccati`, `spectral` and `geometric` run it for this
    Pair alone, and a caller that wants both, on this Pair or on two
    Pairs of one stack, runs it once for both first.  The batches of `herons`
    and `wassersteins` index pairs of the flattened stack, and read their
    means from Pairs they are given at the batch's positions, so one call
    builds many expressions over many pairs.
    """

    __slots__ = ("A", "B", "_eig_A", "_eig_B", "_riccati", "_spectral", "_geometric", "_sqrt")

    def __init__(self, A: PDMatrix, B: PDMatrix):
        _check_dims(A, B)
        self._init(A.mat, B.mat, A.eig(), B.eig())

    def _init(self, A, B, eig_A: SpectralDecomposition, eig_B: SpectralDecomposition) -> "Pair":
        """The one constructor, for a new Pair: raw Hermitian (..., n, n)
        stacks with the decompositions their gate made."""
        self.A, self.B = A, B
        self._eig_A, self._eig_B = eig_A, eig_B
        self._riccati = self._spectral = self._geometric = self._sqrt = None
        return self

    @classmethod
    def stack(cls, pairs) -> "Pair":
        """Stack of same-dimension operand pairs, in order, with the
        decompositions their gates already made: each item is a
        (PDMatrix, PDMatrix) pair, or a Pair whose flattened pairs it
        adds.  No mean is carried over."""
        rows = [_stack_rows(item) for item in pairs]
        dims = {row[k].shape[-1] for row in rows for k in (0, 1)}
        if len(dims) != 1:
            raise MatrixFormatError(f"cannot stack pairs of dimensions {sorted(dims)}")
        A, B, vals_A, vecs_A, vals_B, vecs_B = (np.concatenate(column) for column in zip(*rows))
        eig_A, eig_B = SpectralDecomposition(vals_A, vecs_A), SpectralDecomposition(vals_B, vecs_B)
        return cls.__new__(cls)._init(A, B, eig_A, eig_B)

    @classmethod
    def gated(cls, A, B) -> "Pair":
        """Pair of raw (..., n, n) stacks, both gated as positive definite
        in one `gate_stack` call; an error names its stack index as
        (0 for A or 1 for B, *index within the stack)."""
        A, B = np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128)
        if A.shape != B.shape:
            raise MatrixFormatError(f"shape mismatch: {A.shape} vs {B.shape}")
        mats, dec = gate_stack_parts(np.stack([A, B]))
        return cls.__new__(cls)._init(mats[0], mats[1], dec.at(0), dec.at(1))

    @property
    def dim(self) -> int:
        return self.A.shape[-1]

    def __len__(self) -> int:
        """Number of pairs in the flattened stack (1 for one pair)."""
        return as_stack(self.A).shape[0]

    def take(self, where) -> "Pair":
        """A new Pair of the pairs at positions `where` of the flattened
        stack, in that order, with their decompositions and no mean; the
        Pair itself, with the means it already computed, when `where`
        names every pair in order."""
        if np.array_equal(where, range(len(self))):
            return self
        A, B, vals_A, vecs_A, vals_B, vecs_B = (part[where] for part in _stack_rows(self))
        eig_A, eig_B = SpectralDecomposition(vals_A, vecs_A), SpectralDecomposition(vals_B, vecs_B)
        return Pair.__new__(Pair)._init(A, B, eig_A, eig_B)

    def sqrt(self) -> tuple[np.ndarray, np.ndarray]:
        """(A^{1/2}, B^{1/2}) from the operands' decompositions."""
        if self._sqrt is None:
            self._sqrt = assemble(*derived(self._eig_A, np.sqrt)), assemble(*derived(self._eig_B, np.sqrt))
        return self._sqrt

    def _riccati_gated(self) -> tuple[np.ndarray, SpectralDecomposition]:
        """X = A^{-1} # B, the unique positive definite solution of
        X A X = B, with the decomposition of its gate (see `joint_means`)."""
        if self._riccati is None:
            joint_means(self, None)
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
        """A # B (see `joint_means`)."""
        if self._geometric is None:
            joint_means(None, self)
        return self._geometric

    def wassersteins(self, batch, means: dict | None = None,
                     shape: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """W_{a_i,b_i} of pair index[i] of the flattened stack (a
        `wasserstein_batch`), and the Frobenius distance between its two
        formulas, in one batched pass; X is read from the Pair
        means["riccati"] (by default this one) at the batch's positions.

        W is computed through the congruence form (aI + bX) A (aI + bX)
        and cross-validated against the definitional form
        a^2 A + b^2 B + ab((AB)^{1/2} + (BA)^{1/2}); with a zero weight it
        is exactly a^2 A or b^2 B.  A failed check names its position in
        the batch, or its index in `shape`, the stack shape of a batch
        whose weights are all nonzero (() for one pair, named by no index).
        """
        index, a, b, both, at = batch
        A, B = as_stack(self.A)[index], as_stack(self.B)[index]
        W = np.where(b == 0.0, a * a * A, b * b * B)
        residual = np.zeros(len(index))
        if len(both):
            shape = (len(both),) if shape is None else shape
            X = as_stack((self if means is None else means["riccati"]).riccati())[at]
            a, b, A, B = a[both], b[both], A[both], B[both]
            T = a * np.eye(self.dim) + b * X
            by_congruence = hermitian_part(T @ A @ T)
            # so that its norms below stay finite
            require_entry_limit(by_congruence.reshape(shape + T.shape[-2:]), NumericalFailure)
            AX = A @ X
            by_definition = a * a * A + b * b * B + a * b * (AX + adjoint(AX))
            scale = frobenius(by_congruence)
            distance = frobenius(by_definition - by_congruence)
            require((distance <= WASSERSTEIN_FORM_RTOL * scale).reshape(shape), NumericalFailure,
                    lambda i: f"Wasserstein dual formulas disagree: ||diff|| = {distance.reshape(shape)[i]:.3e} "
                              f"vs scale {scale.reshape(shape)[i]:.3e}")
            W[both], residual[both] = by_congruence, distance
        return W, residual

    def wasserstein(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """W_{a,b}(A,B) of every pair and the Frobenius distance between
        its two formulas, one per pair (see `wassersteins`).  Any finite
        weights are taken: W is formed with overflow allowed, then checked
        against the entry limit, which an overflow fails."""
        require_weights("wasserstein", a=a, b=b)
        if a and b:
            self.riccati()  # X first, outside the overflow allowance
        m = len(self)
        with np.errstate(over="ignore", invalid="ignore"):
            W, residual = self.wassersteins(
                wasserstein_batch(np.arange(m), np.full(m, float(a)), np.full(m, float(b))),
                shape=self.A.shape[:-2])
        W = W.reshape(self.A.shape)
        require_entry_limit(W, NumericalFailure)
        return W, residual.reshape(self.A.shape[:-2])[()]

    def herons(self, batch, means: dict | None = None) -> np.ndarray:
        """The Heron sums of a `heron_batch` in one broadcast, with the
        cross terms A natural B and A # B read from the Pairs
        means["riccati"] and means["geometric"] (by default this one) at
        the batch's positions; a mean no sum reads is not looked up."""
        index, a2, b2, terms = batch
        H = a2 * as_stack(self.A)[index] + b2 * as_stack(self.B)[index]
        for name, mean, (rows, c, at) in zip(("riccati", "geometric"), (Pair.spectral, Pair.geometric), terms):
            if len(rows):
                H[rows] += c * as_stack(mean(self if means is None else means[name]))[at]
        return H

    def heron(self, cross: str, a: float, b: float, c: float) -> np.ndarray:
        """a^2 A + b^2 B + c M of every pair, with the cross term M = A
        natural B (cross="spectral") or A # B (cross="geometric").  Any
        finite nonnegative weights are taken: the sum is formed with
        overflow allowed, then checked against the entry limit, which an
        overflow fails."""
        require_weights("heron", a=a, b=b, c=c)
        if c:
            getattr(self, cross)()  # M first, outside the overflow allowance
        m = len(self)
        with np.errstate(over="ignore", invalid="ignore"):
            H = self.herons(heron_batch(np.arange(m), [cross] * m, [a] * m, [b] * m, [c] * m))
        H = H.reshape(self.A.shape)
        require_entry_limit(H, NumericalFailure)
        return H


def joint_means(riccati: Pair | None, geometric: Pair | None) -> None:
    """X = A^{-1} # B of the Pair `riccati` and A # B of the Pair
    `geometric`, each where that Pair has not computed it yet, in one pass
    of the `_geometric_raw` chain over both Pairs' inputs stacked: X is
    (A^{-1}) # B, so its input is A's eigen-data as reversed reciprocals,
    and that of A # B is A's eigen-data as is.  One `_eigh` decomposes
    every middle.  The two may be one Pair, two Pairs taken from one
    stack, or one of them None.

    X is gated, because its eigenvectors build A natural B, and its
    defining residual is verified once; a violation means the floating
    pipeline lost too much accuracy to be trusted.  The checks run in the
    order of two separate passes, each naming its stack index within its
    own Pair: X's middle, X's gate and residual, then the middle of A # B.
    """
    x = riccati if riccati is not None and riccati._riccati is None else None
    g = geometric if geometric is not None and geometric._geometric is None else None
    sides = [side for side in (x, g) if side is not None]
    if not sides:
        return
    inputs = [derived(x._eig_A, np.reciprocal, reverse=True)] if x is not None else []
    inputs += [g._eig_A] if g is not None else []
    eig = SpectralDecomposition(*(np.concatenate(part) for part in zip(*map(_flat, inputs))))
    Ah, (vals, vecs) = _middle(eig, np.concatenate([as_stack(side.B) for side in sides]))

    def mean(side: Pair, rows: slice) -> np.ndarray:
        shape = side.A.shape
        middle = vals[rows].reshape(shape[:-1]), vecs[rows].reshape(shape)
        return _geometric_raw(Ah[rows].reshape(shape), middle, 0.5)

    k = 0
    if x is not None:
        k = len(x)
        X = mean(x, slice(0, k))
        eig_X = gate_stack(X)
        residual = frobenius(X @ x.A @ X - x.B)
        limit = RICCATI_RESIDUAL_RTOL * frobenius(x.B)
        require(residual <= limit, NumericalFailure,
                lambda i: f"Riccati residual ||XAX - B|| = {residual[i]:.3e} exceeds {limit[i]:.3e}")
        x._riccati = X, eig_X
    if g is not None:
        g._geometric = mean(g, slice(k, None))


def heron_batch(index, cross, a, b, c, at=None) -> tuple:
    """The arrays of `Pair.herons` for a_i^2 A + b_i^2 B + c_i M_i of
    pair index[i], to build on many Pairs: M_i is A natural B where
    cross[i] is "spectral" and A # B otherwise, read at position at[i]
    (by default index[i]) of the Pair that holds it, and is left out
    where c_i = 0 (so no mean is computed for it)."""
    index = np.asarray(index, dtype=np.intp)
    at = index if at is None else np.asarray(at, dtype=np.intp)
    a, b, c = (np.asarray(x, dtype=np.float64)[:, None, None] for x in (a, b, c))
    spectral = np.asarray(cross) == "spectral"
    rows = (np.flatnonzero(which & (c[:, 0, 0] != 0.0)) for which in (spectral, ~spectral))
    return index, a * a, b * b, tuple((r, c[r], at[r]) for r in rows)


def wasserstein_batch(index, a, b, at=None) -> tuple:
    """The arrays of `Pair.wassersteins` for W_{a_i,b_i} of pair
    index[i], with X read at position at[i] (by default index[i]) of the
    Pair that holds it, to build on many Pairs; the weights are checked
    here."""
    index = np.asarray(index, dtype=np.intp)
    at = index if at is None else np.asarray(at, dtype=np.intp)
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    require_weights("wasserstein", a=a, b=b)
    both = np.flatnonzero((a != 0.0) & (b != 0.0))
    return index, a[:, None, None], b[:, None, None], both, at[both]


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
    return PDMatrix(_geometric_raw(*_middle(A.eig(), B.mat), t))


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
    return HermitianMatrix(Pair(A, B).wasserstein(a, b)[0])


def bw_geodesic(A: PDMatrix, B: PDMatrix, t: float) -> HermitianMatrix:
    """Bures-Wasserstein geodesic point W_{1-t,t}(A, B)."""
    _check_t(t)
    return wasserstein_expression(A, B, 1.0 - t, t)


def _heron(name: str, cross: str, A: PDMatrix, B: PDMatrix, a: float, b: float, c: float | None) -> PDMatrix:
    require_weights(name, a=a, b=b, **({} if c is None else {"c": c}))
    if c is None:
        c = 2.0 * a * b
        require(np.isfinite(c), NumericalFailure, lambda _: f"{name}: c = 2ab overflows at a = {a}, b = {b}")
    return PDMatrix(Pair(A, B).heron(cross, a, b, c))


def heron_spectral(A: PDMatrix, B: PDMatrix, a: float, b: float, c: float | None = None) -> PDMatrix:
    """Spectral Heron expression a^2 A + b^2 B + c (A natural B); c
    defaults to the endpoint 2ab."""
    return _heron("heron_spectral", "spectral", A, B, a, b, c)


def heron_kubo(A: PDMatrix, B: PDMatrix, a: float, b: float, c: float | None = None) -> PDMatrix:
    """Heron expression with the geometric-mean cross term,
    a^2 A + b^2 B + c (A # B); c defaults to the endpoint 2ab."""
    return _heron("heron_kubo", "geometric", A, B, a, b, c)
