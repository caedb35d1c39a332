"""Dense complex Hermitian linear algebra on small matrices.

One value type, `HermitianMatrix`, holds a gated Hermitian array and
caches its `SpectralDecomposition`, the (eigenvalues, eigenvectors)
tuple.  `PDMatrix` is the same type with a positivity certificate: a
subclass whose gated eigenvalues passed the positive-definite check.  A
value built from eigen-data a gate has already checked (`_gated`) keeps
that decomposition instead of computing a new one.

All matrix functions (square root, inverse, the powers inside the means'
kernels) are computed through one eigendecomposition path, never by
iteration, so a single accuracy model covers everything: f(P) of a gated P is `derived`
from its decomposition.  Every stacked check fails through `require`,
and every weight is checked by `require_weights`.  Values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InvalidWeightsError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalFailure,
)

# Construction-time Hermitization: asymmetry within this relative threshold
# is averaged away, anything larger is rejected rather than silently fixed.
HERMITIAN_ASYMMETRY_RTOL = 1e-13
# Positive definiteness: smallest eigenvalue must clear this fraction of the
# largest one.
PD_EIGENVALUE_RTOL = 1e-12
# Eigendecomposition quality gates.
RECONSTRUCTION_RTOL = 1e-10
UNITARITY_RTOL = 1e-10
# Bytes of the eigenvector stack that one slice of the decomposition
# checks covers: 256 n x n complex matrices at n = 8, 16 at n = 32.
CHECK_SLICE_BYTES = 1 << 18


def _as_complex_square(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise MatrixFormatError(f"expected a nonempty square matrix, got shape {mat.shape}")
    return mat


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M*)/2 for raw arrays, or (..., n, n) stacks of them, whose
    Hermitianity is guaranteed algebraically but not bitwise."""
    return (mat + adjoint(mat)) / 2


def adjoint(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., n, n) stack."""
    return np.conj(np.swapaxes(mats, -1, -2))


def assemble(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """U diag(vals) U* over a stack, as a raw Hermitian array."""
    return hermitian_part((vecs * vals[..., None, :]) @ adjoint(vecs))


def as_stack(mats: np.ndarray) -> np.ndarray:
    """A (..., n, n) stack, or one matrix, as a (k, n, n) stack."""
    return mats.reshape((-1,) + mats.shape[-2:])


def frobenius(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, n) stack."""
    return np.linalg.norm(mats, axis=(-2, -1))


# ---------------------------------------------------------------------------
# the gate: each check written once over (..., n, n) stacks; the
# constructors below run the same checks on a single matrix
# ---------------------------------------------------------------------------

def require(ok, error: type[Exception], describe: Callable[[tuple], str]) -> None:
    """The one failure path of every stacked check: raise
    `error(describe(i) + " (stack index i)")` for the first slice i of a
    stack where `ok` is False; a single check (0-d `ok`) adds no index.
    Callers write `ok` so that NaN fails it."""
    ok = np.asarray(ok)
    if ok.all():
        return
    if ok.ndim == 0:
        raise error(describe(()))
    i = tuple(int(k) for k in np.argwhere(~ok)[0])
    raise error(f"{describe(i)} (stack index {i})")


def require_weights(name: str, positive: bool = False, **weights: float) -> None:
    """The one weight check: each weight must be finite and nonnegative,
    or positive where `positive`; written so that NaN and +-inf fail."""
    bound = "positive" if positive else "nonnegative"
    ok = all((w > 0.0 if positive else w >= 0.0) and w < np.inf for w in weights.values())
    require(ok, InvalidWeightsError, lambda _: f"{name}: weights must be finite and {bound}, got "
            + ", ".join(f"{key} = {w}" for key, w in weights.items()))


def hermitize(mats: np.ndarray) -> np.ndarray:
    """Hermitian gate: entries must be finite and the asymmetry within
    HERMITIAN_ASYMMETRY_RTOL of the largest entry.  Returns the Hermitian
    parts."""
    require(np.isfinite(mats).all(axis=(-2, -1)), MatrixFormatError, lambda i: "matrix contains non-finite entries")
    adj = adjoint(mats)
    limit = HERMITIAN_ASYMMETRY_RTOL * np.abs(mats).max(axis=(-2, -1))
    asym = np.abs(mats - adj).max(axis=(-2, -1))
    require(asym <= limit, MatrixFormatError,
            lambda i: f"matrix is not Hermitian: asymmetry {asym[i]:.3e} exceeds "
                      f"{HERMITIAN_ASYMMETRY_RTOL:g} * max|entry| = {limit[i]:.3e}")
    return (mats + adj) / 2


def _decomposition_norms(vals: np.ndarray, vecs: np.ndarray, reference: np.ndarray | None):
    """||U*U - I|| of each matrix of a stack and, given the decomposed
    matrices, the reconstruction residual with its limit (else None)."""
    Uh = adjoint(vecs)
    ortho = np.linalg.norm(Uh @ vecs - np.eye(vals.shape[-1]), axis=(-2, -1))
    if reference is None:
        return ortho, None, None
    recon = np.linalg.norm((vecs * vals[..., None, :]) @ Uh - reference, axis=(-2, -1))
    return ortho, recon, RECONSTRUCTION_RTOL * (1.0 + np.linalg.norm(reference, axis=(-2, -1)))


def _check_decomposition(vals: np.ndarray, vecs: np.ndarray, reference: np.ndarray | None) -> None:
    """Unitarity of fresh eigenvectors and, given the decomposed matrices,
    the reconstruction residual.  A stack of more than CHECK_SLICE_BYTES
    of eigenvectors is checked in slices of that size, so the (k, n, n)
    temporaries stay that small however long the stack is."""
    n = vals.shape[-1]
    step = max(1, CHECK_SLICE_BYTES // (vecs.itemsize * n * n))
    if vals[..., 0].size <= step:
        ortho, recon, limit = _decomposition_norms(vals, vecs, reference)
    else:
        lam, U = vals.reshape(-1, n), vecs.reshape(-1, n, n)
        ref = None if reference is None else reference.reshape(-1, n, n)
        parts = [_decomposition_norms(lam[i:i + step], U[i:i + step], None if ref is None else ref[i:i + step])
                 for i in range(0, len(U), step)]
        ortho, recon, limit = (None if part[0] is None else np.concatenate(part).reshape(vals.shape[:-1])
                               for part in zip(*parts))
    require(ortho <= UNITARITY_RTOL * n, NumericalFailure,
            lambda i: f"eigenvector matrix is not unitary: ||U*U - I|| = {ortho[i]:.3e}")
    if reference is not None:
        require(recon <= limit, NumericalFailure,
                lambda i: f"eigendecomposition residual {recon[i]:.3e} exceeds {limit[i]:.3e}")


def _check_eigen_data(vals: np.ndarray, vecs: np.ndarray) -> None:
    """Matching shapes and decreasing eigenvalues of given eigen-data."""
    if vecs.shape != vals.shape + vals.shape[-1:]:
        raise MatrixFormatError("eigenvector matrix shape does not match eigenvalue count")
    # NaN is not out of order: a finite or positive-definite check rejects it
    require(~(vals[..., :-1] < vals[..., 1:]).any(axis=-1), MatrixFormatError,
            lambda i: "eigenvalues must be sorted in decreasing order")


def gate_eig(vals: np.ndarray, vecs: np.ndarray, pd=True) -> None:
    """The checks of `PDMatrix._from_eig` over a (..., n) stack of drawn
    eigenvalues and the (..., n, n) stack of their eigenvectors: decreasing
    order, unitarity (finite eigenvectors included) and, where `pd` says
    so, the positive-definite ratio, or else finite eigenvalues.  Each
    slice raises what `_from_eig` raises for it.  U diag(lambda) U* is
    Hermitian by construction, so the assembled matrices are not gated
    again."""
    _check_eigen_data(vals, vecs)
    _check_decomposition(vals, vecs, None)
    # the positive-definite check rejects a non-finite eigenvalue itself
    require(np.isfinite(vals).all(axis=-1) | np.asarray(pd), MatrixFormatError,
            lambda i: "eigenvalues must be finite")
    check_pd(vals, pd)


def check_pd(vals: np.ndarray, where=True) -> None:
    """Positive definiteness of decreasing eigenvalues, where `where` (a
    bool, or booleans over the stack) asks for it: finite, and the
    smallest clears PD_EIGENVALUE_RTOL times the largest."""
    lam_min, lam_max = vals[..., -1], vals[..., 0]
    ok = np.isfinite(vals).all(axis=-1) & (lam_min > PD_EIGENVALUE_RTOL * lam_max) & (lam_min > 0.0)
    require(ok | np.logical_not(where), NotPositiveDefiniteError,
            lambda i: f"matrix is not positive definite: lambda_min = {lam_min[i]:.3e}, "
                      f"lambda_max = {lam_max[i]:.3e}")


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigh with eigenvalues in decreasing order."""
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def gate_stack(mats, pd=True) -> tuple[np.ndarray, np.ndarray]:
    """The checks of HermitianMatrix, eig_hermitian and PDMatrix over a
    (..., n, n) stack, with one batched eigh.

    `pd` (a bool, or booleans over the stack) selects the matrices that
    must be positive definite.  Returns the decreasing eigenvalues and
    the matching eigenvectors; each matrix raises exactly what its scalar
    constructor would.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2] or mats.shape[-1] == 0:
        raise MatrixFormatError(f"expected a stack of nonempty square matrices, got shape {mats.shape}")
    herm = hermitize(mats)
    vals, vecs = _eigh(herm)
    _check_decomposition(vals, vecs, herm)
    check_pd(vals, pd)
    return SpectralDecomposition(vals, vecs)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues sorted in decreasing order with matching unitary
    columns, over one matrix or a (..., n) / (..., n, n) stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def at(self, index) -> "SpectralDecomposition":
        """The decomposition of the matrices at `index` of the stack."""
        return SpectralDecomposition(self.eigenvalues[index], self.eigenvectors[index])


def derived(dec: SpectralDecomposition, f: Callable, reverse: bool = False) -> SpectralDecomposition:
    """The decomposition of f(P) = U f(Lambda) U* from the gated one of P
    (or of a stack): the eigenvectors, which already passed the unitarity
    check, are reused, and only the new eigenvalues f(Lambda) are
    checked, by `check_pd`.  A decreasing f gives `reverse`, which
    restores decreasing order."""
    vals, vecs = f(dec[0]), dec[1]
    if reverse:
        vals, vecs = vals[..., ::-1].copy(), vecs[..., ::-1].copy()
    check_pd(vals)
    return SpectralDecomposition(vals, vecs)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


class HermitianMatrix:
    """Immutable dense complex Hermitian matrix.

    The eigendecomposition is computed lazily and cached; since the value
    never changes, the cache is safe to share between threads.
    """

    __slots__ = ("mat", "_eig")

    def __init__(self, entries):
        mat = hermitize(_as_complex_square(entries))
        _read_only(mat)
        self.mat = mat
        self._eig = None

    @classmethod
    def _gated(cls, mat: np.ndarray, eigenvalues_desc: np.ndarray, eigenvectors: np.ndarray):
        """Wrap one matrix of a stack that passed `gate_stack` or
        `gate_eig` (as positive definite, for a PDMatrix), with its
        decomposition from that call; the gate would only re-check it."""
        _read_only(mat, eigenvalues_desc, eigenvectors)
        obj = cls.__new__(cls)
        obj.mat = mat
        obj._eig = SpectralDecomposition(eigenvalues_desc, eigenvectors)
        return obj

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eig(self) -> SpectralDecomposition:
        if self._eig is None:
            self._eig = eig_hermitian(self)
        return self._eig

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.mat))

    def __add__(self, other):
        if isinstance(other, HermitianMatrix):
            return HermitianMatrix(self.mat + other.mat)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianMatrix):
            return HermitianMatrix(self.mat - other.mat)
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return HermitianMatrix(scalar * self.mat)
        return NotImplemented

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


class PDMatrix(HermitianMatrix):
    """Positive definite matrix: a HermitianMatrix whose eigenvalues,
    gated at construction, certify strict positivity.  Sums, differences
    and multiples are HermitianMatrix values."""

    __slots__ = ()

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self.mat, self._eig = entries.mat, entries.eig()
        else:
            super().__init__(entries)
        check_pd(self.eig().eigenvalues)

    @property
    def min_eigenvalue_witness(self) -> float:
        """The smallest gated eigenvalue."""
        return float(self._eig.eigenvalues[-1])

    @classmethod
    def _from_eig(cls, eigenvalues_desc: np.ndarray, eigenvectors: np.ndarray) -> "PDMatrix":
        """Build from fresh eigenvectors (a random sample, say), skipping
        the eigendecomposition but not its checks: `gate_eig` on one
        matrix."""
        vals = np.asarray(eigenvalues_desc, dtype=np.float64)
        vecs = np.asarray(eigenvectors, dtype=np.complex128)
        gate_eig(vals, vecs)
        return cls._gated(assemble(vals, vecs), vals, vecs)

    def _derived(self, f: Callable, reverse: bool = False) -> "PDMatrix":
        """f(P), through `derived`."""
        dec = derived(self.eig(), f, reverse)
        return PDMatrix._gated(assemble(*dec), *dec)

    def __repr__(self):
        return f"PDMatrix(dim={self.dim}, lambda_min={self.min_eigenvalue_witness:.3e})"


def eig_hermitian(H: HermitianMatrix) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues in decreasing order, by LAPACK
    eigh, checked for unitarity and reconstruction."""
    mat = (H if isinstance(H, HermitianMatrix) else HermitianMatrix(H)).mat
    vals, vecs = _eigh(mat)
    _check_decomposition(vals, vecs, mat)
    _read_only(vals, vecs)
    return SpectralDecomposition(vals, vecs)


def principal_sqrt(P: PDMatrix) -> PDMatrix:
    """Unique positive definite square root."""
    return P._derived(np.sqrt)


def inverse(P: PDMatrix) -> PDMatrix:
    """Inverse of a positive definite matrix."""
    return P._derived(np.reciprocal, reverse=True)


def complex_gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A dim x dim matrix of independent standard complex Gaussians: the
    real parts are drawn first, then the imaginary parts."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def haar_unitaries(gaussians: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a (..., n, n) stack of complex
    Gaussian matrices: one stacked QR with the standard phase fix, Q times
    the phases of diag(R) (Mezzadri 2007)."""
    Q, R = np.linalg.qr(gaussians)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary drawn from rng."""
    return haar_unitaries(complex_gaussian(dim, rng))


def random_pd_sample(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The rng draws of `random_pd_from_rng`, in its order: the decreasing
    eigenvalues (no draw when cond_max is 1), then the complex Gaussian
    whose Haar unitary holds the eigenvectors."""
    if dim < 1:
        raise MatrixFormatError("dimension must be at least 1")
    if cond_max < 1.0:
        raise InvalidWeightsError(f"cond_max must be >= 1, got {cond_max}")
    vals = 10.0 ** rng.uniform(-np.log10(cond_max), 0.0, size=dim) if cond_max > 1.0 else np.ones(dim)
    vals = vals / vals.max()
    return np.sort(vals)[::-1].copy(), complex_gaussian(dim, rng)


def random_pd_from_rng(dim: int, cond_max: float, rng: np.random.Generator) -> PDMatrix:
    vals, gaussian = random_pd_sample(dim, cond_max, rng)
    return PDMatrix._from_eig(vals, haar_unitaries(gaussian))


def random_pd(dim: int, cond_max: float, seed: int) -> PDMatrix:
    """Deterministic random positive definite matrix.

    Eigenvalues are drawn log-uniform in [1/cond_max, 1] and normalized so
    the largest is exactly 1; eigenvectors come from a Haar unitary.
    The same seed always yields the same matrix.
    """
    return random_pd_from_rng(dim, cond_max, np.random.default_rng(seed))


def random_hermitian(dim: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
    """Deterministic random Hermitian matrix (Gaussian entries, symmetrized)."""
    Z = complex_gaussian(dim, np.random.default_rng(seed))
    return HermitianMatrix(scale * hermitian_part(Z))
