"""Dense complex Hermitian linear algebra on small matrices.

All matrix functions (square root, inverse, powers, positive part) are
computed through one eigendecomposition path, never by iteration, so a
single accuracy model covers everything.  Values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

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
# Rotation budget for the cyclic Jacobi solver, per dim**2.
JACOBI_BUDGET_PER_DIM2 = 100


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
# the gate: each check written once over (..., n, n) stacks; the scalar
# constructors below call it with a single matrix
# ---------------------------------------------------------------------------

def locate(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first offending matrix of a stack, and a note for the
    message; a single matrix gives ((), "")."""
    if bad.ndim == 0:
        return (), ""
    i = tuple(int(k) for k in np.argwhere(bad)[0])
    return i, f" (stack index {i})"


def hermitize(mats: np.ndarray) -> np.ndarray:
    """Hermitian gate: entries must be finite and the asymmetry within
    HERMITIAN_ASYMMETRY_RTOL of the largest entry.  Returns the Hermitian
    parts."""
    bad = ~np.isfinite(mats).all(axis=(-2, -1))
    if bad.any():
        raise MatrixFormatError("matrix contains non-finite entries" + locate(bad)[1])
    adj = adjoint(mats)
    limit = HERMITIAN_ASYMMETRY_RTOL * np.abs(mats).max(axis=(-2, -1))
    asym = np.abs(mats - adj).max(axis=(-2, -1))
    bad = asym > limit
    if bad.any():
        i, where = locate(bad)
        raise MatrixFormatError(
            f"matrix is not Hermitian: asymmetry {asym[i]:.3e} exceeds "
            f"{HERMITIAN_ASYMMETRY_RTOL:g} * max|entry| = {limit[i]:.3e}{where}"
        )
    return (mats + adj) / 2


def _check_decomposition(vals: np.ndarray, vecs: np.ndarray, reference: np.ndarray | None) -> None:
    """Unitarity of fresh eigenvectors and, given the decomposed matrices,
    the reconstruction residual."""
    n = vals.shape[-1]
    ortho = np.linalg.norm(adjoint(vecs) @ vecs - np.eye(n), axis=(-2, -1))
    bad = ~(ortho <= UNITARITY_RTOL * n)  # NaN eigenvectors fail too
    if bad.any():
        i, where = locate(bad)
        raise NumericalFailure(f"eigenvector matrix is not unitary: ||U*U - I|| = {ortho[i]:.3e}{where}")
    if reference is not None:
        recon = np.linalg.norm((vecs * vals[..., None, :]) @ adjoint(vecs) - reference, axis=(-2, -1))
        limit = RECONSTRUCTION_RTOL * (1.0 + np.linalg.norm(reference, axis=(-2, -1)))
        bad = recon > limit
        if bad.any():
            i, where = locate(bad)
            raise NumericalFailure(
                f"eigendecomposition residual {recon[i]:.3e} exceeds {limit[i]:.3e}{where}"
            )


def _check_eigen_data(vals: np.ndarray, vecs: np.ndarray) -> None:
    """Matching shapes and decreasing eigenvalues of given eigen-data."""
    if vecs.shape != vals.shape + vals.shape[-1:]:
        raise MatrixFormatError("eigenvector matrix shape does not match eigenvalue count")
    bad = (vals[..., :-1] < vals[..., 1:]).any(axis=-1)
    if bad.any():
        raise MatrixFormatError("eigenvalues must be sorted in decreasing order" + locate(bad)[1])


def gate_eig(vals: np.ndarray, vecs: np.ndarray, pd=True) -> None:
    """The checks of `PDMatrix._from_eig` over a (..., n) stack of drawn
    eigenvalues and the (..., n, n) stack of their eigenvectors: decreasing
    order, unitarity (finite eigenvectors included) and, where `pd` says
    so, the positive-definite ratio.  Each slice raises what `_from_eig`
    raises for it.  U diag(lambda) U* is Hermitian by construction, so the
    assembled matrices are not gated again."""
    _check_eigen_data(vals, vecs)
    _check_decomposition(vals, vecs, None)
    check_pd(vals, np.asarray(pd, dtype=bool))


def check_pd(vals: np.ndarray, where=True) -> None:
    """Positive definiteness of decreasing eigenvalues: finite, and the
    smallest clears PD_EIGENVALUE_RTOL times the largest."""
    lam_min, lam_max = vals[..., -1], vals[..., 0]
    ok = np.isfinite(vals).all(axis=-1) & (lam_min > PD_EIGENVALUE_RTOL * lam_max) & (lam_min > 0.0)
    bad = ~ok & where
    if bad.any():
        i, note = locate(bad)
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: lambda_min = {lam_min[i]:.3e}, "
            f"lambda_max = {lam_max[i]:.3e}{note}"
        )


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
    check_pd(vals, np.asarray(pd, dtype=bool))
    return vals, vecs


class HermitianMatrix:
    """Immutable dense complex Hermitian matrix.

    The eigendecomposition is computed lazily and cached; since the value
    never changes, the cache is safe to share between threads.
    """

    __slots__ = ("mat", "_eig")

    def __init__(self, entries):
        mat = hermitize(_as_complex_square(entries))
        mat.flags.writeable = False
        self.mat = mat
        self._eig = None

    @classmethod
    def _trusted(cls, mat: np.ndarray, dec: "SpectralDecomposition") -> "HermitianMatrix":
        """Wrap U diag(lambda) U* assembled from an already checked
        decomposition; the gate would only re-check it."""
        obj = cls.__new__(cls)
        mat.flags.writeable = False
        obj.mat = mat
        obj._eig = dec
        return obj

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eig(self) -> "SpectralDecomposition":
        if self._eig is None:
            self._eig = eig_hermitian(self)
        return self._eig

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.mat))

    def __add__(self, other):
        if isinstance(other, (HermitianMatrix, PDMatrix)):
            return HermitianMatrix(self.mat + _raw(other))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, (HermitianMatrix, PDMatrix)):
            return HermitianMatrix(self.mat - _raw(other))
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return HermitianMatrix(scalar * self.mat)
        return NotImplemented

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


def _raw(M) -> np.ndarray:
    return M.mat if isinstance(M, (HermitianMatrix, PDMatrix)) else np.asarray(M, dtype=np.complex128)


class SpectralDecomposition:
    """Eigenvalues sorted in decreasing order with matching unitary columns."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors, reference: np.ndarray | None = None):
        vals = np.asarray(eigenvalues, dtype=np.float64)
        vecs = np.asarray(eigenvectors, dtype=np.complex128)
        _check_eigen_data(vals, vecs)
        _check_decomposition(vals, vecs, reference)
        self._set(vals, vecs)

    def _set(self, vals: np.ndarray, vecs: np.ndarray) -> None:
        vals.flags.writeable = False
        vecs.flags.writeable = False
        self.eigenvalues = vals
        self.eigenvectors = vecs

    @classmethod
    def _trusted(cls, vals: np.ndarray, vecs: np.ndarray) -> "SpectralDecomposition":
        """New eigenvalues on eigenvectors that already passed the
        unitarity check; the caller checked the eigenvalues."""
        obj = cls.__new__(cls)
        obj._set(vals, vecs)
        return obj

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def assemble(self, transformed_eigenvalues) -> np.ndarray:
        """U diag(f(lambda)) U* as a raw Hermitian array."""
        return assemble(np.asarray(transformed_eigenvalues), self.eigenvectors)


class PDMatrix:
    """Positive definite matrix: a HermitianMatrix plus the eigenvalue
    witness that certified strict positivity at construction."""

    __slots__ = ("base", "min_eigenvalue_witness")

    def __init__(self, base):
        if isinstance(base, PDMatrix):
            base = base.base
        if not isinstance(base, HermitianMatrix):
            base = HermitianMatrix(base)
        vals = base.eig().eigenvalues
        check_pd(vals)
        self.base = base
        self.min_eigenvalue_witness = float(vals[-1])

    @classmethod
    def _from_eig(cls, eigenvalues_desc: np.ndarray, eigenvectors: np.ndarray) -> "PDMatrix":
        """Build from fresh eigenvectors (a random sample, say), skipping
        the eigendecomposition but not its checks: `gate_eig` on one
        matrix."""
        vals = np.asarray(eigenvalues_desc, dtype=np.float64)
        vecs = np.asarray(eigenvectors, dtype=np.complex128)
        gate_eig(vals, vecs)
        return cls._gated(assemble(vals, vecs), vals, vecs)

    @classmethod
    def _derived(cls, eigenvalues_desc: np.ndarray, eigenvectors: np.ndarray) -> "PDMatrix":
        """f(P) for a gated P: its eigenvectors already passed the
        unitarity check, so only the new eigenvalues are checked (finite,
        positive definite).  Caller guarantees decreasing order."""
        check_pd(eigenvalues_desc)
        return cls._gated(assemble(eigenvalues_desc, eigenvectors), eigenvalues_desc, eigenvectors)

    @classmethod
    def _gated(cls, mat: np.ndarray, eigenvalues_desc: np.ndarray, eigenvectors: np.ndarray) -> "PDMatrix":
        """Wrap one matrix of a stack that passed `gate_stack` or
        `gate_eig` as positive definite, with its decomposition from that
        call."""
        dec = SpectralDecomposition._trusted(eigenvalues_desc, eigenvectors)
        return cls._wrap(HermitianMatrix._trusted(mat, dec))

    @classmethod
    def _wrap(cls, base: HermitianMatrix) -> "PDMatrix":
        obj = cls.__new__(cls)
        obj.base = base
        obj.min_eigenvalue_witness = float(base._eig.eigenvalues[-1])
        return obj

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def dim(self) -> int:
        return self.base.dim

    def eig(self) -> SpectralDecomposition:
        return self.base.eig()

    def trace(self) -> float:
        return self.base.trace()

    def frobenius(self) -> float:
        return self.base.frobenius()

    def __add__(self, other):
        return self.base + other

    def __sub__(self, other):
        return self.base - other

    def __rmul__(self, scalar):
        return scalar * self.base

    def __repr__(self):
        return f"PDMatrix(dim={self.dim}, lambda_min={self.min_eigenvalue_witness:.3e})"


def eig_hermitian(H: HermitianMatrix, method: str = "lapack") -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues in decreasing order.

    method="lapack" uses numpy's eigh.  method="jacobi" runs the cyclic
    Jacobi sweep solver with a deterministic budget of 100*dim**2
    rotations; it is slower and kept as an independent cross-check.
    """
    mat = H.mat if isinstance(H, (HermitianMatrix, PDMatrix)) else HermitianMatrix(H).mat
    if method == "lapack":
        vals, vecs = _eigh(mat)
        return SpectralDecomposition(vals, vecs, reference=mat)
    if method == "jacobi":
        vals, vecs = _jacobi_eigh(mat)
        order = np.argsort(vals)[::-1]
        return SpectralDecomposition(vals[order], vecs[:, order], reference=mat)
    raise ValueError(f"unknown eigensolver method {method!r}")


def _jacobi_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi for complex Hermitian matrices.

    Each rotation zeroes one off-diagonal pair (p, q) with a unitary
    2x2 rotation; sweeps repeat until the off-diagonal mass is at noise
    level or the rotation budget runs out.
    """
    n = mat.shape[0]
    A = mat.astype(np.complex128).copy()
    V = np.eye(n, dtype=np.complex128)
    if n == 1:
        return A.real.diagonal().copy(), V
    budget = JACOBI_BUDGET_PER_DIM2 * n * n
    scale = max(float(np.linalg.norm(A)), 1.0)
    tol = 1e-14 * scale
    rotations = 0
    while True:
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = A[p, q]
                if abs(g) <= 1e-16 * scale:
                    continue
                if rotations >= budget:
                    raise NumericalFailure(
                        f"cyclic Jacobi did not converge within {budget} rotations"
                    )
                rotations += 1
                # plane rotation U with U[p,p]=U[q,q]=c, U[p,q]=-s*w,
                # U[q,p]=s*conj(w), where w is the phase of A[p,q]
                w = g / abs(g)
                app, aqq = A[p, p].real, A[q, q].real
                tau = (aqq - app) / (2.0 * abs(g))
                if tau == 0.0:
                    t = 1.0
                else:
                    t = (-1.0 if tau > 0 else 1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p = c * A[:, p] + s * np.conj(w) * A[:, q]
                col_q = -s * w * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = col_p, col_q
                row_p = c * A[p, :] + s * w * A[q, :]
                row_q = -s * np.conj(w) * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = row_p, row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                vcol_p = c * V[:, p] + s * np.conj(w) * V[:, q]
                vcol_q = -s * w * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = vcol_p, vcol_q
    return np.real(np.diag(A)).copy(), V


def principal_sqrt(P: PDMatrix) -> PDMatrix:
    """Unique positive definite square root."""
    dec = P.eig()
    return PDMatrix._derived(np.sqrt(dec.eigenvalues), dec.eigenvectors)


def pd_power(P: PDMatrix, t: float) -> PDMatrix:
    """P**t for real t via the eigendecomposition."""
    dec = P.eig()
    vals = dec.eigenvalues ** t
    if t >= 0:
        return PDMatrix._derived(vals, dec.eigenvectors)
    return PDMatrix._derived(vals[::-1].copy(), dec.eigenvectors[:, ::-1].copy())


def inverse(P: PDMatrix) -> PDMatrix:
    """Inverse of a positive definite matrix."""
    dec = P.eig()
    vals = (1.0 / dec.eigenvalues)[::-1].copy()
    vecs = dec.eigenvectors[:, ::-1].copy()
    return PDMatrix._derived(vals, vecs)


def positive_part(H: HermitianMatrix) -> HermitianMatrix:
    """(|H| + H)/2: eigenvalues clamp to max(lambda, 0)."""
    dec = H.eig()
    out = HermitianMatrix(dec.assemble(np.maximum(dec.eigenvalues, 0.0)))
    return out


def congruence(T, C: HermitianMatrix) -> HermitianMatrix:
    """T C T* for an arbitrary square complex matrix T."""
    T = np.asarray(T, dtype=np.complex128)
    C_raw = _raw(C)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] != C_raw.shape[0]:
        raise MatrixFormatError(f"congruence dimension mismatch: T {T.shape}, C {C_raw.shape}")
    return HermitianMatrix(hermitian_part(T @ C_raw @ T.conj().T))


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
