"""Shared JSON matrix format: {"dim": n, "re": [[...]], "im": [[...]]}.

An omitted "im" means the matrix is real.  Used by the CLI for every
matrix that crosses a process boundary.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MatrixFormatError
from .linalg import HermitianMatrix, PDMatrix


def matrix_to_dict(M) -> dict:
    raw = M.mat if isinstance(M, (HermitianMatrix, PDMatrix)) else np.asarray(M, dtype=np.complex128)
    out = {"dim": int(raw.shape[0]), "re": raw.real.tolist()}
    if np.abs(raw.imag).max() > 0.0:
        out["im"] = raw.imag.tolist()
    return out


def matrix_from_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise MatrixFormatError('matrix JSON must contain "dim" and "re"')
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=np.float64)
        im = np.asarray(data.get("im", np.zeros((dim, dim))), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise MatrixFormatError(
            f'matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}'
        )
    return re + 1j * im


def hermitian_from_dict(data) -> HermitianMatrix:
    return HermitianMatrix(matrix_from_dict(data))


def pd_from_dict(data) -> PDMatrix:
    return PDMatrix(hermitian_from_dict(data))


def load_pd(path) -> PDMatrix:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
    return pd_from_dict(data)


def dump_matrix(M, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(M), fh)
        fh.write("\n")
