"""Shared JSON matrix format: {"dim": n, "re": [[...]], "im": [[...]]}.

An omitted "im" means the matrix is real.  Used by the CLI for every
matrix that crosses a process boundary.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MatrixFormatError
from .linalg import HermitianMatrix, require_entry_limit


def matrix_to_dict(M) -> dict:
    raw = M.mat if isinstance(M, HermitianMatrix) else np.asarray(M, dtype=np.complex128)
    out = {"dim": int(raw.shape[0]), "re": raw.real.tolist()}
    if np.abs(raw.imag).max() > 0.0:
        out["im"] = raw.imag.tolist()
    return out


def matrix_from_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise MatrixFormatError('matrix JSON must contain "dim" and "re"')
    dim = data["dim"]
    if type(dim) is not int or dim < 1:  # bool is a subclass of int
        raise MatrixFormatError(f'matrix JSON "dim" must be a positive integer, got {dim!r}')
    try:
        re = np.asarray(data["re"], dtype=np.float64)
        im = np.asarray(data["im"], dtype=np.float64) if "im" in data else np.zeros_like(re)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != re.shape:
        raise MatrixFormatError(
            f'matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}'
        )
    mat = re + 1j * im
    require_entry_limit(mat, MatrixFormatError)
    return mat


def load_matrix(path) -> HermitianMatrix:
    """Read a matrix file: the bare matrix JSON, or the envelope that
    `matmean compute` writes (its "result" field)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict) and "result" in data and "dim" not in data:
        data = data["result"]
    return HermitianMatrix(matrix_from_dict(data))
