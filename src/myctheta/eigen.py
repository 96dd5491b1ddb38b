"""Dense symmetric eigendecomposition through LAPACK (`numpy.linalg`).

`eigh(a)` returns eigenvalues in ascending order and an orthonormal matrix of
column eigenvectors, `eigvalsh(a)` the eigenvalues alone.  Only the lower
triangle of `a` is read, so callers pass exactly symmetric matrices.  A stack
of shape (..., k, k) is decomposed matrix by matrix in one call.  Non-square
input raises `numpy.linalg.LinAlgError`, a subclass of `ValueError`.
"""

from __future__ import annotations

import numpy as np


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a real symmetric matrix: a = v @ diag(w) @ v.T."""
    return np.linalg.eigh(np.asarray(a, dtype=float))


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending."""
    return np.linalg.eigvalsh(np.asarray(a, dtype=float))
