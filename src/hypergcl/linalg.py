"""Dense linear-algebra kernels for small matrices.

Cholesky factorization and triangular solves are written directly against
numpy arrays; the training loss differentiates through them, so their
exact rounding is part of every training trajectory.  Singular values and
the symmetric eigendecomposition only feed diagnostics and call LAPACK
through ``np.linalg``.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotSPDError",
    "cholesky",
    "solve_lower",
    "solve_upper",
    "spd_inverse",
    "jacobi_svd_values",
    "jacobi_eigh",
]


class NotSPDError(ValueError):
    """Raised when a Cholesky pivot fails: matrix is not positive definite."""


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a.

    Raises NotSPDError if a pivot is non-positive.  The caller owns any
    jitter policy; no regularization happens here.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        lj = L[j, :j]
        s = float(a[j, j] - lj @ lj)
        if not 0.0 < s < math.inf:  # also catches NaN
            raise NotSPDError(f"Cholesky pivot {j} = {s:.6e}; matrix is not SPD")
        d = math.sqrt(s)
        L[j, j] = d
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ lj) / d
    return L


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b by forward substitution (b may be a vector or matrix)."""
    L = np.asarray(L, dtype=float)
    x = np.array(b, dtype=float)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    for i in range(L.shape[0]):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x[:, 0] if vec else x


def solve_upper(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U x = b by back substitution."""
    U = np.asarray(U, dtype=float)
    x = np.array(b, dtype=float)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    n = U.shape[0]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - U[i, i + 1 :] @ x[i + 1 :]) / U[i, i]
    return x[:, 0] if vec else x


def spd_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the SPD matrix L @ L.T, given its lower Cholesky factor L.

    Takes the factor, not the matrix, so a caller that already factored
    (``tensor.logdet``) does not factor again.  Output symmetrized.
    """
    eye = np.eye(L.shape[0])
    inv = solve_upper(L.T, solve_lower(L, eye))
    return (inv + inv.T) / 2.0


def jacobi_svd_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a dense matrix, descending (LAPACK ``gesdd``).

    Computed by ``np.linalg.svd(a, compute_uv=False)``; the Jacobi name
    is kept for existing callers.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return np.linalg.svd(a, compute_uv=False)


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Returns (eigenvalues descending, eigenvectors as columns).  The input
    is symmetrized first.  Computed by ``np.linalg.eigh``; the Jacobi name
    is kept for existing callers.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    return w[::-1], V[:, ::-1]
