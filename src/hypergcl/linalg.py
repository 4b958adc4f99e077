"""The linear algebra a training trajectory depends on, written out.

`tensor.logdet` differentiates through `cholesky` and `spd_inverse`, so
their exact rounding is part of every trajectory; hand-written, it does not
change with the LAPACK build.  `cholesky` is also the one SPD test for
density specs and covariance summaries.  `jacobi_svd_values` is kept as the
perfbench span `linalg.jacobi_svd_values` (beside `linalg.cholesky` and
`linalg.spd_inverse`).  Other callers use ``np.linalg`` directly.

At the size training uses (d = 16) a loop iteration costs more in numpy's
per-call overhead than in arithmetic, so each row or column update runs in
place: one ``.dot`` (the method skips `np.dot`'s dispatch) subtracted into
the output row or column, then one in-place divide by a pivot read once as
a Python float, with no temporary built per row.  The rounding is that of
the plain ``(b - A @ x) / d`` (the same BLAS dot and gemv calls), so the
outputs keep every bit; tests/test_linalg.py pins that against the plain
form.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["NotSPDError", "cholesky", "spd_inverse", "jacobi_svd_values"]


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
    diag = a.diagonal().tolist()
    for j in range(n):
        lj = L[j, :j]
        s = diag[j] - float(lj.dot(lj))
        if not 0.0 < s < math.inf:  # also catches NaN
            raise NotSPDError(f"Cholesky pivot {j} = {s:.6e}; matrix is not SPD")
        d = math.sqrt(s)
        L[j, j] = d
        if j + 1 < n:
            col = L[j + 1 :, j]
            np.subtract(a[j + 1 :, j], L[j + 1 :, :j].dot(lj), out=col)
            col /= d
    return L


def spd_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the SPD matrix L @ L.T, given its lower Cholesky factor L.

    Takes the factor, not the matrix, so a caller that already factored
    (``tensor.logdet``) does not factor again.  Forward then back
    substitution, in place; output symmetrized.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    piv = L.diagonal().tolist()
    x = np.eye(n)
    for i in range(n):
        xi = x[i]
        xi -= L[i, :i].dot(x[:i])
        xi /= piv[i]
    for i in range(n - 1, -1, -1):
        xi = x[i]
        xi -= L[i + 1 :, i].dot(x[i + 1 :])
        xi /= piv[i]
    return (x + x.T) / 2.0


def jacobi_svd_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a dense matrix, descending (LAPACK ``gesdd``).

    Computed by ``np.linalg.svd``; the name stays only because perfbench
    wraps ``spectral.jacobi_svd_values`` as its `linalg.jacobi_svd_values`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return np.linalg.svd(a, compute_uv=False)
