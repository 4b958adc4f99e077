"""Tangent-space moments, effective rank, Gaussian KL and related diagnostics.

The covariance of a batch uses the 1/N normalization (not 1/(N-1)).  The KL
term is the additive form tr(S) - logdet(S) - d + ||mu||^2 against a unit
Gaussian; a jitter of 1e-6 * I is folded into S before the trace/logdet so
the term stays defined in the collapse regime this toolkit must measure.
Effective rank of a rectangular matrix uses its singular values (LAPACK
SVD); effective rank of a covariance uses its eigenvalues (LAPACK
symmetric eigensolver).  The two spectra differ by squaring and a 1/N
factor, so both are exposed and labeled distinctly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import geometry as geom
from . import tensor as T
from .linalg import NotSPDError, cholesky, jacobi_eigh, jacobi_svd_values
from .tensor import Tensor

__all__ = [
    "DEFAULT_JITTER",
    "CovarianceSummary",
    "SingularSpectrum",
    "BoundCheck",
    "tangent_moments",
    "tangent_moments_tensors",
    "effective_rank",
    "covariance_effective_rank",
    "gaussian_kl",
    "gaussian_kl_tensors",
    "erank_bound_check",
    "tree_distortion",
]

DEFAULT_JITTER = 1e-6


@dataclass(frozen=True, eq=False)
class CovarianceSummary:
    """Tangent-space mean and covariance of an embedding batch."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        d = mu.shape[0]
        if mu.ndim != 1 or sigma.shape != (d, d):
            raise ValueError(f"inconsistent moment shapes: mu {mu.shape}, sigma {sigma.shape}")
        if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-10:
            raise ValueError("covariance is not symmetric within 1e-10")
        scale = max(float(np.trace(sigma)) / d, 1.0)
        try:
            cholesky(sigma + 1e-10 * scale * np.eye(d))
        except NotSPDError as e:
            raise ValueError("covariance is not positive semidefinite") from e
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Nonincreasing nonnegative singular values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty vector")
        if np.any(v < 0.0) or np.any(np.diff(v) > 0.0):
            raise ValueError("spectrum must be nonnegative and sorted descending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


# ------------------------------------------------------------------- moments

def tangent_moments_tensors(z: Tensor, c: float) -> tuple[Tensor, Tensor]:
    """Mean and covariance of log-mapped rows, on the tape.

    mu = mean_i log0(z_i); sigma = (1/N) sum_i (y_i - mu)(y_i - mu)^T.
    Differentiable w.r.t. the ball points through log0.
    """
    n = z.data.shape[0]
    if n < 2:
        raise ValueError(f"moments need a batch of at least 2 points, got {n}")
    if np.any(float(c) * np.sum(z.data * z.data, axis=1) >= 1.0):
        raise ValueError("moments: some rows lie outside the ball")
    y = geom.log0_rows(z, c)
    mu = T.batch_mean(y)
    centered = T.sub_rowvec(y, mu)
    sigma = T.smul(T.matmul(T.transpose(centered), centered), 1.0 / n)
    return mu, sigma


def _batch(points, c) -> tuple[np.ndarray, float]:
    """An (n, d) array from a Tensor, an array or a sequence of points, and c as a float."""
    if isinstance(points, Tensor):
        mat = points.data
    elif isinstance(points, np.ndarray):
        mat = points
    else:
        mat = geom.points_to_matrix(points)
    return mat, c.c if isinstance(c, geom.Curvature) else float(c)


def tangent_moments(z, c) -> CovarianceSummary:
    """Moments of a batch given as a Tensor, an (n, d) array or a sequence of points."""
    mat, cval = _batch(z, c)
    mu, sigma = tangent_moments_tensors(Tensor(mat), cval)
    sym = (sigma.data + sigma.data.T) / 2.0
    return CovarianceSummary(mu.data, sym)


# ------------------------------------------------------------ effective rank

def _entropy_erank(values: np.ndarray) -> float:
    total = np.sum(np.abs(values))
    if total == 0.0:
        raise ValueError("effective rank of an all-zero spectrum is undefined")
    p = np.abs(values) / total
    p = p[p > 0.0]
    return float(np.exp(-np.sum(p * np.log(p))))


def effective_rank(m: Union[np.ndarray, SingularSpectrum]) -> float:
    """exp of the Shannon entropy of the normalized singular values.

    Lies in [1, Q] with Q = min(m, n); invariant to positive scaling.
    """
    if isinstance(m, SingularSpectrum):
        return _entropy_erank(m.values)
    m = np.asarray(m, dtype=float)
    if not np.any(m):
        raise ValueError("effective rank of an all-zero matrix is undefined")
    return _entropy_erank(jacobi_svd_values(m))


def covariance_effective_rank(sigma: np.ndarray) -> float:
    """Effective rank of a covariance from its eigenvalue spectrum."""
    w, _ = jacobi_eigh(np.asarray(sigma, dtype=float))
    w = np.clip(w, 0.0, None)
    return _entropy_erank(w)


# ------------------------------------------------------------------ gaussian

def gaussian_kl_tensors(
    mu: Tensor,
    sigma: Tensor,
    jitter: float = DEFAULT_JITTER,
    target_mean: float = 0.0,
    target_diag: Optional[np.ndarray] = None,
) -> Tensor:
    """KL-derived match term against N(target_mean * 1, diag(target_diag)).

    With the defaults this is exactly tr(S) - logdet(S) - d + ||mu||^2 with
    S = sigma + jitter * I.  The generalized reference (nonzero mean vector
    m * 1, diagonal covariance) expands to
    tr(D^-1 S) - logdet(S) + logdet(D) - d + (mu - m1)^T D^-1 (mu - m1).
    """
    d = mu.data.shape[0]
    s = T.add_diag(sigma, jitter)
    if target_diag is None and target_mean == 0.0:
        out = T.trace(s) + T.neg(T.logdet(s)) + T.dot(mu, mu)
        return T.sadd(out, -float(d))
    diag = np.ones(d) if target_diag is None else np.asarray(target_diag, dtype=float)
    if diag.shape != (d,) or np.any(diag <= 0.0):
        raise ValueError("target covariance diagonal must be positive with matching dim")
    inv_diag = 1.0 / diag
    scaled = T.matmul(Tensor(np.diag(inv_diag)), s)
    delta = T.sadd(mu, -float(target_mean))
    quad = T.dot(delta, T.mul(Tensor(inv_diag), delta))
    out = T.trace(scaled) + T.neg(T.logdet(s)) + quad
    return T.sadd(out, float(np.sum(np.log(diag))) - float(d))


def gaussian_kl(s: CovarianceSummary, jitter: float = DEFAULT_JITTER) -> float:
    """Nonnegative divergence of summarized moments from the unit Gaussian."""
    return float(gaussian_kl_tensors(Tensor(s.mu), Tensor(s.sigma), jitter))


def erank_bound_check(s: CovarianceSummary, jitter: float = DEFAULT_JITTER) -> BoundCheck:
    """Check -D(sigma, mu) <= log Erank(sigma) + const with const = -log d.

    The constant is calibrated once from the equality member sigma = I,
    mu = 0 (both sides zero).  Both sides are reported; `holds` compares
    them with a 1e-9 slack for rounding.
    """
    lhs = -gaussian_kl(s, jitter)
    erank = covariance_effective_rank(np.asarray(s.sigma) + jitter * np.eye(s.dim))
    rhs = float(np.log(erank) - np.log(s.dim))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9))


# ---------------------------------------------------------------- distortion

def tree_distortion(tree_dists: np.ndarray, points, c) -> tuple[float, float]:
    """Max and mean |d_T(i,j) - d_ball(i,j)| over all unordered pairs.

    Reports distortion only; no pass/fail claim is attached.
    """
    td = np.asarray(tree_dists, dtype=float)
    if td.ndim != 2 or td.shape[0] != td.shape[1]:
        raise ValueError(f"tree distance matrix must be square, got {td.shape}")
    if np.max(np.abs(td - td.T), initial=0.0) > 0.0:
        raise ValueError("tree distance matrix must be symmetric")
    if np.any(np.diag(td) != 0.0):
        raise ValueError("tree distance matrix must have a zero diagonal")
    mat, cval = _batch(points, c)
    n = mat.shape[0]
    if n != td.shape[0]:
        raise ValueError(f"point count {n} does not match distance matrix {td.shape[0]}")
    iu, ju = np.triu_indices(n, k=1)
    dd = geom.distance_rows(Tensor(mat[iu]), Tensor(mat[ju]), cval).data
    err = np.abs(td[iu, ju] - dd)
    return float(np.max(err, initial=0.0)), float(np.mean(err) if err.size else 0.0)
