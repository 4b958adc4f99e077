"""Tangent-space moments, effective rank, Gaussian KL and related diagnostics.

The covariance of a batch uses the 1/N normalization (not 1/(N-1)).  The KL
term is the additive form tr(S) - logdet(S) - d + ||mu||^2 against a unit
Gaussian; a jitter of `DEFAULT_JITTER` * I (1e-6) is folded into S so the
term stays defined in the collapse regime this toolkit must measure; only
`gaussian_kl_tensors` takes another (0 gives the exact KL).
Effective rank of a rectangular matrix uses its singular values (LAPACK
SVD); effective rank of a covariance uses the eigenvalues of its symmetric
part (`np.linalg.eigvalsh`).  The two spectra differ by squaring and a 1/N
factor, so both are exposed and labeled distinctly.
The value functions `tangent_moments` and `tree_distortion` take the batch
as one (n, d) array, one ball point per row, and c as a float or a
`Curvature`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import geometry as geom
from . import tensor as T
from .linalg import NotSPDError, cholesky, jacobi_svd_values
from .tensor import Tensor

__all__ = [
    "DEFAULT_JITTER",
    "CovarianceSummary",
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
    return mu, T.covariance(y, mu)


def _curvature(c) -> float:
    return c.c if isinstance(c, geom.Curvature) else float(c)


def tangent_moments(z: np.ndarray, c) -> CovarianceSummary:
    """Tangent-space moments of an (n, d) array of ball points at curvature c."""
    mu, sigma = tangent_moments_tensors(Tensor(z), _curvature(c))
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


def effective_rank(m: np.ndarray) -> float:
    """exp of the Shannon entropy of the normalized singular values.

    Lies in [1, Q] with Q = min(m, n); invariant to positive scaling.
    """
    m = np.asarray(m, dtype=float)
    if not np.any(m):
        raise ValueError("effective rank of an all-zero matrix is undefined")
    return _entropy_erank(jacobi_svd_values(m))


def covariance_effective_rank(sigma: np.ndarray) -> float:
    """Effective rank of a covariance from its eigenvalue spectrum."""
    a = np.asarray(sigma, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    w = np.linalg.eigvalsh((a + a.T) / 2.0)[::-1]  # only the symmetric part counts
    return _entropy_erank(np.clip(w, 0.0, None))


# ------------------------------------------------------------------ gaussian

def gaussian_kl_tensors(
    mu: Tensor,
    sigma: Tensor,
    jitter: float = DEFAULT_JITTER,
    target_mean: float = 0.0,
    target_diag: Optional[np.ndarray] = None,
) -> Tensor:
    """KL-derived match term against N(target_mean * 1, diag(target_diag)).

    With S = sigma + jitter * I, it is
    tr(D^-1 S) - logdet(S) + logdet(D) - d + (mu - m1)^T D^-1 (mu - m1),
    which with the defaults is exactly tr(S) - logdet(S) - d + ||mu||^2.
    Three tape nodes: `add_diag`, `logdet` and the match `T.gaussian_match`.
    """
    s = T.add_diag(sigma, jitter)
    return T.gaussian_match(s, T.logdet(s), mu, target_mean, target_diag)


def gaussian_kl(s: CovarianceSummary) -> float:
    """Nonnegative divergence of summarized moments from the unit Gaussian."""
    return float(gaussian_kl_tensors(Tensor(s.mu), Tensor(s.sigma)))


def erank_bound_check(s: CovarianceSummary) -> BoundCheck:
    """Check -D(sigma, mu) <= log Erank(sigma) + const with const = -log d.

    The constant is calibrated once from the equality member sigma = I,
    mu = 0 (both sides zero).  Both sides are reported; `holds` compares
    them with a 1e-9 slack for rounding.
    """
    lhs = -gaussian_kl(s)
    erank = covariance_effective_rank(np.asarray(s.sigma) + DEFAULT_JITTER * np.eye(s.dim))
    rhs = float(np.log(erank) - np.log(s.dim))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9))


# ---------------------------------------------------------------- distortion

def tree_distortion(tree_dists: np.ndarray, points: np.ndarray, c) -> tuple[float, float]:
    """Max and mean |d_T(i,j) - d_ball(i,j)| over all unordered pairs of rows of `points`.

    Ball distances come from the Gram-matrix op `T.ball_pair_distances`,
    finite up to the boundary; rows on or outside it raise ValueError.
    Reports distortion only; no pass/fail claim is attached.
    """
    td = np.asarray(tree_dists, dtype=float)
    if td.ndim != 2 or td.shape[0] != td.shape[1]:
        raise ValueError(f"tree distance matrix must be square, got {td.shape}")
    if np.max(np.abs(td - td.T), initial=0.0) > 0.0:
        raise ValueError("tree distance matrix must be symmetric")
    if np.any(np.diag(td) != 0.0):
        raise ValueError("tree distance matrix must have a zero diagonal")
    z = Tensor(points)
    n = z.data.shape[0]
    if n != td.shape[0]:
        raise ValueError(f"point count {n} does not match distance matrix {td.shape[0]}")
    iu, ju = np.triu_indices(n, k=1)
    dd = T.ball_pair_distances(z, _curvature(c)).data.reshape(n, n)[iu, ju]
    err = np.abs(td[iu, ju] - dd)
    return float(np.max(err, initial=0.0)), float(np.mean(err) if err.size else 0.0)
