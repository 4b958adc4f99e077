"""Contrastive loss terms on the ball and their combined objective.

All losses take (n, d) row batches (tensors or arrays, one embedding per
row) and return scalar tensors, differentiable end to end through the taped
ops.  The `variant` argument of `total_loss_parts` selects which second term
accompanies the alignment term, covering the whole ablation family:

    euclidean                   L2-normalized alignment + pairwise uniformity
    tangent-euclidean           the same pair of terms on log0-mapped rows
    hyperbolic-align-only       mean ball distance between paired rows
    hyperbolic-naive-uniformity ball alignment + log E exp(-t * distance)
    hypergcl                    ball alignment + tangent-Gaussian isotropy

Both uniformities take every pair from one all-pairs op on the Gram matrix
(`T.ball_pair_distances`, `T.pair_sqdist`), drop the diagonal with one
cached `take_rows` index in i-major pair order, and share one
log-mean-exp tail, the single taped op `T.log_mean_exp`, which keeps only
exp(-t x) for its gradient.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry as geom
from . import spectral
from . import tensor as T
from .tensor import Tensor

__all__ = [
    "VARIANTS",
    "LossWeights",
    "alignment_hyperbolic",
    "isotropy_tangent",
    "uniformity_hyperbolic_naive",
    "euclidean_align_uniform",
    "total_loss_parts",
]

VARIANTS = (
    "euclidean",
    "tangent-euclidean",
    "hyperbolic-align-only",
    "hyperbolic-naive-uniformity",
    "hypergcl",
)


@dataclass(frozen=True)
class LossWeights:
    """Weight of the second loss term and the uniformity temperature."""

    lambda_u: float = 1.0
    t: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.lambda_u) and self.lambda_u >= 0.0):
            raise ValueError(f"lambda_u must be nonnegative, got {self.lambda_u}")
        if not (np.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"temperature t must be positive, got {self.t}")


def _pair(z, zp, opname: str) -> tuple[Tensor, Tensor]:
    z = z if isinstance(z, Tensor) else Tensor(z)
    zp = zp if isinstance(zp, Tensor) else Tensor(zp)
    if z.data.shape != zp.data.shape:
        raise ValueError(f"{opname}: batch shapes differ, {z.data.shape} vs {zp.data.shape}")
    return z, zp


def alignment_hyperbolic(z, zp, c: float) -> Tensor:
    """Mean ball distance between index-paired rows of the two views."""
    z, zp = _pair(z, zp, "alignment_hyperbolic")
    return T.mean_all(geom.distance_rows(z, zp, float(c)))


def isotropy_tangent(
    z,
    zp,
    c: float,
    *,
    target_mean: float = 0.0,
    target_diag: Optional[np.ndarray] = None,
) -> Tensor:
    """Sum of the two per-view Gaussian match terms on the tangent plane.

    Exactly gaussian_kl(moments(z)) + gaussian_kl(moments(zp)); the default
    target expands to tr(S + S') - logdet(S S') - 2d + ||mu||^2 + ||mu'||^2,
    with S the covariance plus `spectral.DEFAULT_JITTER` * I.
    `target_mean` / `target_diag` swap the unit reference Gaussian for
    N(m * 1, diag(v)) in both terms (used by the perturbation sweeps).
    """
    z, zp = _pair(z, zp, "isotropy_tangent")
    total = None
    for view in (z, zp):
        mu, sigma = spectral.tangent_moments_tensors(view, float(c))
        kl = spectral.gaussian_kl_tensors(mu, sigma, spectral.DEFAULT_JITTER, target_mean, target_diag)
        total = kl if total is None else T.add(total, kl)
    return total


@functools.lru_cache(maxsize=8)
def _ordered_pair_indices(n: int) -> np.ndarray:
    """Flat index i * n + j of every ordered pair i != j, i-major.

    It selects the off-diagonal rows of the (n*n, 1) all-pairs columns of
    `T.ball_pair_distances` and `T.pair_sqdist`.  Cached per batch size,
    since every step asks for the same array; it is read-only because every
    caller shares it.
    """
    flat = np.arange(n * n).reshape(n, n)[~np.eye(n, dtype=bool)]
    flat.flags.writeable = False
    return flat


def _log_mean_exp_pairs(pairs: Tensor, n: int, t: float) -> Tensor:
    """log E[exp(-t x)] over the ordered pairs i != j of an (n*n, 1) all-pairs column."""
    return T.log_mean_exp(T.take_rows(pairs, _ordered_pair_indices(n)), -float(t))


def uniformity_hyperbolic_naive(z, t: float, c: float) -> Tensor:
    """log E[exp(-t D_c)] over all ordered within-batch pairs i != j.

    Decreases as pairwise ball distances grow; its minimizer pushes points
    toward the boundary, which is exactly the failure mode the isotropy term
    replaces (kept for the ablation).  Every pair distance comes from one
    Gram matrix (`T.ball_pair_distances`); equal rows are at distance
    exactly 0.
    """
    z = z if isinstance(z, Tensor) else Tensor(z)
    n = z.data.shape[0]
    if n < 2:
        raise ValueError(f"uniformity needs at least 2 rows, got {n}")
    if t <= 0.0:
        raise ValueError("temperature t must be positive")
    return _log_mean_exp_pairs(T.ball_pair_distances(z, float(c)), n, t)


def _normalize_rows(z: Tensor) -> Tensor:
    """Rows of z scaled to unit norm; a zero row stays zero and passes zero gradient."""
    return geom._scale_rows(z, 1.0, lambda n, _: T.vrecip(n), 0.0)


def _euclidean_uniformity(x: Tensor, t: float) -> Tensor:
    n = x.data.shape[0]
    if n < 2:
        raise ValueError("uniformity needs at least 2 rows")
    return _log_mean_exp_pairs(T.pair_sqdist(x), n, t)


def euclidean_align_uniform(z, zp, t: float) -> tuple[Tensor, Tensor]:
    """Alignment and uniformity of the L2-normalized rows.

    align = mean ||x_i - x'_i||^2; uniform = per-view log E exp(-t ||.||^2)
    over ordered pairs, averaged across the two views.
    """
    z, zp = _pair(z, zp, "euclidean_align_uniform")
    x = _normalize_rows(z)
    xp = _normalize_rows(zp)
    align = T.mean_all(T.rownorm2(T.sub(x, xp)))
    uniform = T.smul(T.add(_euclidean_uniformity(x, t), _euclidean_uniformity(xp, t)), 0.5)
    return align, uniform


def total_loss_parts(
    z,
    zp,
    weights: LossWeights,
    c: float,
    variant: str,
    *,
    target_mean: float = 0.0,
    target_diag: Optional[np.ndarray] = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, alignment term, second term) for the selected variant.

    total = align + lambda_u * second; the parts are returned unweighted so
    the training trace can log them directly.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    z, zp = _pair(z, zp, "total_loss")
    lam = weights.lambda_u
    if variant == "euclidean":
        align, second = euclidean_align_uniform(z, zp, weights.t)
    elif variant == "tangent-euclidean":
        y = geom.log0_rows(z, float(c))
        yp = geom.log0_rows(zp, float(c))
        align, second = euclidean_align_uniform(y, yp, weights.t)
    elif variant == "hyperbolic-align-only":
        align = alignment_hyperbolic(z, zp, c)
        second = Tensor(0.0)
    elif variant == "hyperbolic-naive-uniformity":
        align = alignment_hyperbolic(z, zp, c)
        second = T.smul(
            T.add(uniformity_hyperbolic_naive(z, weights.t, c), uniformity_hyperbolic_naive(zp, weights.t, c)),
            0.5,
        )
    else:  # hypergcl
        align = alignment_hyperbolic(z, zp, c)
        second = isotropy_tangent(z, zp, c, target_mean=target_mean, target_diag=target_diag)
    total = T.add(align, T.smul(second, lam)) if lam != 0.0 else align
    return total, align, second
