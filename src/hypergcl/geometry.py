"""Poincaré-ball primitives: Möbius addition, the maps at the origin, distance, projection.

One row API does the work: functions of `(n, d)` tensors, one point per
row, built from taped ops, so the encoder and the losses differentiate
straight through them.  The method needs four of them: the ball distance
for alignment (`distance_rows`, through `mobius_add_rows`), log0 for the
tangent moments, the eps-margin projection of every embedding, and exp0,
the push-forward that the density suite checks the sampler against.

The value helpers are the point-level API: `Curvature` (which also checks
every `--curvature` flag), `PoincarePoint` and `distance` run in the
README's example, and `project_to_ball` is the projection for one vector.

Removable singularities (zero rows) are handled by explicit branches
rather than jitter, so gradient checks stay exact away from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "ARTANH_CLAMP",
    "BALL_MARGIN",
    "Curvature",
    "PoincarePoint",
    "distance",
    "project_to_ball",
    "mobius_add_rows",
    "exp0_rows",
    "log0_rows",
    "distance_rows",
    "project_rows",
]

# Intermediate Möbius results can graze the boundary numerically even when
# all inputs are interior; artanh arguments are clamped below 1 before
# evaluation.
ARTANH_CLAMP = 1.0 - 1e-12


@dataclass(frozen=True)
class Curvature:
    """Positive curvature parameter c; the ball radius is 1/sqrt(c)."""

    c: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"curvature must be a positive real, got {self.c}")

    @property
    def radius(self) -> float:
        return 1.0 / np.sqrt(self.c)


@dataclass(frozen=True, eq=False)
class PoincarePoint:
    """A d-vector strictly inside the ball of radius 1/sqrt(c)."""

    coords: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 1:
            raise ValueError(f"point coordinates must be 1-D, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("point coordinates must be finite")
        if self.curvature.c * float(coords @ coords) >= 1.0:
            raise ValueError("point lies on or outside the ball boundary")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


# ------------------------------------------------------------------- row API

def mobius_add_rows(u: Tensor, v: Tensor, c: float) -> Tensor:
    """Row-wise Möbius addition u (+) v in the standard gyrovector form."""
    c = float(c)
    uv = T.rowdot(u, v)
    u2 = T.rownorm2(u)
    v2 = T.rownorm2(v)
    coef_u = T.sadd(T.add(T.smul(uv, 2.0 * c), T.smul(v2, c)), 1.0)
    coef_v = T.sadd(T.smul(u2, -c), 1.0)
    den = T.sadd(T.add(T.smul(uv, 2.0 * c), T.smul(T.mul(u2, v2), c * c)), 1.0)
    num = T.add(T.rowscale(u, coef_u), T.rowscale(v, coef_v))
    return T.rowscale(num, T.vrecip(den))


def _scale_rows(v: Tensor, c: float, factor, at_zero: float) -> Tensor:
    """Rows of v scaled by factor(norm, sqrt(c)), and by the exact limit `at_zero` on zero rows.

    `factor` sees zero norms replaced by one, so it never divides by zero.
    """
    n = T.rownorm(v)
    zero = n.data == 0.0
    n_safe = T.where(~zero, n, Tensor(np.ones_like(n.data)))
    f = T.where(~zero, factor(n_safe, float(np.sqrt(c))), Tensor(np.full_like(n.data, at_zero)))
    return T.rowscale(v, f)


def _artanh_scaled(n: Tensor, sc: float) -> Tensor:
    """artanh(sqrt(c) n), with the argument clamped below the boundary."""
    return T.artanh(T.clip(T.smul(n, sc), 0.0, ARTANH_CLAMP))


def exp0_rows(v: Tensor, c: float) -> Tensor:
    """Exponential map at the origin, rows of tangent vectors -> ball points."""

    def factor(n, sc):
        scaled = T.smul(n, sc)
        return T.vdiv(T.tanh(scaled), scaled)

    return _scale_rows(v, c, factor, 1.0)


def log0_rows(z: Tensor, c: float) -> Tensor:
    """Logarithmic map at the origin, rows of ball points -> tangent vectors."""
    return _scale_rows(z, c, lambda n, sc: T.vdiv(_artanh_scaled(n, sc), T.smul(n, sc)), 1.0)


def distance_rows(p: Tensor, q: Tensor, c: float) -> Tensor:
    """Riemannian distance per row: (2/sqrt(c)) artanh(sqrt(c) ||-p (+) q||)."""
    sc = float(np.sqrt(c))
    m = mobius_add_rows(T.neg(p), q, c)
    return T.smul(_artanh_scaled(T.rownorm(m), sc), 2.0 / sc)


# The eps of the eps-margin ball that embeddings are projected into: row
# norms are capped at (1 - BALL_MARGIN)/sqrt(c).
BALL_MARGIN = 1e-5


def project_rows(z: Tensor, c: float) -> Tensor:
    """Project rows into the eps-margin ball: rescale rows beyond (1 - BALL_MARGIN)/sqrt(c)."""
    return T.cap_rownorms(z, (1.0 - BALL_MARGIN) / np.sqrt(float(c)))


# ----------------------------------------------------------------- value API

def distance(p: PoincarePoint, q: PoincarePoint, c: Curvature) -> float:
    """Ball distance log1p(w + sqrt(w(w + 2)))/sqrt(c), w = 2c||p-q||^2/((1-c||p||^2)(1-c||q||^2)).

    This form does not cancel near the boundary, and equal points are at exactly 0.
    """
    if p.dim != q.dim:
        raise ValueError(f"distance: dimension mismatch {p.dim} vs {q.dim}")
    if p.curvature != c or q.curvature != c:
        raise ValueError("distance: curvature mismatch")
    diff = p.coords - q.coords
    a_p = 1.0 - c.c * float(p.coords @ p.coords)
    a_q = 1.0 - c.c * float(q.coords @ q.coords)
    w = 2.0 * c.c * float(diff @ diff) / (a_p * a_q)
    return float(np.log1p(w + np.sqrt(w * (w + 2.0))) / np.sqrt(c.c))


def project_to_ball(z, c: Curvature) -> PoincarePoint:
    """Rescale an ambient vector onto the eps-margin ball if it falls outside.

    Identity inside the margin; direction-preserving and idempotent.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"project_to_ball expects a vector, got shape {z.shape}")
    out = project_rows(Tensor(z[None, :]), c.c).data[0]
    return PoincarePoint(out, c)
