"""Poincaré-ball primitives: Möbius addition, exp/log maps, distance, projection.

Two layers live here.  The value API works on `PoincarePoint` /
`TangentVector` and returns plain floats and points; it is what the
diagnostics consume.  The row API works on `(n, d)` tensors (one point per
row) and is built from taped ops, so the encoder and the losses
differentiate straight through it.  Both share the same formulas: the value
API delegates to the row API on 1-row batches.

Removable singularities (zero tangent vectors, coincident points) are
handled by explicit branches rather than jitter, so gradient checks stay
exact away from them.
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
    "TangentVector",
    "mobius_add",
    "conformal_factor",
    "exp_map",
    "log_map",
    "distance",
    "project_to_ball",
    "mobius_add_rows",
    "conformal_rows",
    "exp0_rows",
    "log0_rows",
    "expmap_rows",
    "logmap_rows",
    "distance_rows",
    "project_rows",
    "points_to_matrix",
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


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector attached to a base point; magnitude is unconstrained."""

    coords: np.ndarray
    base_point: PoincarePoint

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.base_point.dim,):
            raise ValueError(
                f"tangent dimension {coords.shape} does not match base point dim {self.base_point.dim}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValueError("tangent coordinates must be finite")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


def _check_pair(u: PoincarePoint, v: PoincarePoint, c: Curvature, opname: str):
    if u.dim != v.dim:
        raise ValueError(f"{opname}: dimension mismatch {u.dim} vs {v.dim}")
    if u.curvature != c or v.curvature != c:
        raise ValueError(f"{opname}: curvature mismatch")


def points_to_matrix(points) -> np.ndarray:
    """Stack a sequence of points (all of one curvature) into an (n, d) array."""
    points = list(points)
    if not points:
        raise ValueError("empty point batch")
    c = points[0].curvature
    if any(p.curvature != c for p in points):
        raise ValueError("curvature mismatch inside point batch")
    return np.stack([p.coords for p in points])


# ------------------------------------------------------------------- row API

def mobius_add_rows(u: Tensor, v: Tensor, c: float) -> Tensor:
    """Row-wise Möbius addition u (+) v in the standard gyrovector form."""
    c = float(c)
    uv = T.rowdot(u, v)
    u2 = T.rownorm2(u)
    v2 = T.rownorm2(v)
    coef_u = T.sadd(T.smul(uv, 2.0 * c) + T.smul(v2, c), 1.0)
    coef_v = T.sadd(T.smul(u2, -c), 1.0)
    den = T.sadd(T.smul(uv, 2.0 * c) + T.smul(T.mul(u2, v2), c * c), 1.0)
    num = T.rowscale(u, coef_u) + T.rowscale(v, coef_v)
    return T.rowscale(num, T.vrecip(den))


def conformal_rows(x: Tensor, c: float) -> Tensor:
    """Conformal factor 2 / (1 - c ||x||^2) per row."""
    r2 = T.smul(T.rownorm2(x), -float(c))
    return T.vrecip(T.smul(T.sadd(r2, 1.0), 0.5))


def _scale_rows(v: Tensor, c: float, factor, at_zero: float) -> Tensor:
    """Rows of v scaled by factor(norm, sqrt(c)), and by the exact limit `at_zero` on zero rows.

    `factor` sees zero norms replaced by one, so it never divides by zero.
    """
    n = T.rownorm(v)
    zero = n.data == 0.0
    n_safe = T.where(~zero, n, T.constant(np.ones_like(n.data)))
    f = T.where(~zero, factor(n_safe, float(np.sqrt(c))), T.constant(np.full_like(n.data, at_zero)))
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


def expmap_rows(x: Tensor, v: Tensor, c: float) -> Tensor:
    """Exponential map at arbitrary base points (row-aligned)."""
    lam = conformal_rows(x, c)
    v = _scale_rows(v, c, lambda n, sc: T.vdiv(T.tanh(T.smul(T.mul(lam, n), sc / 2.0)), T.smul(n, sc)), 0.0)
    return mobius_add_rows(x, v, c)


def logmap_rows(x: Tensor, y: Tensor, c: float) -> Tensor:
    """Logarithmic map at arbitrary base points (row-aligned)."""
    lam = conformal_rows(x, c)
    m = mobius_add_rows(T.neg(x), y, c)
    return _scale_rows(m, c, lambda n, sc: T.vdiv(T.smul(_artanh_scaled(n, sc), 2.0 / sc), T.mul(lam, n)), 0.0)


def distance_rows(p: Tensor, q: Tensor, c: float) -> Tensor:
    """Riemannian distance per row: (2/sqrt(c)) artanh(sqrt(c) ||-p (+) q||)."""
    sc = float(np.sqrt(c))
    m = mobius_add_rows(T.neg(p), q, c)
    return T.smul(_artanh_scaled(T.rownorm(m), sc), 2.0 / sc)


# The eps of the eps-margin ball that embeddings are projected into: row
# norms are capped at (1 - BALL_MARGIN)/sqrt(c).
BALL_MARGIN = 1e-5


def project_rows(z: Tensor, c: float, eps: float) -> Tensor:
    """Project rows into the eps-margin ball: rescale rows beyond (1-eps)/sqrt(c)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"projection margin eps must lie in (0, 1), got {eps}")
    return T.cap_rownorms(z, (1.0 - eps) / np.sqrt(float(c)))


# ----------------------------------------------------------------- value API

def _rows(p: PoincarePoint) -> Tensor:
    return Tensor(p.coords[None, :])


def _inside(out: np.ndarray, c: Curvature) -> PoincarePoint:
    """The point at out, pulled back just inside the boundary if rounding put it on or beyond it."""
    nrm2 = c.c * float(out @ out)
    if nrm2 >= 1.0:
        out = out * (ARTANH_CLAMP / np.sqrt(nrm2))
    return PoincarePoint(out, c)


def mobius_add(u: PoincarePoint, v: PoincarePoint, c: Curvature) -> PoincarePoint:
    """Möbius addition of two ball points.

    The result is re-projected just inside the boundary in the (rounding
    only) event that it lands on it.
    """
    _check_pair(u, v, c, "mobius_add")
    return _inside(mobius_add_rows(_rows(u), _rows(v), c.c).data[0], c)


def conformal_factor(x: PoincarePoint, c: Curvature) -> float:
    if x.curvature != c:
        raise ValueError("conformal_factor: curvature mismatch")
    return float(conformal_rows(_rows(x), c.c).data[0])


def _same_point(a: PoincarePoint, b: PoincarePoint) -> bool:
    return a is b or (a.curvature == b.curvature and np.array_equal(a.coords, b.coords))


def exp_map(x: PoincarePoint, v: TangentVector, c: Curvature) -> PoincarePoint:
    if not _same_point(v.base_point, x):
        raise ValueError("exp_map: tangent vector is not based at x")
    if x.curvature != c:
        raise ValueError("exp_map: curvature mismatch")
    if not np.any(v.coords):
        return x
    return _inside(expmap_rows(_rows(x), Tensor(v.coords[None, :]), c.c).data[0], c)


# log_map and distance return the exact zero for coincident points: near the
# boundary the Möbius denominator of -x (+) x cancels to 0 and the row API
# would raise NonFiniteError.
def log_map(x: PoincarePoint, y: PoincarePoint, c: Curvature) -> TangentVector:
    _check_pair(x, y, c, "log_map")
    if np.array_equal(x.coords, y.coords):
        return TangentVector(np.zeros(x.dim), x)
    out = logmap_rows(_rows(x), _rows(y), c.c).data[0]
    return TangentVector(out, x)


def distance(p: PoincarePoint, q: PoincarePoint, c: Curvature) -> float:
    _check_pair(p, q, c, "distance")
    if np.array_equal(p.coords, q.coords):
        return 0.0
    return float(distance_rows(_rows(p), _rows(q), c.c).data[0])


def project_to_ball(z, c: Curvature, eps: float = BALL_MARGIN) -> PoincarePoint:
    """Rescale an ambient vector onto the eps-margin ball if it falls outside.

    Identity inside the margin; direction-preserving and idempotent.  A zero
    margin is rejected because the boundary has an infinite conformal factor.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"project_to_ball expects a vector, got shape {z.shape}")
    out = project_rows(Tensor(z[None, :]), c.c, eps).data[0]
    return PoincarePoint(out, c)
