"""Analytic ambient density of a tangent-plane Gaussian pushed through exp0.

For z = exp0(y) with y ~ N(mu, Sigma), the ambient density is

    p(z) = N(log0(z); mu, Sigma) * 0.5 * lam(z) * g(z)^(d-1)

where lam(z) = 2 / (1 - c ||z||^2) and g(z) = artanh(sqrt(c) ||z||) /
(sqrt(c) ||z||); the factor 0.5 * lam * g^(d-1) is the Jacobian determinant
of log0 (a radial map), so the density integrates to one over the open
ball.  Evaluation at or outside the boundary returns exactly zero.

For a zero-mean isotropic spec N(0, sigma^2 I) the sample radius has a
closed-form law: ||y||^2 / sigma^2 is chi^2_d and ||z|| = tanh(sqrt(c) ||y||)
/ sqrt(c) is increasing, so

    F(r) = P(d/2, artanh(sqrt(c) r)^2 / (2 c sigma^2))

with P the regularized lower incomplete gamma, a finite sum for every
d >= 1 (`radial_cdf`).  Its density depends on the radius alone, so
`integrate_density` and `density_profile` work along one ray.

These evaluators are plain vectorized numpy (no tape).  The Gaussian log
density solves with `np.linalg.solve` against the spec's one
`linalg.cholesky` factor.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .geometry import Curvature
from .linalg import cholesky

__all__ = [
    "AmbientDensitySpec",
    "ambient_density_grid",
    "sample_ambient",
    "integrate_density",
    "density_profile",
    "radial_cdf",
    "write_profile_csv",
]

# below this value of x = sqrt(c)*||z||, artanh(x)/x is evaluated by series
_G_SERIES_CUTOFF = 1e-4
_RADIAL_CELLS = 2048  # integrate_density's midpoint cells along the ray


@dataclass(frozen=True, eq=False)
class AmbientDensitySpec:
    """Tangent Gaussian parameters plus the ball curvature."""

    mu: np.ndarray
    sigma: np.ndarray
    curvature: Curvature
    chol: np.ndarray = field(init=False, repr=False)  # sigma's lower Cholesky factor, set once

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        if mu.ndim != 1 or sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError(f"inconsistent spec shapes: mu {mu.shape}, sigma {sigma.shape}")
        if mu.shape[0] < 1:
            raise ValueError("spec dimension must be at least 1")
        chol = cholesky(sigma)  # raises NotSPDError unless SPD
        for name, arr in (("mu", mu), ("sigma", sigma), ("chol", chol)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def isotropic_spec(sigma: float, c: float, d: int) -> AmbientDensitySpec:
    """Convenience constructor for N(0, sigma^2 I) on a ball of curvature c.

    sigma must be positive and sigma^2 a finite normal float: it overflows
    above about 1.3e154, and below about 1.5e-154 it is subnormal or 0, too
    small to factor.  Other values raise ValueError.
    """
    sigma = float(sigma)
    var = sigma * sigma
    if not (sigma > 0.0 and sys.float_info.min <= var < np.inf):
        raise ValueError("sigma must be positive, with a finite normal square")
    return AmbientDensitySpec(np.zeros(d), var * np.eye(d), Curvature(float(c)))


def _g_factor(x: np.ndarray) -> np.ndarray:
    """artanh(x)/x with the removable singularity at 0 handled by series."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _G_SERIES_CUTOFF
    xs = x[small]
    out[small] = 1.0 + xs * xs / 3.0 + xs ** 4 / 5.0
    xb = x[~small]
    out[~small] = np.arctanh(xb) / xb
    return out


def _mvn_logpdf(y: np.ndarray, spec: AmbientDensitySpec) -> np.ndarray:
    """log N(y; mu, sigma) per row of y, from the spec's Cholesky factor."""
    logdet = 2.0 * np.sum(np.log(np.diag(spec.chol)))
    w = np.linalg.solve(spec.chol, (y - spec.mu).T)
    quad = np.sum(w * w, axis=0)
    return -0.5 * (spec.dim * np.log(2.0 * np.pi) + logdet + quad)


def ambient_density_grid(z: np.ndarray, spec: AmbientDensitySpec) -> np.ndarray:
    """Density at each row of z; exactly zero at or outside the boundary."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != spec.dim:
        raise ValueError(f"points have dim {z.shape[1]}, spec has dim {spec.dim}")
    c = spec.curvature.c
    r2 = c * np.sum(z * z, axis=1)
    out = np.zeros(z.shape[0])
    inside = r2 < 1.0
    if not np.any(inside):
        return out
    zi = z[inside]
    x = np.sqrt(r2[inside])  # sqrt(c) * ||z||
    g = _g_factor(x)
    y = zi * g[:, None]  # log0(z)
    lam = 2.0 / (1.0 - r2[inside])
    logpdf = _mvn_logpdf(y, spec)
    out[inside] = np.exp(logpdf) * 0.5 * lam * g ** (spec.dim - 1)
    return out


def sample_ambient(n: int, spec: AmbientDensitySpec, seed: int) -> np.ndarray:
    """exp0 of n Gaussian tangent draws; deterministic for a given seed.

    Returns an (n, d) array whose rows all lie strictly inside the ball.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, spec.dim))
    y = spec.mu + u @ spec.chol.T
    sc = np.sqrt(spec.curvature.c)
    r = np.sqrt(np.sum(y * y, axis=1))
    t = np.minimum(np.tanh(sc * r), np.nextafter(1.0, 0.0))
    factor = np.ones_like(r)
    nz = r > 0.0
    factor[nz] = t[nz] / (sc * r[nz])
    return y * factor[:, None]


def integrate_density(spec: AmbientDensitySpec) -> float:
    """Integral of the density over the ball: a midpoint rule along one ray.

    For an isotropic zero-mean spec (any d >= 1) it is omega_d int_0^R
    p(r e1) r^(d-1) dr, omega_d = 2 pi^(d/2) / Gamma(d/2).  The cells are
    uniform in tangent radius rho on [0, sigma (sqrt(d) + 12)], r =
    tanh(sqrt(c) rho) / sqrt(c) and dr = (1 - tanh^2) drho, so they follow
    the mass exp0 piles up near the boundary.  Above sqrt(c) rho ~ 18.7 tanh
    rounds to 1, and that mass lands on the boundary and reads 0.
    """
    _check_isotropic(spec, "integrate_density")
    d = spec.dim
    sc = math.sqrt(spec.curvature.c)
    h = math.sqrt(spec.sigma[0, 0]) * (math.sqrt(d) + 12.0) / _RADIAL_CELLS
    t = np.tanh(sc * h * (np.arange(_RADIAL_CELLS) + 0.5))
    pts = np.zeros((_RADIAL_CELLS, d))
    pts[:, 0] = t / sc
    surface = 2.0 * math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))
    return float(surface * h * np.sum(ambient_density_grid(pts, spec) * pts[:, 0] ** (d - 1) * (1.0 - t * t)))


def _check_isotropic(spec: AmbientDensitySpec, fname: str) -> None:
    """Refuse a spec whose density is not a function of the radius alone."""
    sigma = spec.sigma
    iso = sigma[0, 0] * np.eye(spec.dim)
    if not np.allclose(sigma, iso, rtol=0.0, atol=1e-12 * max(sigma[0, 0], 1.0)):
        raise ValueError(f"{fname} requires an isotropic covariance sigma^2 * I")
    if np.any(spec.mu != 0.0):
        raise ValueError(f"{fname} requires a zero mean")


def density_profile(spec: AmbientDensitySpec, n_radii: int) -> np.ndarray:
    """(radius, density) pairs on a uniform radial grid in [0, (1 - 1e-5) R].

    Only zero-mean isotropic covariances are accepted; the density is then a
    function of the radius alone, evaluated at the points (r, 0, ..., 0).
    """
    _check_isotropic(spec, "density_profile")
    if n_radii < 2:
        raise ValueError("need at least two radii")
    radii = np.linspace(0.0, (1.0 - 1e-5) * spec.curvature.radius, n_radii)
    pts = np.zeros((n_radii, spec.dim))
    pts[:, 0] = radii
    return np.column_stack([radii, ambient_density_grid(pts, spec)])


def _lower_gamma(two_a: int, u: np.ndarray) -> np.ndarray:
    """P(a, u) for a = two_a / 2, from P(1/2, u) = erf(sqrt(u)) or P(1, u) = 1 - e^-u.

    Steps up by P(a + 1, u) = P(a, u) - u^a e^-u / Gamma(a + 1), the term
    carried as a running product so that e^-u = 0 gives 0, never 0 * inf.
    The subtractions leave an absolute error of at most about 1e-15 (d = 64),
    so P is monotone in u up to that rounding; the clip keeps it in [0, 1].
    """
    if two_a % 2:
        a = 0.5
        p = np.vectorize(math.erf, otypes=[float])(np.sqrt(u))
        term = np.sqrt(u) * np.exp(-u) / math.gamma(1.5)
    else:
        a = 1.0
        p = -np.expm1(-u)
        term = u * np.exp(-u)
    while a < two_a / 2:
        p -= term
        a += 1.0
        term *= u / a
    return np.clip(p, 0.0, 1.0)


def radial_cdf(spec: AmbientDensitySpec, radii: np.ndarray) -> np.ndarray:
    """CDF of the sample radius ||z||, the closed form above, for every d >= 1.

    Isotropic zero-mean specs only (the radial marginal is well defined
    there).  Radii <= 0 give 0 and radii >= R give exactly 1.
    """
    _check_isotropic(spec, "radial_cdf")
    r = np.asarray(radii, dtype=float)
    radius = spec.curvature.radius
    out = np.where(r >= radius, 1.0, 0.0)
    out[np.isnan(r)] = np.nan
    inside = (r > 0.0) & (r < radius)
    ri = r[inside]
    # the tangent radius; sqrt(c) * r can round up to 1 just below R, where artanh is infinite
    x = np.minimum(np.sqrt(spec.curvature.c) * ri, np.nextafter(1.0, 0.0))
    rho = ri * _g_factor(x)
    out[inside] = _lower_gamma(spec.dim, rho * rho / (2.0 * spec.sigma[0, 0]))
    return out


def write_profile_csv(path, table: np.ndarray) -> None:
    """Emit a density profile as CSV with header `radius,density`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "density"])
        for radius, dens in table:
            writer.writerow([repr(float(radius)), repr(float(dens))])
