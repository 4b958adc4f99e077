"""Push-forward density: analytic values, sampling, quadrature, profiles, radial law."""
import csv
import dataclasses

import numpy as np
import pytest

from helpers import ks_statistic
from hypergcl import density
from hypergcl.density import (
    AmbientDensitySpec,
    ambient_density_grid,
    density_profile,
    integrate_density,
    isotropic_spec,
    radial_cdf,
    sample_ambient,
    write_profile_csv,
)
from hypergcl.geometry import Curvature
from hypergcl.linalg import NotSPDError


def test_density_at_origin_one_dim():
    spec = isotropic_spec(1.0, 1.0, 1)
    # g(0) = 1, lambda(0) = 2, power d-1 = 0: 0.5 * (1/sqrt(2pi)) * 2
    assert ambient_density_grid(np.zeros((1, 1)), spec)[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-14)


def test_spec_validation():
    with pytest.raises(NotSPDError):
        AmbientDensitySpec(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), Curvature(1.0))
    with pytest.raises(ValueError):
        AmbientDensitySpec(np.zeros(2), np.eye(3), Curvature(1.0))
    with pytest.raises(ValueError, match="^spec dimension must be at least 1$"):
        isotropic_spec(1.0, 1.0, 0)


@pytest.mark.parametrize("sigma", [0.0, -2.0, np.nan, np.inf, 1e200, 1e-200, 1e-155])
def test_isotropic_spec_refuses_sigma_without_a_finite_normal_square(sigma):
    # 1e200 squares to inf, 1e-200 to 0 and 1e-155 to a subnormal: none can be factored
    with pytest.raises(ValueError, match="^sigma must be positive, with a finite normal square$"):
        isotropic_spec(sigma, 1.0, 1)


@pytest.mark.parametrize("sigma", [1e154, 1.5e-154])
def test_isotropic_spec_accepts_the_extreme_normal_squares(sigma):
    spec = isotropic_spec(sigma, 1.0, 2)
    assert np.array_equal(spec.sigma, sigma * sigma * np.eye(2))


def test_integral_one_dim_tight():
    assert integrate_density(isotropic_spec(0.3, 1.0, 1)) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("sigma, c, d, tol", [(3.0, 1.0, 1, 1e-3), (3.0, 1.0, 2, 1e-3), (1e-3, 1.0, 2, 1e-3),
                                              (0.62, 1.0, 16, 1e-6)])
def test_integral_resolves_boundary_mass_narrow_specs_and_any_dim(sigma, c, d, tol):
    # the cells are uniform in tangent radius: mass exp0 piles up near the
    # boundary (sigma = 3) and a narrow spike (sigma = 1e-3) both fall in cells
    assert abs(integrate_density(isotropic_spec(sigma, c, d)) - 1.0) <= tol


def test_integrate_rejects_unsupported():
    # a non-radial density has no one-ray integral
    with pytest.raises(ValueError, match="integrate_density requires an isotropic covariance"):
        integrate_density(AmbientDensitySpec(np.zeros(2), np.diag([1.0, 1e-4]), Curvature(1.0)))
    with pytest.raises(ValueError, match="at least two radii"):
        density_profile(isotropic_spec(1.0, 1.0, 1), 1)


def test_change_of_variables_against_numeric_jacobian():
    # independent oracle: central-difference Jacobian determinant of exp0
    rng = np.random.default_rng(0)
    c = 1.0
    h = 1e-6
    for d in (2, 3):
        spec = isotropic_spec(0.9, c, d)
        for _ in range(5):
            y = rng.standard_normal(d) * 0.8

            def exp0(v):
                r = np.linalg.norm(v)
                return v if r == 0 else np.tanh(np.sqrt(c) * r) * v / (np.sqrt(c) * r)

            jac = np.empty((d, d))
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                jac[:, k] = (exp0(y + e) - exp0(y - e)) / (2 * h)
            det_exp = np.linalg.det(jac)
            z = exp0(y)
            pn = np.exp(-0.5 * (y @ y) / 0.81) / (2 * np.pi * 0.81) ** (d / 2.0)
            want = pn / det_exp  # density transforms by the inverse Jacobian
            got = ambient_density_grid(z[None, :], spec)[0]
            assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_mvn_logpdf_of_a_general_spec(d):
    # against -(d log 2 pi + log det sigma + (y - mu)^T sigma^-1 (y - mu)) / 2
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    sigma = a @ a.T + 0.5 * np.eye(d)
    mu = rng.standard_normal(d)
    y = mu + 2.0 * rng.standard_normal((50, d))
    diff = y - mu
    quad = np.sum(diff * np.linalg.solve(sigma, diff.T).T, axis=1)
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign == 1.0
    want = -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    got = density._mvn_logpdf(y, AmbientDensitySpec(mu, sigma, Curvature(1.0)))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_sampler_degenerate_covariance():
    mu = np.array([0.4, -0.2])
    spec = AmbientDensitySpec(mu, 1e-12 * np.eye(2), Curvature(1.0))
    z = sample_ambient(1, spec, seed=0)[0]
    r = np.linalg.norm(mu)
    expected = np.tanh(r) * mu / r
    assert np.allclose(z, expected, atol=1e-5)


def test_sampler_deterministic_and_inside():
    spec = isotropic_spec(1.3, 0.7, 3)
    a = sample_ambient(5000, spec, seed=9)
    b = sample_ambient(5000, spec, seed=9)
    assert np.array_equal(a, b)
    assert np.all(0.7 * np.sum(a * a, axis=1) < 1.0)
    c = sample_ambient(5000, spec, seed=10)
    assert not np.array_equal(a, c)


def test_sampler_needs_positive_count():
    with pytest.raises(ValueError):
        sample_ambient(0, isotropic_spec(1.0, 1.0, 2), seed=0)


def test_radial_ks_one_dim_quick():
    spec = isotropic_spec(1.0, 1.0, 1)
    z = sample_ambient(20000, spec, seed=3)
    r = np.sort(np.abs(z[:, 0]))
    assert ks_statistic(r, radial_cdf(spec, r)) < 0.02


@pytest.mark.parametrize("d", [3, 5, 16])
def test_radial_ks_beyond_two_dims(d):
    spec = isotropic_spec(1.0, 1.0, d)
    r = np.sort(np.linalg.norm(sample_ambient(100000, spec, seed=d), axis=1))
    assert ks_statistic(r, radial_cdf(spec, r)) < 0.01


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16, 64])
@pytest.mark.parametrize("sigma, c", [(0.05, 1.0), (1.0, 1.0), (3.0, 0.6)])
def test_radial_cdf_is_a_cdf(sigma, c, d):
    spec = isotropic_spec(sigma, c, d)
    radius = spec.curvature.radius
    inner = np.linspace(0.0, radius, 20001)[:-1]
    cdf = radial_cdf(spec, np.concatenate([inner, [np.nextafter(radius, 0.0)]]))
    assert cdf[0] == 0.0
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    # the gamma recursion subtracts, so F is monotone up to its ~1e-15 rounding
    assert np.all(np.diff(cdf) >= -1e-15)
    outside = radial_cdf(spec, np.array([radius, 1.5 * radius, np.inf, -1e-300, -1.0, np.nan]))
    assert outside[:5].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0] and np.isnan(outside[5])


def _quadrature_cdf(spec, radii, grid=8192):
    """Cumulative midpoint quadrature of the radial density (d = 1 or 2)."""
    h = spec.curvature.radius / grid
    rs = h * (np.arange(grid) + 0.5)
    pts = np.zeros((grid, spec.dim))
    pts[:, 0] = rs
    dens = ambient_density_grid(pts, spec)
    f = 2.0 * dens if spec.dim == 1 else 2.0 * np.pi * rs * dens
    cum = np.concatenate([[0.0], np.cumsum(f) * h])
    edges = np.concatenate([[0.0], rs + 0.5 * h])
    return np.interp(radii, edges, cum)


@pytest.mark.parametrize("sigma, c, d", [(0.3, 1.0, 1), (1.0, 1.0, 1), (0.7, 1.0, 2), (1.2, 0.6, 2), (1.0, 1.0, 2)])
def test_radial_cdf_matches_the_quadrature_of_the_density(sigma, c, d):
    # the closed form and the integral of the density formula are independent
    spec = isotropic_spec(sigma, c, d)
    radii = np.linspace(0.0, spec.curvature.radius, 5001)
    assert np.max(np.abs(radial_cdf(spec, radii) - _quadrature_cdf(spec, radii))) <= 3e-6


def test_boundary_guard_exact_zero():
    spec = isotropic_spec(0.8, 1.0, 2)
    grid = ambient_density_grid(np.array([[1.0, 0.0], [1.2, 0.5], [0.0, 1.0], [5.0, 0.0], [0.1, 0.1]]), spec)
    assert grid[:4].tolist() == [0.0] * 4 and grid[4] > 0.0
    # unit vectors moved by up to 3 ulps: zero exactly at or outside the boundary
    for d in (2, 3):
        spec = isotropic_spec(1.0, 1.0, d)
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2000, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        z = z + rng.integers(-3, 4, z.shape) * np.spacing(z)
        outside = np.sum(z * z, axis=1) >= 1.0
        assert 0 < np.count_nonzero(outside) < z.shape[0]
        assert np.array_equal(ambient_density_grid(z, spec) == 0.0, outside)


def test_profile_shapes():
    prof = density_profile(isotropic_spec(0.3, 1.0, 2), 300)
    radii, dens = prof[:, 0], prof[:, 1]
    assert radii[0] == 0.0
    assert radii[-1] == pytest.approx(1.0 - 1e-5)
    assert np.all(np.diff(radii) > 0)
    assert radii[np.argmax(dens)] == 0.0  # small sigma: mode at the center

    prof = density_profile(isotropic_spec(1.2, 1.0, 2), 300)
    assert prof[np.argmax(prof[:, 1]), 0] > 0.9  # large sigma: outer shell

    # sigma = 0.62 is near-flat inside the disk; the exact density gives
    # max/min 1.46 on [0, 0.85] and 1.94 on [0, 0.9]
    prof = density_profile(isotropic_spec(0.62, 1.0, 2), 400)
    r, p = prof[:, 0], prof[:, 1]
    inner = p[r <= 0.85]
    assert inner.max() / inner.min() < 1.5
    wider = p[r <= 0.9]
    assert wider.max() / wider.min() < 2.0


def test_profile_rejects_anisotropic_and_shifted():
    with pytest.raises(ValueError):
        density_profile(AmbientDensitySpec(np.zeros(2), np.diag([1.0, 0.5]), Curvature(1.0)), 100)
    with pytest.raises(ValueError):
        density_profile(AmbientDensitySpec(np.array([0.1, 0.0]), np.eye(2), Curvature(1.0)), 100)


@pytest.mark.parametrize(
    "name, call",
    [
        ("radial_cdf", lambda spec: radial_cdf(spec, np.linspace(0.0, 0.5, 10))),
        ("density_profile", lambda spec: density_profile(spec, 10)),
        ("integrate_density", integrate_density),
    ],
    ids=["radial_cdf", "density_profile", "integrate_density"],
)
def test_radial_functions_share_one_isotropy_rule(name, call):
    # a relative anisotropy of 1e-7 is refused by both, each naming itself
    with pytest.raises(ValueError, match=f"{name} requires an isotropic covariance"):
        call(AmbientDensitySpec(np.zeros(2), np.diag([1.0, 1.0 + 1e-7]), Curvature(1.0)))
    with pytest.raises(ValueError, match=f"{name} requires a zero mean"):
        call(AmbientDensitySpec(np.array([0.0, 1e-9]), np.eye(2), Curvature(1.0)))


def test_sigma_is_factored_once_per_spec(monkeypatch):
    calls = []

    def counting(a):
        calls.append(1)
        return np.linalg.cholesky(a)

    monkeypatch.setattr(density, "cholesky", counting)
    spec = isotropic_spec(0.8, 1.0, 2)
    integrate_density(spec)
    sample_ambient(10, spec, seed=0)
    radial_cdf(spec, np.linspace(0.0, 0.9, 5))
    density_profile(spec, 10)
    ambient_density_grid(np.array([[0.1, 0.2]]), spec)
    assert len(calls) == 1
    assert np.allclose(spec.chol @ spec.chol.T, spec.sigma, rtol=0.0, atol=1e-15)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.chol = np.eye(2)
    with pytest.raises(ValueError):
        spec.chol[0, 0] = 2.0
    with pytest.raises(TypeError):
        AmbientDensitySpec(np.zeros(2), np.eye(2), Curvature(1.0), chol=np.eye(2))  # not a knob


def test_profile_csv_format(tmp_path):
    prof = density_profile(isotropic_spec(0.5, 1.0, 1), 50)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["radius", "density"]
    assert len(rows) == 51
    back = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.array_equal(back, prof)
