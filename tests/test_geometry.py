"""Ball primitives: identities, oracles, error contracts."""
import numpy as np
import pytest

from helpers import ball_batch
from hypergcl import geometry as geom
from hypergcl import tensor as T
from hypergcl.geometry import Curvature, PoincarePoint, TangentVector
from hypergcl.tensor import Tensor, finite_diff_check

C1 = Curvature(1.0)


def scalar_mobius(a, b, c):
    # 1-D closed form for collinear points
    return (a + b) / (1.0 + c * a * b)


def test_curvature_validation():
    with pytest.raises(ValueError):
        Curvature(0.0)
    with pytest.raises(ValueError):
        Curvature(-1.0)
    assert Curvature(4.0).radius == pytest.approx(0.5)


def test_point_validation():
    with pytest.raises(ValueError):
        PoincarePoint([1.0, 0.0], C1)  # on the boundary
    with pytest.raises(ValueError):
        PoincarePoint([0.9, 0.9], C1)
    p = PoincarePoint([0.3, 0.4], C1)
    assert p.dim == 2


def test_mobius_left_identity_exact():
    q = PoincarePoint([0.3, -0.2, 0.1], C1)
    zero = PoincarePoint(np.zeros(3), C1)
    out = geom.mobius_add(zero, q, C1)
    assert np.array_equal(out.coords, q.coords)


def test_mobius_left_inverse_exact():
    p = PoincarePoint([0.5, -0.1], C1)
    minus = PoincarePoint(-p.coords, C1)
    out = geom.mobius_add(minus, p, C1)
    assert np.array_equal(out.coords, np.zeros(2))


def test_mobius_collinear_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(-0.9, 0.9, 2)
        c = rng.uniform(0.3, 2.0)
        cv = Curvature(c)
        u = PoincarePoint([a / np.sqrt(c), 0.0], cv)
        v = PoincarePoint([b / np.sqrt(c), 0.0], cv)
        got = geom.mobius_add(u, v, cv).coords
        want = scalar_mobius(a, b, 1.0) / np.sqrt(c)  # reduce to unit ball then rescale
        assert got[0] == pytest.approx(want, abs=1e-12)
        assert got[1] == 0.0


def test_mobius_spec_example():
    u = PoincarePoint([0.5, 0.0], C1)
    v = PoincarePoint([-0.5, 0.0], C1)
    out = geom.mobius_add(u, v, C1)
    assert np.allclose(out.coords, [scalar_mobius(0.5, -0.5, 1.0), 0.0], atol=1e-15)


def test_mobius_errors():
    u = PoincarePoint([0.5, 0.0], C1)
    v3 = PoincarePoint([0.1, 0.0, 0.0], C1)
    with pytest.raises(ValueError):
        geom.mobius_add(u, v3, C1)
    c2 = Curvature(2.0)
    w = PoincarePoint([0.1, 0.0], c2)
    with pytest.raises(ValueError):
        geom.mobius_add(u, w, C1)


def test_mobius_left_cancellation_batch():
    rng = np.random.default_rng(1)
    u = ball_batch(rng, 2000, 6)
    v = ball_batch(rng, 2000, 6)
    s = geom.mobius_add_rows(Tensor(u), Tensor(v), 1.0)
    back = geom.mobius_add_rows(Tensor(-u), s, 1.0)
    assert np.max(np.abs(back.data - v)) < 1e-9


def test_conformal_factor():
    zero = PoincarePoint(np.zeros(2), C1)
    assert geom.conformal_factor(zero, C1) == pytest.approx(2.0)
    x = PoincarePoint([np.sqrt(0.5), 0.0], C1)
    assert geom.conformal_factor(x, C1) == pytest.approx(4.0, abs=1e-12)
    # under the projection margin the factor stays finite
    eps = 1e-5
    near = geom.project_to_ball(np.array([5.0, 0.0]), C1, eps)
    lam = geom.conformal_factor(near, C1)
    assert np.isfinite(lam)
    assert lam == pytest.approx(2.0 / (1.0 - (1.0 - eps) ** 2), rel=1e-9)


def test_exp_map_examples():
    zero = PoincarePoint(np.zeros(2), C1)
    assert geom.exp_map(zero, TangentVector(np.zeros(2), zero), C1) is zero
    out = geom.exp_map(zero, TangentVector([1.0, 0.0], zero), C1)
    assert np.allclose(out.coords, [np.tanh(1.0), 0.0], atol=1e-15)


def test_log_map_examples():
    zero = PoincarePoint(np.zeros(2), C1)
    assert np.array_equal(geom.log_map(zero, zero, C1).coords, np.zeros(2))
    y = PoincarePoint([np.tanh(1.0), 0.0], C1)
    out = geom.log_map(zero, y, C1)
    assert np.allclose(out.coords, [1.0, 0.0], atol=1e-12)


def test_exp_log_roundtrip_value_api():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = PoincarePoint(ball_batch(rng, 1, 3, max_radius=0.8)[0], C1)
        y = PoincarePoint(ball_batch(rng, 1, 3, max_radius=0.8)[0], C1)
        v = geom.log_map(x, y, C1)
        back = geom.exp_map(x, v, C1)
        assert np.max(np.abs(back.coords - y.coords)) < 1e-9


def test_log0_exp0_roundtrip_norm_three():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((3000, 4))
    v *= (rng.uniform(0, 3.0, (3000, 1)) / np.linalg.norm(v, axis=1, keepdims=True))
    z = geom.exp0_rows(Tensor(v), 1.0)
    back = geom.log0_rows(z, 1.0)
    assert np.max(np.abs(back.data - v)) < 1e-9


def test_distance_examples():
    p = PoincarePoint([0.5, 0.0], C1)
    q = PoincarePoint([-0.5, 0.0], C1)
    assert geom.distance(p, p, C1) == 0.0
    # 1-D Moebius oracle gives the gyro-norm 0.8, then artanh(r) = 0.5 ln((1+r)/(1-r))
    r = abs(scalar_mobius(-0.5, -0.5, 1.0))
    expected = 2.0 * 0.5 * np.log((1.0 + r) / (1.0 - r))
    assert geom.distance(p, q, C1) == pytest.approx(expected, abs=1e-12)


def test_coincident_points_near_the_boundary():
    # -p (+) p has a Möbius denominator that cancels to 0 here, so these
    # exact zeros come from the coincident-point shortcuts
    p = PoincarePoint([1.0 - 1e-12, 0.0], C1)
    assert geom.distance(p, p, C1) == 0.0
    assert np.array_equal(geom.log_map(p, p, C1).coords, np.zeros(2))


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(4)
    p = ball_batch(rng, 3000, 5)
    q = ball_batch(rng, 3000, 5)
    r = ball_batch(rng, 3000, 5)
    dpq = geom.distance_rows(Tensor(p), Tensor(q), 1.0).data
    dqp = geom.distance_rows(Tensor(q), Tensor(p), 1.0).data
    assert np.max(np.abs(dpq - dqp)) < 1e-12
    dpr = geom.distance_rows(Tensor(p), Tensor(r), 1.0).data
    dqr = geom.distance_rows(Tensor(q), Tensor(r), 1.0).data
    assert np.max(dpr - (dpq + dqr)) <= 1e-12


def test_distance_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    q = Tensor(ball_batch(rng, 1, 3, max_radius=0.7))
    for _ in range(5):
        p0 = ball_batch(rng, 1, 3, max_radius=0.7)
        err = finite_diff_check(lambda t: T.mean_all(geom.distance_rows(t, q, 1.0)), p0)
        assert err < 1e-5


def test_distance_small_curvature_limit():
    # D_c -> 2||p-q|| as c -> 0 (the conformal factor is 2 at the origin)
    p = np.array([[0.03, -0.02]])
    q = np.array([[-0.01, 0.04]])
    base = 2.0 * np.linalg.norm(p - q)
    errs = []
    for c in (1e-2, 1e-4, 1e-6):
        d = float(geom.distance_rows(Tensor(p), Tensor(q), c).data[0])
        errs.append(abs(d / base - 1.0))
    assert errs[-1] < 1e-6
    assert errs[0] > errs[1] > errs[2]  # first-order convergence in c


def test_projection_examples():
    eps = 1e-5
    inside = np.array([0.3, 0.1])
    p = geom.project_to_ball(inside, C1, eps)
    assert np.array_equal(p.coords, inside)

    z = np.array([2.0, 0.0])
    p = geom.project_to_ball(z, C1, eps)
    assert np.linalg.norm(p.coords) == pytest.approx(1.0 - eps, abs=1e-15)
    assert p.coords[1] == 0.0

    # idempotence (up to one ulp of the cap)
    twice = geom.project_to_ball(p.coords, C1, eps)
    assert np.max(np.abs(twice.coords - p.coords)) < 1e-14

    # curvature scales the cap
    c4 = Curvature(4.0)
    p4 = geom.project_to_ball(z, c4, eps)
    assert np.linalg.norm(p4.coords) == pytest.approx((1.0 - eps) / 2.0, abs=1e-15)


def test_projection_rejects_zero_eps():
    with pytest.raises(ValueError):
        geom.project_to_ball(np.array([0.5, 0.0]), C1, 0.0)
    with pytest.raises(ValueError):
        geom.project_to_ball(np.array([0.5, 0.0]), C1, 1.0)


def test_tangent_vector_validation():
    base = PoincarePoint([0.1, 0.2], C1)
    with pytest.raises(ValueError):
        TangentVector([1.0, 0.0, 0.0], base)
    other = PoincarePoint([0.0, 0.0], C1)
    v = TangentVector([1.0, 0.0], other)
    with pytest.raises(ValueError):
        geom.exp_map(base, v, C1)


def test_points_to_matrix_curvature_check():
    a = PoincarePoint([0.1, 0.0], C1)
    b = PoincarePoint([0.2, 0.0], Curvature(2.0))
    with pytest.raises(ValueError):
        geom.points_to_matrix([a, b])
