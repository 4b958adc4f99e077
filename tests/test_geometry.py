"""Ball primitives: identities, oracles, error contracts."""
import math

import numpy as np
import pytest

from helpers import ball_batch, exact_ball_distance
from hypergcl import geometry as geom
from hypergcl import tensor as T
from hypergcl.geometry import Curvature, PoincarePoint
from hypergcl.tensor import Tensor, finite_diff_check

C1 = Curvature(1.0)


def scalar_mobius(a, b, c):
    # 1-D closed form for collinear points
    return (a + b) / (1.0 + c * a * b)


def mobius(u, v, c=1.0):
    """u (+) v of two coordinate vectors, through the row API on 1-row tensors."""
    return geom.mobius_add_rows(Tensor(np.array([u], dtype=float)), Tensor(np.array([v], dtype=float)), c).data[0]


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
    q = [0.3, -0.2, 0.1]
    assert np.array_equal(mobius(np.zeros(3), q), q)


def test_mobius_left_inverse_exact():
    p = np.array([0.5, -0.1])
    assert np.array_equal(mobius(-p, p), np.zeros(2))


def test_mobius_collinear_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(-0.9, 0.9, 2)
        c = rng.uniform(0.3, 2.0)
        got = mobius([a / np.sqrt(c), 0.0], [b / np.sqrt(c), 0.0], c)
        want = scalar_mobius(a, b, 1.0) / np.sqrt(c)  # reduce to unit ball then rescale
        assert got[0] == pytest.approx(want, abs=1e-12)
        assert got[1] == 0.0


def test_mobius_spec_example():
    out = mobius([0.5, 0.0], [-0.5, 0.0])
    assert np.allclose(out, [scalar_mobius(0.5, -0.5, 1.0), 0.0], atol=1e-15)


def test_mobius_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        mobius([0.5, 0.0], [0.1, 0.0, 0.0])


def test_mobius_left_cancellation_batch():
    rng = np.random.default_rng(1)
    u = ball_batch(rng, 2000, 6)
    v = ball_batch(rng, 2000, 6)
    s = geom.mobius_add_rows(Tensor(u), Tensor(v), 1.0)
    back = geom.mobius_add_rows(Tensor(-u), s, 1.0)
    assert np.max(np.abs(back.data - v)) < 1e-9


def test_exp_map_examples():
    # at the origin: the zero vector maps to the origin, and exp0(e1) = tanh(1) e1
    out = geom.exp0_rows(Tensor(np.array([[0.0, 0.0], [1.0, 0.0]])), 1.0).data
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [np.tanh(1.0), 0.0], atol=1e-15)


def test_log_map_examples():
    out = geom.log0_rows(Tensor(np.array([[0.0, 0.0], [np.tanh(1.0), 0.0]])), 1.0).data
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [1.0, 0.0], atol=1e-12)


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


def test_distance_refuses_mismatched_points():
    p = PoincarePoint([0.5, 0.0], C1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        geom.distance(p, PoincarePoint([0.1, 0.0, 0.0], C1), C1)
    with pytest.raises(ValueError, match="curvature mismatch"):
        geom.distance(p, PoincarePoint([0.1, 0.0], Curvature(2.0)), C1)


def test_coincident_points_near_the_boundary():
    # -p (+) p has a Möbius denominator that cancels to 0 here; the
    # difference form of `distance` has ||p - p||^2 = 0 in its numerator
    p = PoincarePoint([1.0 - 1e-12, 0.0], C1)
    assert geom.distance(p, p, C1) == 0.0


@pytest.mark.parametrize(
    "x, y",
    [
        *(([1.0 - 2.0 ** -k1, 0.0], [1.0 - 2.0 ** -k2, 0.0]) for k1, k2 in ((20, 30), (30, 31), (40, 45))),
        # the Möbius denominator of (-x) (+) y cancels to 0 for this pair
        ([1.0 - 1e-9, 0.0], [1.0 - 1e-9, 1e-13]),
        # ||(-x) (+) y|| rounds to the artanh clamp for these, 1e-6 and 1e-8 rad apart
        *(([1.0 - 1e-9, 0.0], [(1.0 - 1e-9) * math.cos(a), (1.0 - 1e-9) * math.sin(a)]) for a in (1e-6, 1e-8)),
    ],
    ids=["radii-1-2^-20-and-2^-30", "radii-1-2^-30-and-2^-31", "radii-1-2^-40-and-2^-45", "1e-13-apart-at-1-1e-9",
         "1e-6-rad-apart-at-1-1e-9", "1e-8-rad-apart-at-1-1e-9"],
)
def test_distance_near_the_boundary_matches_the_exact_value(x, y):
    got = geom.distance(PoincarePoint(x, C1), PoincarePoint(y, C1), C1)
    assert got == pytest.approx(exact_ball_distance(x, y), rel=1e-8)


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
    p = geom.project_to_ball(inside, C1)
    assert np.array_equal(p.coords, inside)

    z = np.array([2.0, 0.0])
    p = geom.project_to_ball(z, C1)
    assert np.linalg.norm(p.coords) == pytest.approx(1.0 - eps, abs=1e-15)
    assert p.coords[1] == 0.0

    # idempotence (up to one ulp of the cap)
    twice = geom.project_to_ball(p.coords, C1)
    assert np.max(np.abs(twice.coords - p.coords)) < 1e-14

    # curvature scales the cap
    c4 = Curvature(4.0)
    p4 = geom.project_to_ball(z, c4)
    assert np.linalg.norm(p4.coords) == pytest.approx((1.0 - eps) / 2.0, abs=1e-15)
