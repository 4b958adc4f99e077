"""Moments, effective rank, Gaussian KL, the rank bound and tree distortion."""
import numpy as np
import pytest

from helpers import spearman
from hypergcl import geometry as geom
from hypergcl import spectral
from hypergcl import tensor as T
from hypergcl.geometry import Curvature, PoincarePoint
from hypergcl.spectral import (
    CovarianceSummary,
    SingularSpectrum,
    covariance_effective_rank,
    effective_rank,
    erank_bound_check,
    gaussian_kl,
    gaussian_kl_tensors,
    tangent_moments,
    tangent_moments_tensors,
    tree_distortion,
)
from hypergcl.tensor import Tape, Tensor, finite_diff_check


def test_moments_of_zero_batch():
    s = tangent_moments(np.zeros((5, 3)), 1.0)
    assert np.array_equal(s.mu, np.zeros(3))
    assert np.array_equal(s.sigma, np.zeros((3, 3)))


def test_moments_equal_sample_moments_of_tangent_draws():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((40, 4)) * 0.7
    z = geom.exp0_rows(Tensor(y), 1.0).data
    s = tangent_moments(z, 1.0)
    mu = y.mean(axis=0)
    centered = y - mu
    sigma = centered.T @ centered / y.shape[0]  # 1/N normalization
    assert np.allclose(s.mu, mu, atol=1e-10)
    assert np.allclose(s.sigma, sigma, atol=1e-10)


def test_moments_monte_carlo_standard_gaussian():
    n = 100000
    rng = np.random.default_rng(11)
    y = rng.standard_normal((n, 2))
    z = geom.exp0_rows(Tensor(y), 1.0).data
    s = tangent_moments(z, 1.0)
    tol = 3.0 / np.sqrt(n)
    assert np.max(np.abs(s.mu)) < tol
    assert np.max(np.abs(s.sigma - np.eye(2))) < tol


def test_moments_errors():
    with pytest.raises(ValueError):
        tangent_moments(np.zeros((1, 3)), 1.0)
    bad = np.array([[0.2, 0.0], [1.5, 0.0]])
    with pytest.raises(ValueError):
        tangent_moments(bad, 1.0)


def test_moments_accept_point_sequences():
    c = Curvature(1.0)
    pts = [PoincarePoint([0.1, 0.0], c), PoincarePoint([0.0, 0.2], c), PoincarePoint([-0.1, 0.1], c)]
    s = tangent_moments(pts, c)
    assert s.dim == 2


def test_moments_accept_tensor_and_curvature():
    z = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, 0.1]])
    s = tangent_moments(Tensor(z), Curvature(1.5))
    ref = tangent_moments(z, 1.5)
    assert np.array_equal(s.mu, ref.mu) and np.array_equal(s.sigma, ref.sigma)


def test_covariance_summary_validation():
    with pytest.raises(ValueError):
        CovarianceSummary(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CovarianceSummary(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))  # indefinite


def test_singular_spectrum_validation():
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, -0.1]))


def test_effective_rank_identity_and_rank_one():
    assert effective_rank(np.eye(7)) == pytest.approx(7.0, abs=1e-10)
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 1.5])
    assert effective_rank(np.outer(u, v)) == pytest.approx(1.0, abs=1e-10)


def test_effective_rank_hand_entropy_oracle():
    # diag(4, 1): p = (0.8, 0.2)
    expected = np.exp(-(0.8 * np.log(0.8) + 0.2 * np.log(0.2)))
    assert effective_rank(np.diag([4.0, 1.0])) == pytest.approx(expected, abs=1e-12)


def test_effective_rank_bounds_and_scale_invariance():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((20, 6))
    e = effective_rank(m)
    assert 1.0 <= e <= 6.0
    for alpha in (1e-4, 0.5, 123.0):
        assert effective_rank(alpha * m) == pytest.approx(e, abs=1e-9)


def test_effective_rank_matches_numpy_route():
    rng = np.random.default_rng(2)
    for shape in ((10, 4), (6, 6), (3, 9)):
        m = rng.standard_normal(shape)
        s = np.linalg.svd(m, compute_uv=False)
        p = s / s.sum()
        p = p[p > 0]
        want = np.exp(-(p * np.log(p)).sum())
        assert effective_rank(m) == pytest.approx(want, abs=1e-9)


def test_effective_rank_zero_matrix_rejected():
    with pytest.raises(ValueError):
        effective_rank(np.zeros((4, 4)))


def test_covariance_effective_rank_uses_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T + 0.5 * np.eye(5)
    w = np.linalg.eigvalsh(sigma)
    p = w / w.sum()
    want = np.exp(-(p * np.log(p)).sum())
    assert covariance_effective_rank(sigma) == pytest.approx(want, abs=1e-9)


def test_gaussian_kl_zero_at_unit_gaussian():
    s = CovarianceSummary(np.zeros(4), np.eye(4))
    assert abs(gaussian_kl(s)) <= 1e-10


def test_gaussian_kl_eigenvalue_oracle():
    # oracle: sum_i (lam_i - ln lam_i - 1) + ||mu||^2 on the jittered matrix
    sigma = np.diag([2.0, 2.0])
    s = CovarianceSummary(np.zeros(2), sigma)
    expected = 2.0 * (2.0 - np.log(2.0) - 1.0)
    assert gaussian_kl(s) == pytest.approx(expected, abs=1e-5)
    lam = np.linalg.eigvalsh(sigma + spectral.DEFAULT_JITTER * np.eye(2))
    exact = float(np.sum(lam - np.log(lam) - 1.0))
    assert gaussian_kl(s) == pytest.approx(exact, abs=1e-12)


def test_gaussian_kl_mean_term():
    s = CovarianceSummary(np.array([1.0, 0.0]), np.eye(2))
    assert gaussian_kl(s) == pytest.approx(1.0, abs=1e-5)


def test_gaussian_kl_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 1e-4 * np.eye(d)
        mu = rng.standard_normal(d)
        assert gaussian_kl(CovarianceSummary(mu, sigma)) >= -1e-12


def test_gaussian_kl_general_reference():
    # nonzero target mean: KL(N(mu,I) || N(m*1, I)) additive form = ||mu - m*1||^2
    mu = np.array([0.3, -0.2, 0.1])
    with Tape():
        val = float(gaussian_kl_tensors(Tensor(mu), Tensor(np.eye(3)), jitter=0.0, target_mean=0.5))
    assert val == pytest.approx(float(np.sum((mu - 0.5) ** 2)), abs=1e-12)
    # degraded diagonal reference at the exact match point gives zero
    diag = np.array([1.0, 0.01, 1.0])
    val = float(
        gaussian_kl_tensors(Tensor(np.zeros(3)), Tensor(np.diag(diag)), jitter=0.0, target_diag=diag)
    )
    assert val == pytest.approx(0.0, abs=1e-12)


def test_erank_bound_equality_member():
    for d in (2, 5, 16):
        chk = erank_bound_check(CovarianceSummary(np.zeros(d), np.eye(d)))
        assert chk.holds
        assert chk.lhs == pytest.approx(0.0, abs=1e-9)
        assert chk.rhs == pytest.approx(0.0, abs=1e-9)


def test_erank_bound_strongly_anisotropic():
    chk = erank_bound_check(CovarianceSummary(np.zeros(2), np.diag([1.0, 1e-4])))
    assert chk.holds
    assert chk.lhs < -5.0
    assert chk.rhs > chk.lhs + 5.0


def test_erank_bound_random_pd():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 17))
        a = rng.standard_normal((d, d)) * (10.0 ** rng.uniform(-1, 0.5))
        sigma = a @ a.T + 1e-6 * np.eye(d)
        mu = rng.standard_normal(d) * rng.uniform(0, 1.5)
        assert erank_bound_check(CovarianceSummary(mu, sigma)).holds


def test_kl_descent_raises_covariance_erank():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 6))
    sigma = m @ m.T / 6.0 + 0.05 * np.eye(6)
    eranks = []
    for _ in range(100):
        with Tape() as tape:
            s = Tensor(sigma)
            d = gaussian_kl_tensors(Tensor(np.zeros(6)), s, jitter=0.0)
        g = tape.backward(d).wrt(s)
        sigma = sigma - 0.05 * (g + g.T) / 2.0
        eranks.append(covariance_effective_rank(sigma))
    assert spearman(np.arange(len(eranks)), eranks) > 0.9
    assert eranks[-1] > eranks[0]


def test_moments_differentiable_through_log0():
    rng = np.random.default_rng(7)
    y0 = rng.standard_normal((6, 3)) * 0.5

    def f(t):
        z = geom.exp0_rows(t, 1.0)
        _, sig = tangent_moments_tensors(z, 1.0)
        return T.trace(sig)

    assert finite_diff_check(f, y0) < 1e-5


def test_tree_distortion_exact_path_through_origin():
    # three collinear points: geodesic through the origin realizes path-tree distances
    r = 0.4
    pts = np.array([[0.0, 0.0], [np.tanh(r), 0.0], [-np.tanh(r), 0.0]])
    td = np.array([[0.0, 2 * r, 2 * r], [2 * r, 0.0, 4 * r], [2 * r, 4 * r, 0.0]])
    mx, mean = tree_distortion(td, pts, 1.0)
    assert mx < 1e-12
    assert mean < 1e-12


def test_tree_distortion_two_leaves_oracle():
    r = 0.3
    c = Curvature(1.0)
    p1 = PoincarePoint([np.tanh(r), 0.0], c)
    p2 = PoincarePoint([-np.tanh(r), 0.0], c)
    td = np.array([[0.0, 2 * r], [2 * r, 0.0]])
    d_ball = geom.distance(p1, p2, c)
    mx, mean = tree_distortion(td, np.stack([p1.coords, p2.coords]), c)
    assert mx == pytest.approx(abs(2 * r - d_ball), abs=1e-12)
    assert mean == pytest.approx(abs(2 * r - d_ball), abs=1e-12)


def test_tree_distortion_stress_descent_reported():
    # random binary tree, embedded by gradient descent on stress over tangent points
    rng = np.random.default_rng(8)
    parents = [None]
    for i in range(1, 29):
        parents.append(rng.integers(0, i))
    n = len(parents)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i in range(1, n):
        dist[i, parents[i]] = dist[parents[i], i] = 1.0
    for k in range(n):  # Floyd-Warshall on the small tree
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    y = rng.standard_normal((n, 2)) * 0.1
    iu, ju = np.triu_indices(n, k=1)
    target = Tensor(dist[iu, ju])
    for _ in range(150):
        with Tape() as tape:
            t = Tensor(y)
            z = geom.exp0_rows(t, 1.0)
            d = geom.distance_rows(T.take_rows(z, iu), T.take_rows(z, ju), 1.0)
            loss = T.mean_all(T.mul(T.sub(d, target), T.sub(d, target)))
        y = y - 0.05 * tape.backward(loss).wrt(t)
    mx, mean = tree_distortion(dist, geom.exp0_rows(Tensor(y), 1.0).data, 1.0)
    assert np.isfinite(mx) and np.isfinite(mean)
    assert 0.0 < mean < mx
    assert mx < np.max(dist)  # better than collapsing everything to one point


def test_tree_distortion_errors():
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError):
        tree_distortion(np.array([[0.0, 1.0], [2.0, 0.0]]), pts, 1.0)  # asymmetric
    with pytest.raises(ValueError):
        tree_distortion(np.array([[1.0, 1.0], [1.0, 0.0]]), pts, 1.0)  # nonzero diagonal
    with pytest.raises(ValueError):
        tree_distortion(np.zeros((3, 3)), pts, 1.0)  # count mismatch
