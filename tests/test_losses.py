"""Loss terms: oracles, gradients, optimization behavior, variant wiring."""
import numpy as np
import pytest

from helpers import ball_batch, spearman
from hypergcl import geometry as geom
from hypergcl import losses
from hypergcl import tensor as T
from hypergcl.losses import (
    LossWeights,
    VARIANTS,
    alignment_hyperbolic,
    euclidean_align_uniform,
    isotropy_tangent,
    total_loss_parts,
    uniformity_hyperbolic_naive,
)
from hypergcl.spectral import effective_rank, gaussian_kl, tangent_moments
from hypergcl.tensor import Tape, Tensor, finite_diff_check


def exact_moment_views(rng, n, d, scale=1.0):
    """Tangent batch with sample mean exactly 0 and covariance exactly scale^2 I."""
    y = rng.standard_normal((n, d))
    y -= y.mean(axis=0)
    cov = y.T @ y / n
    y = y @ np.linalg.inv(np.linalg.cholesky(cov)).T * scale
    return geom.exp0_rows(Tensor(y), 1.0).data


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_u=-0.1)
    with pytest.raises(ValueError):
        LossWeights(t=0.0)


def test_alignment_zero_on_equal_views():
    rng = np.random.default_rng(0)
    z = ball_batch(rng, 10, 4)
    assert float(alignment_hyperbolic(z, z, 1.0)) == 0.0


def test_alignment_single_pair_distance_oracle():
    z = np.array([[0.5, 0.0]])
    zp = np.array([[-0.5, 0.0]])
    r = 0.8  # 1-D Moebius norm of -z (+) z'
    expected = 2.0 * 0.5 * np.log((1 + r) / (1 - r))
    assert float(alignment_hyperbolic(z, zp, 1.0)) == pytest.approx(expected, abs=1e-12)


def test_alignment_symmetry_and_gradient():
    rng = np.random.default_rng(1)
    z = ball_batch(rng, 8, 3)
    zp = ball_batch(rng, 8, 3)
    assert float(alignment_hyperbolic(z, zp, 1.0)) == pytest.approx(
        float(alignment_hyperbolic(zp, z, 1.0)), abs=1e-12
    )
    err = finite_diff_check(lambda t: alignment_hyperbolic(t, Tensor(zp), 1.0), z)
    assert err < 1e-5


def test_alignment_batch_mismatch():
    with pytest.raises(ValueError):
        alignment_hyperbolic(np.zeros((3, 2)), np.zeros((4, 2)), 1.0)


def test_isotropy_zero_at_exact_unit_moments():
    rng = np.random.default_rng(2)
    z = exact_moment_views(rng, 24, 3)
    zp = exact_moment_views(rng, 24, 3)
    assert float(isotropy_tangent(z, zp, 1.0)) == pytest.approx(0.0, abs=1e-9)


def test_isotropy_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    z = exact_moment_views(rng, 30, 2, scale=np.sqrt(2.0))
    zp = exact_moment_views(rng, 30, 2, scale=np.sqrt(2.0))
    expected = 4.0 * (2.0 - np.log(2.0) - 1.0)
    assert float(isotropy_tangent(z, zp, 1.0)) == pytest.approx(expected, abs=1e-4)


def test_isotropy_is_sum_of_two_kls():
    rng = np.random.default_rng(4)
    z = ball_batch(rng, 12, 3)
    zp = ball_batch(rng, 12, 3)
    total = float(isotropy_tangent(z, zp, 1.0))
    parts = gaussian_kl(tangent_moments(z, 1.0)) + gaussian_kl(tangent_moments(zp, 1.0))
    assert total == parts


def test_isotropy_gradient():
    rng = np.random.default_rng(5)
    z = ball_batch(rng, 8, 3)
    zp = Tensor(ball_batch(rng, 8, 3))
    err = finite_diff_check(lambda t: isotropy_tangent(t, zp, 1.0), z)
    assert err < 1e-5


def test_isotropy_minimization_raises_erank():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((40, 8)) * 0.15
    y[:, 4:] *= 0.02  # anisotropic start
    yp = y + 0.01 * rng.standard_normal(y.shape)
    eranks = []
    for _ in range(200):
        with Tape() as tape:
            a = Tensor(y)
            b = Tensor(yp)
            loss = isotropy_tangent(geom.exp0_rows(a, 1.0), geom.exp0_rows(b, 1.0), 1.0)
        g = T.backward(tape, loss)
        y = y - 0.02 * g.wrt(a)
        yp = yp - 0.02 * g.wrt(b)
        eranks.append(effective_rank(geom.exp0_rows(Tensor(y), 1.0).data))
    assert spearman(np.arange(len(eranks)), eranks) > 0.9
    assert eranks[-1] > eranks[0]


def test_naive_uniformity_identical_points():
    z = np.tile(np.array([[0.3, 0.1]]), (6, 1))
    assert float(uniformity_hyperbolic_naive(z, 1.0, 1.0)) == 0.0


def test_naive_uniformity_two_point_value():
    p = np.array([[0.9, 0.0], [-0.9, 0.0]])
    d = float(geom.distance_rows(Tensor(p[:1]), Tensor(p[1:]), 1.0).data[0])
    assert float(uniformity_hyperbolic_naive(p, 1.0, 1.0)) == pytest.approx(-d, abs=1e-12)


def test_naive_uniformity_monotone_in_spread():
    rng = np.random.default_rng(7)
    z = ball_batch(rng, 10, 2, max_radius=0.3)
    tight = float(uniformity_hyperbolic_naive(z, 2.0, 1.0))
    spread = float(uniformity_hyperbolic_naive(z * 2.5, 2.0, 1.0))
    assert spread < tight


def test_naive_uniformity_pushes_points_to_boundary():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((16, 4)) * 0.2
    eps = 1e-5
    for _ in range(400):
        with Tape() as tape:
            a = Tensor(z)
            proj = geom.project_rows(a, 1.0)
            loss = uniformity_hyperbolic_naive(proj, 1.0, 1.0)
        z = z - 0.05 * T.backward(tape, loss).wrt(a)
    norms = np.linalg.norm(geom.project_rows(Tensor(z), 1.0).data, axis=1)
    assert norms.mean() > 0.99 * (1.0 - eps)


def test_naive_uniformity_needs_two_rows():
    with pytest.raises(ValueError):
        uniformity_hyperbolic_naive(np.zeros((1, 2)), 1.0, 1.0)


def test_euclidean_align_zero_and_orthonormal_uniformity():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((6, 4))
    align, _ = euclidean_align_uniform(z, z, 2.0)
    assert float(align) == 0.0
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    align, uniform = euclidean_align_uniform(rows, rows, 2.0)
    # single distinct pair: ||u - v||^2 = 2, log exp(-2*2) = -4
    assert float(uniform) == pytest.approx(-4.0, abs=1e-12)


def test_euclidean_rows_are_normalized_internally():
    z = np.array([[2.0, 0.0], [0.0, 5.0]])
    zp = np.array([[4.0, 0.0], [0.0, 1.0]])
    align, _ = euclidean_align_uniform(z, zp, 1.0)
    assert float(align) == pytest.approx(0.0, abs=1e-15)


def test_euclidean_zero_rows_normalize_to_zero_with_zero_gradient():
    # node dropping leaves zero rows: they stay zero and pass no gradient,
    # the rule of rownorm's zero lane
    z = Tensor(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]]))
    zp = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    with Tape() as tape:
        x = losses._normalize_rows(z)
        align, uniform = euclidean_align_uniform(z, zp, 2.0)
        loss = T.add(align, uniform)
    assert np.array_equal(x.data[0], [0.0, 0.0])
    assert np.allclose(x.data[1:], [[0.6, 0.8], [0.0, 1.0]], rtol=0.0, atol=1e-15)
    assert np.isfinite(float(loss))
    grads = T.backward(tape, loss)
    gz, gzp = grads.wrt(z), grads.wrt(zp)
    assert np.array_equal(gz[0], [0.0, 0.0]) and np.array_equal(gzp[1], [0.0, 0.0])
    assert np.all(np.any(gz[1:] != 0.0, axis=1)) and np.all(np.any(gzp[[0, 2]] != 0.0, axis=1))


def test_euclidean_gradient():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((6, 3))
    zp = Tensor(rng.standard_normal((6, 3)))

    def f(t):
        align, uniform = euclidean_align_uniform(t, zp, 2.0)
        return T.add(align, uniform)

    assert finite_diff_check(f, z) < 1e-5


def test_total_loss_variants():
    rng = np.random.default_rng(10)
    z = ball_batch(rng, 12, 4)
    zp = ball_batch(rng, 12, 4)
    w = LossWeights(lambda_u=1.0, t=2.0)
    for variant in VARIANTS:
        val = float(total_loss_parts(z, zp, w, 1.0, variant)[0])
        assert np.isfinite(val)
    with pytest.raises(ValueError):
        total_loss_parts(z, zp, w, 1.0, "nope")


def test_total_loss_align_only_equal_views():
    rng = np.random.default_rng(11)
    z = ball_batch(rng, 6, 3)
    w = LossWeights()
    assert float(total_loss_parts(z, z, w, 1.0, "hyperbolic-align-only")[0]) == 0.0


def test_total_loss_lambda_zero_is_alignment():
    rng = np.random.default_rng(12)
    z = ball_batch(rng, 8, 3)
    zp = ball_batch(rng, 8, 3)
    w0 = LossWeights(lambda_u=0.0, t=2.0)
    for variant in ("hypergcl", "hyperbolic-naive-uniformity", "hyperbolic-align-only"):
        assert float(total_loss_parts(z, zp, w0, 1.0, variant)[0]) == float(
            alignment_hyperbolic(z, zp, 1.0)
        )
    total, align, _ = total_loss_parts(z, zp, w0, 1.0, "euclidean")
    assert float(total) == float(align)


def test_total_loss_hypergcl_reduces_to_alignment_at_unit_moments():
    rng = np.random.default_rng(13)
    z = exact_moment_views(rng, 24, 3)
    zp = exact_moment_views(rng, 24, 3)
    w = LossWeights(lambda_u=1.0, t=2.0)
    total = float(total_loss_parts(z, zp, w, 1.0, "hypergcl")[0])
    align = float(alignment_hyperbolic(z, zp, 1.0))
    assert total == pytest.approx(align, abs=1e-9)


def test_full_objective_gradient_on_small_graph():
    # end-to-end check: both augmented views through the encoder into the
    # combined objective, differentiated w.r.t. the first weight matrix
    from hypergcl.graphnet import AugmentationConfig, Graph, augment, encode, init_params

    rng = np.random.default_rng(14)
    n = 8
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.4
    g = Graph(n, np.column_stack([iu[keep], ju[keep]]), rng.standard_normal((n, 3)))
    g1 = augment(g, AugmentationConfig(0.2, 0.1, seed=5))
    g2 = augment(g, AugmentationConfig(0.2, 0.1, seed=6))
    params0 = init_params(3, 4, 2, seed=15, scale=0.5)
    w = LossWeights(lambda_u=1.0, t=2.0)

    def f(theta1):
        p = init_params(3, 4, 2, seed=15, scale=0.5)
        p.theta1 = theta1
        z1 = encode(g1, p, 1.0)
        z2 = encode(g2, p, 1.0)
        return total_loss_parts(z1, z2, w, 1.0, "hypergcl")[0]

    assert finite_diff_check(f, params0.theta1.data) < 1e-5


def test_alignment_only_collapse_of_free_points():
    # random re-pairing realizes the constant-embedding failure mode: with
    # fresh partners each step, minimizing alignment alone drives every
    # point into one cluster and the embedding matrix to effective rank ~1.
    rng = np.random.default_rng(5)
    center = np.full(8, 0.15)
    z = center + rng.standard_normal((32, 8)) * 0.1
    zp = center + rng.standard_normal((32, 8)) * 0.1
    for step in range(500):
        perm = np.random.default_rng(step).permutation(32)
        with Tape() as tape:
            a = Tensor(z)
            b = Tensor(zp)
            loss = alignment_hyperbolic(a, T.take_rows(b, perm), 1.0)
        g = T.backward(tape, loss)
        z = z - 0.05 * g.wrt(a)
        zp = zp - 0.05 * g.wrt(b)
    assert effective_rank(z) <= 1.2
