"""Linear-algebra kernels.

The hand-written Cholesky and inverse are checked against numpy's LAPACK
routines; the LAPACK-backed singular values are checked against their
contract (ordering, sign, invariants), since comparing them with numpy
would compare numpy with itself.
"""
import numpy as np
import pytest

from hypergcl.linalg import NotSPDError, cholesky, jacobi_svd_values, spd_inverse


@pytest.mark.parametrize("d", [1, 2, 5, 16, 40])
def test_cholesky_matches_numpy(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    spd = a @ a.T + d * np.eye(d)
    assert np.allclose(cholesky(spd), np.linalg.cholesky(spd), atol=1e-10)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotSPDError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSPDError):
        cholesky(np.zeros((3, 3)))


def test_spd_inverse():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8))
    spd = a @ a.T + 8 * np.eye(8)
    assert np.allclose(spd_inverse(cholesky(spd)), np.linalg.inv(spd), atol=1e-10)


@pytest.mark.parametrize("d", [1, 2, 16, 40])
def test_spd_inverse_residual(d):
    rng = np.random.default_rng(d + 50)
    a = rng.standard_normal((d, d))
    spd = a @ a.T + d * np.eye(d)
    inv = spd_inverse(cholesky(spd))
    assert np.array_equal(inv, inv.T)
    assert np.max(np.abs(spd @ inv - np.eye(d))) < 1e-12


@pytest.mark.parametrize("shape", [(5, 5), (12, 4), (4, 12), (30, 7)])
def test_jacobi_svd_values_contract(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape)
    s = jacobi_svd_values(m)
    assert s.shape == (min(shape),)
    assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
    # the squared singular values sum to the squared Frobenius norm
    assert np.sum(s * s) == pytest.approx(np.sum(m * m), rel=1e-12)
    with pytest.raises(ValueError):
        jacobi_svd_values(m.ravel())


def test_jacobi_svd_rank_deficient():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((10, 2))
    v = rng.standard_normal((2, 6))
    m = u @ v  # rank 2
    s = jacobi_svd_values(m)
    assert s[1] > 1e-3
    assert np.allclose(s[2:], 0.0, atol=1e-10)


@pytest.mark.parametrize(
    "pos, val",
    [((0, 0), np.nan), ((1, 1), np.inf), ((2, 0), np.nan), ((2, 1), np.inf), ((1, 0), -np.inf)],
)
def test_cholesky_rejects_nonfinite(pos, val):
    a = np.eye(3) * 4.0
    a[pos] = a[pos[::-1]] = val
    with pytest.raises(NotSPDError):
        cholesky(a)
