"""The all-pairs ops and the uniformities, pinned to the bit and bounded in memory.

The reference functions below are plain-numpy copies of the formulas the
ops and the log-mean-exp tail were first written with: every numpy call
in the same order.  The library must give the same bytes, value and
gradient, on batches with equal rows, zero rows, -0.0 entries and rows at
the eps cap.  The memory test bounds what one naive-uniformity loss and
its backward sweep hold at once, counted in n x n float buffers.
"""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ball_batch
from hypergcl import geometry as geom
from hypergcl import tensor as T
from hypergcl.losses import LossWeights, euclidean_align_uniform, total_loss, uniformity_hyperbolic_naive
from hypergcl.tensor import Tape, Tensor

PINNED = settings(derandomize=True, database=None, deadline=None, max_examples=24)


# ------------------------------------------------------------ reference

def ref_pair_delta(z):
    s = np.add.reduce(z * z, axis=1)
    delta = np.einsum("ik,jk->ij", z, z)
    delta *= -2.0
    delta += s[:, None]
    delta += s
    np.maximum(delta, 0.0, out=delta)
    np.fill_diagonal(delta, 0.0)
    rows = np.ascontiguousarray(z + 0.0)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    _, label, count = np.unique(keys, return_inverse=True, return_counts=True)
    dup = np.flatnonzero(count[label] > 1)
    if dup.size:
        i, j = np.nonzero(label[dup, None] == label[dup])
        delta[dup[i], dup[j]] = 0.0
    return delta


def ref_pair_delta_vjp(z, p, ds):
    sym = p + p.T
    rows = np.add.reduce(sym, axis=1)
    rows += ds
    gz = rows[:, None] * z
    gz -= sym @ z
    gz *= 2.0
    return gz


def ref_pair_sqdist(z):
    """(n*n, 1) column of squared distances and its VJP."""
    delta = ref_pair_delta(z)

    def vjp(g):
        p = g.reshape(delta.shape) * (delta > 0.0)
        return ref_pair_delta_vjp(z, p, 0.0)

    return delta.reshape(-1, 1), vjp


def ref_ball_pair_distances(z, c):
    """(n*n, 1) column of Poincare-ball distances and its VJP."""
    a = 1.0 - c * np.add.reduce(z * z, axis=1)
    aa = np.multiply.outer(a, a)
    w = 2.0 * c * ref_pair_delta(z)
    w /= aa
    root = w + 2.0
    root *= w
    np.sqrt(root, out=root)
    sc = np.sqrt(c)
    dist = w + root
    np.log1p(dist, out=dist)
    dist /= sc

    def vjp(g):
        q = np.divide(g.reshape(w.shape), root, out=np.zeros_like(w), where=root > 0.0)
        q /= sc
        r = q * w
        ds = (c / a) * (np.add.reduce(r, axis=1) + np.add.reduce(r, axis=0))
        q *= 2.0 * c
        q /= aa
        return ref_pair_delta_vjp(z, q, ds)

    return dist.reshape(-1, 1), vjp


def ref_log_mean_exp_pairs(col, n, t, g):
    """log E exp(-t x) over the pairs i != j, and its gradient for an upstream g."""
    idx = np.arange(n * n).reshape(n, n)[~np.eye(n, dtype=bool)]
    k = -float(t)
    y = np.exp(col[idx] * k)
    m = np.asarray(np.add.reduce(y, axis=None) / y.size)
    gx = np.full(y.shape, float(g / m) / y.size) * y * k
    gcol = np.zeros(n * n)
    np.add.at(gcol, idx, gx.ravel())
    return np.log(m), gcol.reshape(-1, 1)


# -------------------------------------------------------------- batches

def _batch(n, d, c, seed, equal, zero, negzero, capped):
    """Rows inside the ball at curvature c, with the requested degenerate rows."""
    rng = np.random.default_rng(seed)
    z = ball_batch(rng, n, d, c=c)
    if zero:
        z[rng.random(n) < 0.3] = 0.0
    if negzero:
        z[rng.random(z.shape) < 0.2] = -0.0
    if capped:
        rows = rng.random(n) < 0.3
        z[rows] = geom.project_rows(Tensor(z[rows] * 1e6 + 1e-3), c, geom.BALL_MARGIN).data
    if equal:
        z[rng.integers(0, n, n // 3 + 1)] = z[rng.integers(0, n)]
    return z


@st.composite
def batches(draw, views=1, zero_rows=True):
    """(c, view, ...): `views` batches of one shape and one set of degenerate rows.

    With zero_rows False, any row left all zero is set to 0.5 so that the
    batch can be L2-normalized.
    """
    n, d = draw(st.sampled_from([2, 13, 364])), draw(st.sampled_from([1, 3, 16]))
    c = draw(st.sampled_from([1.0, 0.5]))
    flags = {"equal": draw(st.booleans()), "zero": zero_rows and draw(st.booleans()),
             "negzero": draw(st.booleans()), "capped": draw(st.booleans())}
    zs = [_batch(n, d, c, draw(st.integers(0, 2**32 - 1)), **flags) for _ in range(views)]
    if not zero_rows:
        for z in zs:
            z[np.add.reduce(z * z, axis=1) == 0.0] = 0.5
    return (c, *zs)


def _same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- tests

@PINNED
@given(batches(), st.integers(0, 2**32 - 1))
def test_pair_ops_match_the_reference_to_the_bit(batch, wseed):
    c, z = batch
    w = np.random.default_rng(wseed).standard_normal((z.shape[0] ** 2, 1))
    for op, ref in ((T.pair_sqdist, ref_pair_sqdist),
                    (lambda x: T.ball_pair_distances(x, c), lambda x: ref_ball_pair_distances(x, c))):
        x = Tensor(z)
        with Tape() as tape:
            out = op(x)
            loss = T.sum_all(T.mul(out, Tensor(w)))
        value, vjp = ref(z)
        assert _same_bytes(out.data, value)
        assert _same_bytes(tape.backward(loss).wrt(x), vjp(w))


@PINNED
@given(batches(), st.sampled_from([0.7, 2.0, 5.0]))
def test_naive_uniformity_matches_the_reference_to_the_bit(batch, t):
    c, z = batch
    x = Tensor(z)
    with Tape() as tape:
        u = uniformity_hyperbolic_naive(x, t, c)
    col, vjp = ref_ball_pair_distances(z, c)
    value, gcol = ref_log_mean_exp_pairs(col, z.shape[0], t, np.ones(()))
    assert _same_bytes(u.data, value)
    assert _same_bytes(tape.backward(u).wrt(x), vjp(gcol))


@PINNED
@given(batches(views=2, zero_rows=False), st.sampled_from([2.0, 3.0]))
def test_euclidean_uniformity_matches_the_reference_to_the_bit(batch, t):
    _, z, zp = batch
    zt, zpt = Tensor(z), Tensor(zp)
    with Tape() as tape:
        _, uniform = euclidean_align_uniform(zt, zpt, t)
    grads = tape.backward(uniform)

    # The row normalization is the library's taped ops; the pair op and the
    # tail are the reference.  uniform = (u + u') / 2 hands each tail 0.5.
    rt, rpt = Tensor(z), Tensor(zp)
    with Tape() as ref_tape:
        x = T.rowscale(rt, T.vrecip(T.rownorm(rt)))
        xp = T.rowscale(rpt, T.vrecip(T.rownorm(rpt)))
    values, gxs = [], []
    for view in (x, xp):
        col, vjp = ref_pair_sqdist(view.data)
        value, gcol = ref_log_mean_exp_pairs(col, z.shape[0], t, np.ones(()) * 0.5)
        values.append(value)
        gxs.append(vjp(gcol))
    with ref_tape:  # the gradient reaching x is gxs[0] exactly, since 1.0 * g == g
        sweep = T.add(T.sum_all(T.mul(x, Tensor(gxs[0]))), T.sum_all(T.mul(xp, Tensor(gxs[1]))))
    ref_grads = ref_tape.backward(sweep)
    assert _same_bytes(uniform.data, (values[0] + values[1]) * 0.5)
    assert _same_bytes(grads.wrt(zt), ref_grads.wrt(rt))
    assert _same_bytes(grads.wrt(zpt), ref_grads.wrt(rpt))


def test_naive_loss_and_backward_hold_at_most_eleven_pair_buffers():
    # One hyperbolic-naive-uniformity loss on two 364 x 16 views plus its
    # backward sweep.  The pair ops, the diagonal gather and the log-mean-exp
    # tail each keep one n x n array per view until the sweep, and the sweep
    # frees each as it passes; the peak is about 10.3 buffers.  Holding the
    # root, a_i a_j and the four-op tail's arrays as well peaked at 16.3.
    # tracemalloc counts every numpy allocation, so the figure is exact.
    n, d = 364, 16
    rng = np.random.default_rng(0)
    z, zp = ball_batch(rng, n, d), ball_batch(rng, n, d)
    z[rng.random(n) < 0.1] = 0.0  # node dropping leaves zero rows

    def step():
        x, xp = Tensor(z), Tensor(zp)
        with Tape() as tape:
            loss = total_loss(x, xp, LossWeights(3.0, 2.0), 1.0, "hyperbolic-naive-uniformity")
        tape.backward(loss).wrt(x)

    step()  # caches the pair index outside the measurement
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n buffers"
