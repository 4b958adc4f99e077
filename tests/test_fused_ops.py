"""The fused tape ops against the primitive-op chains they record as one node.

Each `chain_*` below is the chain as the losses ran it op by op; the fused
op must give the same value and the same gradients to the bit, and must
raise `NonFiniteError` wherever the chain raised it.
"""
import json
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import ball_batch, bench
from hypergcl import cli
from hypergcl import tensor as T
from hypergcl.tensor import ARTANH_CLAMP, NonFiniteError, Tape, Tensor, backward


# ------------------------------------------------------------ the chains

def chain_mobius_add(u, v, c):
    c = float(c)
    uv = T.rowdot(u, v)
    u2 = T.rownorm2(u)
    v2 = T.rownorm2(v)
    coef_u = T.sadd(T.add(T.smul(uv, 2.0 * c), T.smul(v2, c)), 1.0)
    coef_v = T.sadd(T.smul(u2, -c), 1.0)
    den = T.sadd(T.add(T.smul(uv, 2.0 * c), T.smul(T.mul(u2, v2), c * c)), 1.0)
    num = T.add(T.rowscale(u, coef_u), T.rowscale(v, coef_v))
    return T.rowscale(num, T.vrecip(den))


def _artanh_scaled(n, sc):
    return T.artanh(T.clip(T.smul(n, sc), 0.0, ARTANH_CLAMP))


def chain_origin_distance(m, c):
    sc = float(np.sqrt(c))
    return T.smul(_artanh_scaled(T.rownorm(m), sc), 2.0 / sc)


def chain_log0(z, c):
    sc = float(np.sqrt(c))
    n = T.rownorm(z)
    zero = n.data == 0.0
    n_safe = T.where(~zero, n, Tensor(np.ones_like(n.data)))
    f = T.vdiv(_artanh_scaled(n_safe, sc), T.smul(n_safe, sc))
    return T.rowscale(z, T.where(~zero, f, Tensor(np.ones_like(n.data))))


def chain_covariance(y, mu):
    centered = T.sub_rowvec(y, mu)
    return T.smul(T.matmul(T.transpose(centered), centered), 1.0 / y.data.shape[0])


def chain_gaussian_match(s, ld, mu, mean, diag, fork=True):
    """The general-target chain; with `fork`, the default one at m = 0 and D = I."""
    d = mu.data.shape[0]
    diag = np.ones(d) if diag is None else np.asarray(diag, dtype=float)
    if fork and mean == 0.0 and np.all(diag == 1.0):
        return T.sadd(T.add(T.add(T.trace(s), T.neg(ld)), T.dot(mu, mu)), -float(d))
    inv_diag = 1.0 / diag
    scaled = T.rowscale(s, Tensor(inv_diag))
    delta = T.sadd(mu, -float(mean))
    quad = T.dot(delta, T.mul(Tensor(inv_diag), delta))
    out = T.add(T.add(T.trace(scaled), T.neg(ld)), quad)
    return T.sadd(out, float(np.sum(np.log(diag))) - float(d))


FUSED = SimpleNamespace(
    mobius_add=T.mobius_add, origin_distance=T.origin_distance, log0=T.log0, covariance=T.covariance,
    gaussian_match=T.gaussian_match,
)
CHAINS = SimpleNamespace(
    mobius_add=chain_mobius_add, origin_distance=chain_origin_distance, log0=chain_log0,
    covariance=chain_covariance, gaussian_match=chain_gaussian_match,
)


# ------------------------------------------------------------ the cases

def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _rows(kind, rng, n, d, c):
    """Ball rows of one regime at curvature c."""
    sc = np.sqrt(c)
    z = ball_batch(rng, n, d, c=c, max_radius=0.9)
    if kind == "zero-rows":
        z[[0, 3]] = 0.0
    elif kind == "at-cap":
        u = rng.standard_normal((n, d))
        z = u / np.linalg.norm(u, axis=1, keepdims=True) * ((1.0 - 1e-5) / sc)
        z[2] = 0.0
    return z


def _gaussian_inputs(rng, d):
    a = rng.standard_normal((d + 3, d))
    return a.T @ a / (d + 3), rng.standard_normal(d)


# name -> (op of one implementation and the leaves, leaves)
def _case(op, kind, c, target):
    rng = np.random.default_rng(7)
    n, d = 6, 4
    if op == "mobius_add":
        return (lambda impl, u, v: impl.mobius_add(u, v, c)), [-_rows(kind, rng, n, d, c), _rows(kind, rng, n, d, c)]
    if op == "mobius_add-same-input":
        return (lambda impl, u: impl.mobius_add(u, u, c)), [_rows(kind, rng, n, d, c)]
    if op == "origin_distance":
        m = _rows(kind, rng, n, d, c)
        m[1] *= 1.0 / (1.0 - 1e-5)  # at the boundary, beyond the artanh clamp
        return (lambda impl, x: impl.origin_distance(x, c)), [m]
    if op == "log0":
        return (lambda impl, z: impl.log0(z, c)), [_rows(kind, rng, n, d, c)]
    if op == "covariance":
        y = T.log0(Tensor(_rows(kind, rng, n, d, c)), c).data
        return (lambda impl, x: impl.covariance(x, T.batch_mean(x))), [y]
    sigma, mu = _gaussian_inputs(rng, d)
    mean, diag = target

    def match(impl, sg, m):
        s = T.add_diag(sg, 1e-6)
        return impl.gaussian_match(s, T.logdet(s), m, mean, diag)

    return match, [sigma, mu]


def _run(impl, fn, arrays, prior):
    """Output and leaf gradients of sum(out * W); with `prior`, every leaf
    already holds a gradient (from a term recorded after the op) when the
    op is swept.  That gradient is of the partials' size, so the order in
    which they are added onto it shows in the bits."""
    rng = np.random.default_rng(11)
    leaves = [Tensor(a) for a in arrays]
    with Tape() as tape:
        out = fn(impl, *leaves)
        loss = T.sum_all(T.mul(out, Tensor(rng.standard_normal(out.data.shape))))
        if prior:
            for leaf in leaves:
                loss = T.add(loss, T.sum_all(T.mul(leaf, Tensor(rng.standard_normal(leaf.data.shape)))))
    grads = backward(tape, loss)
    return out.data, [grads.wrt(t) for t in leaves]


ROW_OPS = ["mobius_add", "mobius_add-same-input", "origin_distance", "log0", "covariance"]
ROW_CASES = [(kind, c) for kind in ("interior", "zero-rows", "at-cap") for c in (1.0, 0.3, 2.5)]
TARGETS = [(0.0, None), (0.0, np.ones(4)), (0.5, None), (0.0, np.array([0.01, 1.0, 1.0, 0.01])),
           (-0.3, np.array([0.5, 2.0, 1.5, 0.25]))]


@pytest.mark.parametrize("prior", [False, True], ids=["fresh-inputs", "inputs-hold-a-gradient"])
@pytest.mark.parametrize("kind,c", ROW_CASES)
@pytest.mark.parametrize("op", ROW_OPS)
def test_row_ops_match_their_chain_to_the_bit(op, kind, c, prior):
    fn, arrays = _case(op, kind, c, None)
    value, grads = _run(FUSED, fn, arrays, prior)
    ref_value, ref_grads = _run(CHAINS, fn, arrays, prior)
    assert _same_bits(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert _same_bits(g, ref)
        assert np.all(np.isfinite(g))


@pytest.mark.parametrize("prior", [False, True], ids=["fresh-inputs", "inputs-hold-a-gradient"])
@pytest.mark.parametrize("target", TARGETS, ids=["unit", "unit-diag", "mean-0.5", "degraded-diag", "mean-and-diag"])
def test_gaussian_match_matches_its_chain_to_the_bit(target, prior):
    fn, arrays = _case("gaussian_match", "interior", 1.0, target)
    value, grads = _run(FUSED, fn, arrays, prior)
    # The default chain gives mu its two partials of mu.mu in two slots, the
    # general chain and the fused op in one.  The sums agree while mu holds no
    # other gradient, which is how `gaussian_kl_tensors` records it; onto a
    # held gradient the fused op sums as the general chain does.
    chain = CHAINS if not prior else SimpleNamespace(
        gaussian_match=lambda *args: chain_gaussian_match(*args, fork=False))
    ref_value, ref_grads = _run(chain, fn, arrays, prior)
    assert _same_bits(value, ref_value)
    assert all(_same_bits(g, ref) for g, ref in zip(grads, ref_grads))


# -------------------------------------------------------- non-finite states

NONFINITE = {
    # u2 * v2 overflows in the denominator; 1/den would read 0
    "mobius_add-den-overflow": ("mobius_add", lambda impl: impl.mobius_add(
        Tensor([[1e100, 0.0]]), Tensor([[0.0, 1e100]]), 1.0)),
    # u2 overflows, and with it coef_v
    "mobius_add-norm-overflow": ("mobius_add", lambda impl: impl.mobius_add(
        Tensor([[1e200, 1.0]]), Tensor([[0.5, 0.5]]), 1.0)),
    # den = (1 + <u, v>)^2 = 0
    "mobius_add-zero-den": ("mobius_add", lambda impl: impl.mobius_add(Tensor([[2.0]]), Tensor([[-0.5]]), 1.0)),
    # the row norm overflows; the clamp would hide it
    "origin_distance-norm-overflow": ("origin_distance", lambda impl: impl.origin_distance(
        Tensor([[1e200, 1e200], [0.1, 0.0]]), 1.0)),
    # sqrt(c) * norm overflows
    "origin_distance-scaled-overflow": ("origin_distance", lambda impl: impl.origin_distance(
        Tensor([[1e160, 0.0]]), 1e300)),
    "log0-norm-overflow": ("log0", lambda impl: impl.log0(Tensor([[1e200, 1e200], [0.0, 0.0]]), 1.0)),
    "log0-scaled-overflow": ("log0", lambda impl: impl.log0(Tensor([[1e160, 0.0]]), 1e300)),
    "covariance-overflow": ("covariance", lambda impl: impl.covariance(
        Tensor([[1e200, 0.0], [-1e200, 1.0]]), Tensor([0.0, 0.5]))),
    # the rows of S scaled by 1/diag overflow off the diagonal, which the trace never reads
    "gaussian_match-scaled-overflow": ("gaussian_match", lambda impl: impl.gaussian_match(
        Tensor([[1.0, 1e300], [1e300, 1.0]]), Tensor(0.0), Tensor([0.0, 0.0]), 0.0, np.array([1e-10, 1.0]))),
    "gaussian_match-quad-overflow": ("gaussian_match", lambda impl: impl.gaussian_match(
        Tensor(np.eye(2)), Tensor(0.0), Tensor([1e200, 0.0]), 0.0, None)),
}


@pytest.mark.parametrize("name", sorted(NONFINITE))
def test_fused_ops_raise_where_their_chain_raises(name):
    op, call = NONFINITE[name]
    with pytest.raises(NonFiniteError):
        call(CHAINS)
    with pytest.raises(NonFiniteError, match=f"^op '{op}' produced non-finite values$"):
        call(FUSED)


# ----------------------------------------------------- a run with the chains

def test_acceptance_run_with_the_chains_patched_in_writes_the_same_bytes(tmp_path, monkeypatch):
    config = bench.workload_config("tree121-hypergcl", 0)
    config["optimizer"]["steps"] = 30
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = {}
    for name, impl in (("fused", FUSED), ("chains", CHAINS)):
        with monkeypatch.context() as patch:
            for op in vars(impl):
                patch.setattr(T, op, getattr(impl, op))
            assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        outs[name] = tmp_path / name
    for fname in ("trace.csv", "embeddings.csv", "params.json"):
        assert (outs["fused"] / fname).read_bytes() == (outs["chains"] / fname).read_bytes(), fname
