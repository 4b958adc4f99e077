"""Tape engine: forward semantics, backward correctness, error states."""
import warnings
import weakref

import numpy as np
import pytest

from helpers import ball_batch, dense, exact_ball_distance
from hypergcl import geometry as geom
from hypergcl import tensor as T
from hypergcl.linalg import NotSPDError, cholesky
from hypergcl.tensor import (
    NonFiniteError,
    SparseMatrix,
    Tape,
    Tensor,
    backward,
    finite_diff_check,
)


def test_square_gradient():
    with Tape() as tape:
        x = Tensor(3.0)
        y = T.mul(x, x)
    assert backward(tape, y).wrt(x) == pytest.approx(6.0)


def test_fanout_accumulation():
    u0 = np.array([1.0, -2.0, 0.5])
    with Tape() as tape:
        u = Tensor(u0)
        y = T.dot(u, u)
    assert np.allclose(backward(tape, y).wrt(u), 2.0 * u0)


def test_matmul_identity():
    x = np.arange(12.0).reshape(4, 3)
    out = T.matmul(Tensor(np.eye(4)), Tensor(x))
    assert np.array_equal(out.data, x)


def test_logdet_identity_and_diag():
    assert float(T.logdet(Tensor(np.eye(5)))) == pytest.approx(0.0, abs=1e-14)
    # oracle: product of eigenvalues
    expected = float(np.sum(np.log(np.linalg.eigvalsh(np.diag([2.0, 3.0])))))
    assert float(T.logdet(Tensor(np.diag([2.0, 3.0])))) == pytest.approx(expected, abs=1e-12)
    assert float(T.logdet(Tensor(np.diag([2.0, 3.0])))) == pytest.approx(np.log(6.0), abs=1e-12)


def test_trace_minus_logdet_stationary_at_identity():
    with Tape() as tape:
        s = Tensor(np.eye(4))
        y = T.sub(T.trace(s), T.logdet(s))
    g = backward(tape, y).wrt(s)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_backward_requires_scalar():
    with Tape() as tape:
        x = Tensor(np.ones(3))
        y = T.smul(x, 2.0)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_unreachable_leaf_gets_zero_gradient():
    with Tape() as tape:
        x = Tensor(np.ones((2, 2)))
        z = Tensor(np.ones((2, 2)))  # never used
        y = T.sum_all(x)
    g = backward(tape, y)
    assert np.array_equal(g.wrt(z), np.zeros((2, 2)))
    assert np.array_equal(g.wrt(x), np.ones((2, 2)))


def test_shape_mismatch_errors():
    with pytest.raises(ValueError):
        T.add(Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        T.rowscale(Tensor(np.ones((3, 2))), Tensor(np.ones(2)))


def test_domain_errors():
    with pytest.raises(ValueError):
        T.artanh(Tensor(np.array([0.5, 1.0])))
    with pytest.raises(ValueError):
        T.log_mean_exp(Tensor(np.array([-800.0, -900.0])), 1.0)  # exp underflows to 0
    with pytest.raises(NotSPDError):
        T.logdet(Tensor(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_nonfinite_is_an_error_state():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        T.log_mean_exp(Tensor(np.array([1e4])), 1.0)  # overflow
    with pytest.raises(NonFiniteError):
        T.vdiv(Tensor(np.ones(2)), Tensor(np.array([1.0, 0.0])))
    with pytest.raises(NonFiniteError):
        T.vrecip(Tensor(np.array([0.0, 1.0])))


_BIG = Tensor(np.full((2, 2), 1e200))
_MAX = Tensor(np.full((2, 2), 1.7e308))

# op -> a call on finite inputs whose result overflows
OVERFLOWS = {
    "add": lambda: T.add(_MAX, _MAX),
    "sub": lambda: T.sub(_MAX, T.neg(_MAX)),
    "mul": lambda: T.mul(_BIG, _BIG),
    "vdiv": lambda: T.vdiv(_BIG, Tensor(np.full((2, 2), 1e-200))),
    "smul": lambda: T.smul(_BIG, 1e200),
    "sadd": lambda: T.sadd(_MAX, 1.7e308),
    "vrecip": lambda: T.vrecip(Tensor([1e-320])),
    "prelu": lambda: T.prelu(T.neg(_MAX), Tensor(10.0)),
    "sum": lambda: T.sum_all(_MAX),
    "mean": lambda: T.mean_all(_MAX),
    "log_mean_exp": lambda: T.log_mean_exp(Tensor([1e4]), 1.0),
    "trace": lambda: T.trace(_MAX),
    "batch_mean": lambda: T.batch_mean(_MAX),
    "rownorm2": lambda: T.rownorm2(_BIG),
    "rownorm": lambda: T.rownorm(_BIG),
    "rowdot": lambda: T.rowdot(_BIG, _BIG),
    "rowscale": lambda: T.rowscale(_BIG, Tensor([1e200, 1.0])),
    "sub_rowvec": lambda: T.sub_rowvec(_MAX, Tensor([-1.7e308, 0.0])),
    "cap_rownorms": lambda: T.cap_rownorms(_BIG, 1.0),
    "pair_sqdist": lambda: T.pair_sqdist(Tensor([[1e200, 0.0], [0.0, 1e200]])),
    "matmul": lambda: T.matmul(_BIG, _BIG),
    "dot": lambda: T.dot(Tensor([1e200]), Tensor([1e200])),
    "add_diag": lambda: T.add_diag(_MAX, 1.7e308),
    "spmm": lambda: T.spmm(SparseMatrix((1, 2), [0, 0], [0, 1], [2.0, 1.0]), Tensor([[1e308], [1.0]])),
    "mobius_add": lambda: T.mobius_add(_BIG, _BIG, 1.0),
    "origin_distance": lambda: T.origin_distance(_BIG, 1.0),
    "log0": lambda: T.log0(_BIG, 1.0),
    "covariance": lambda: T.covariance(_BIG, Tensor([-1e200, 0.0])),
    "gaussian_match": lambda: T.gaussian_match(Tensor(np.eye(2)), Tensor(0.0), Tensor([1e200, 0.0]), 0.0, None),
}


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_overflow_raises_nonfinite_error_without_a_warning(op):
    # tier-1 turns every warning into an error, so a warning here would fail the test
    with pytest.raises(NonFiniteError, match=f"^op '{op}' produced non-finite values$"):
        OVERFLOWS[op]()


def test_finite_diff_check_sum_of_squares():
    rng = np.random.default_rng(0)
    err = finite_diff_check(lambda t: T.sum_all(T.mul(t, t)), rng.standard_normal((3, 4)))
    assert err < 1e-9


def test_take_rows_and_spmm_forward_backward():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((5, 3))
    idx = np.array([0, 2, 2, 4])
    w = rng.standard_normal((4, 3))
    err = finite_diff_check(lambda t: T.sum_all(T.mul(T.take_rows(t, idx), Tensor(w))), x0)
    assert err < 1e-7

    sp = SparseMatrix((4, 5), [0, 1, 2, 3], [1, 0, 3, 2], [2.0, 1.0, 0.5, 1.5])
    out = T.spmm(sp, Tensor(x0))
    assert np.allclose(out.data, dense(sp) @ x0, atol=1e-14)
    w2 = rng.standard_normal((4, 3))
    err = finite_diff_check(lambda t: T.sum_all(T.mul(T.spmm(sp, t), Tensor(w2))), x0)
    assert err < 1e-7


def test_take_rows_out_of_range():
    with pytest.raises(ValueError):
        T.take_rows(Tensor(np.ones((3, 2))), np.array([0, 3]))


def test_take_rows_of_an_empty_index():
    x = Tensor(np.ones((3, 2)))
    with Tape() as tape:
        out = T.take_rows(x, np.array([], dtype=int))
        total = T.sum_all(out)
    assert out.data.shape == (0, 2) and float(total) == 0.0
    assert np.array_equal(backward(tape, total).wrt(x), np.zeros((3, 2)))


def test_cap_rownorms_semantics():
    x = np.array([[3.0, 4.0], [0.1, 0.0], [0.0, 0.0]])
    out = T.cap_rownorms(Tensor(x), 1.0)
    norms = np.linalg.norm(out.data, axis=1)
    assert norms[0] == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(out.data[1], x[1])
    assert np.array_equal(out.data[2], x[2])
    # direction preserved on the capped row
    assert np.allclose(out.data[0], np.array([0.6, 0.8]), atol=1e-15)


def test_where_and_clip():
    mask = np.array([True, False, True])
    out = T.where(mask, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, np.array([1.0, 0.0, 1.0]))
    out = T.clip(Tensor(np.array([-2.0, 0.5, 2.0])), -1.0, 1.0)
    assert np.array_equal(out.data, np.array([-1.0, 0.5, 1.0]))


def test_replay_determinism():
    def run():
        rng = np.random.default_rng(7)
        with Tape() as tape:
            x = Tensor(rng.standard_normal((4, 4)))
            y = T.sum_all(T.tanh(T.matmul(x, x)))
        return backward(tape, y).wrt(x)

    assert np.array_equal(run(), run())


def test_no_tape_means_no_recording():
    tape = Tape()
    with tape:
        pass
    y = T.mul(Tensor(2.0), Tensor(3.0))  # outside any tape
    assert float(y) == 6.0
    assert tape.nodes == []


# ------------------------------------------------- order-preserving scatter

def _add_at_reference(idx, v, n):
    out = np.zeros((n, v.shape[1]))
    np.add.at(out, idx, v)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("width", [1, 16])
@pytest.mark.parametrize(
    "idx",
    [np.array([3, 0, 3, 1, 3, 0, 4]), np.array([], dtype=int), np.array([2, 2, 2, 2])],
    ids=["unsorted-duplicates", "empty", "one-row"],
)
def test_scatter_add_rows_matches_add_at_bitwise(idx, width):
    rng = np.random.default_rng(width)
    # magnitudes spread over many decades, so any change of summation order
    # shows in the low bits
    v = rng.standard_normal((idx.size, width)) * 10.0 ** rng.integers(-8, 9, (idx.size, width))
    if idx.size:
        v[0, 0] = -0.0
        v[-1, -1] = -0.0
    assert _same_bits(T._scatter_add_rows(idx, v, 6), _add_at_reference(idx, v, 6))


def test_scatter_add_rows_negative_zero_entries():
    v = np.full((3, 2), -0.0)
    out = T._scatter_add_rows(np.array([1, 1, 0]), v, 3)
    assert _same_bits(out, _add_at_reference(np.array([1, 1, 0]), v, 3))


def test_sparse_matrix_rejects_negative_index():
    with pytest.raises(ValueError):
        SparseMatrix((2, 2), [0, -1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix((2, 2), [0, 1], [-2, 1], [1.0, 1.0])


# ------------------------------------------------ in-place accumulation

def test_backward_add_of_a_tensor_with_itself():
    w = np.random.default_rng(2).standard_normal((3, 4))
    x0 = np.random.default_rng(3).standard_normal((3, 4))
    with Tape() as tape:
        x = Tensor(x0)
        y = T.sum_all(T.mul(T.add(x, x), Tensor(w)))
    assert np.array_equal(backward(tape, y).wrt(x), w + w)
    assert finite_diff_check(lambda t: T.sum_all(T.mul(T.add(t, t), Tensor(w))), x0) < 1e-8


def _fanout(x, b):
    # `add` is recorded last, so the sweep reaches it first and hands its one
    # gradient array to both x and b; x then gets two more contributions
    # from `mul(x, x)` and a fourth from `smul`.
    p = T.smul(x, 3.0)
    q = T.mul(x, x)
    s = T.add(x, b)
    return T.add(T.sum_all(T.mul(s, s)), T.sum_all(T.mul(p, q)))


def test_backward_fanout_never_writes_a_shared_gradient():
    rng = np.random.default_rng(4)
    x0, b0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    with Tape() as tape:
        x, b = Tensor(x0), Tensor(b0)
        out = _fanout(x, b)
    grads = backward(tape, out)
    s = x0 + b0
    assert np.array_equal(grads.wrt(b), s + s)  # b's gradient untouched by x's
    assert np.allclose(grads.wrt(x), 2.0 * s + 9.0 * x0 * x0, atol=1e-12)
    assert finite_diff_check(lambda t: _fanout(t, Tensor(b0)), x0) < 1e-7
    assert finite_diff_check(lambda t: _fanout(Tensor(x0), t), b0) < 1e-7


# ------------------------------------------------ one sweep per tape

def test_a_tape_is_swept_once():
    with Tape() as tape:
        x = Tensor(np.array([1.0, 2.0]))
        y = T.sum_all(T.mul(x, x))
    assert np.array_equal(backward(tape, y).wrt(x), [2.0, 4.0])
    assert tape.nodes == []
    with pytest.raises(ValueError, match="already been swept"):
        backward(tape, y)


def test_sweep_frees_op_outputs_and_the_arrays_their_vjps_hold():
    x0 = np.random.default_rng(5).standard_normal((3, 4))
    mask = x0 > 0.0
    with Tape() as tape:
        x = Tensor(x0)
        y = T.where(mask, T.smul(x, 2.0), T.neg(x))  # the VJP of `where` holds `mask`
        loss = T.sum_all(T.mul(y, y))
    held_by_vjp = weakref.ref(mask)
    op_output = weakref.ref(y.data)
    del mask, y
    grads = backward(tape, loss)
    assert held_by_vjp() is None
    assert op_output() is None
    # d/dx of (2x)^2 and (-x)^2, exact in binary
    assert np.array_equal(grads.wrt(x), np.where(x0 > 0.0, 8.0 * x0, 2.0 * x0))


def test_a_fresh_tensor_never_reads_a_dead_tensors_gradient():
    x0 = np.arange(1.0, 7.0).reshape(2, 3)
    for _ in range(200):
        with Tape() as tape:
            x = Tensor(x0)
            loss = T.sum_all(T.mul(x, Tensor(np.ones((2, 3)))))
        grads = backward(tape, loss)
        del tape
        fresh = [Tensor(np.zeros((2, 3))) for _ in range(4)]
        assert all(np.array_equal(grads.wrt(t), np.zeros((2, 3))) for t in fresh)
        assert np.array_equal(grads.wrt(x), np.ones((2, 3)))


def _tiny_training_config(variant):
    """Six steps on a 15-node binary tree, logging at the last step."""
    from hypergcl.graphnet import AugmentationConfig
    from hypergcl.losses import LossWeights
    from hypergcl.trainer import BalancedTree, EncoderConfig, ExperimentConfig, OptimizerConfig

    return ExperimentConfig(
        variant=variant,
        weights=LossWeights(lambda_u=3.0, t=2.0),
        encoder=EncoderConfig(hidden_dim=16, out_dim=8, init_scale=6.0),
        optimizer=OptimizerConfig(learning_rate=1e-2, steps=6),
        dataset=BalancedTree(2, 3, feature_noise=1.0),
        augment1=AugmentationConfig(0.2, 0.1, seed=1),
        augment2=AugmentationConfig(0.2, 0.1, seed=2),
        seed=0,
        log_every=6,
    )


@pytest.mark.parametrize("variant", ["hypergcl", "hyperbolic-naive-uniformity"])
def test_training_bit_identical_with_add_at_scatter(monkeypatch, variant):
    from hypergcl.trainer import train

    cfg = _tiny_training_config(variant)
    fast, _ = train(cfg)
    monkeypatch.setattr(T, "_scatter_add_rows", _add_at_reference)
    ref, _ = train(cfg)
    for a, b in zip(fast.all_tensors(), ref.all_tensors()):
        assert _same_bits(a.data, b.data)


# ------------------------------------------------ one factorization per logdet

def _solve_lower(L, b):
    """Reference forward substitution for L x = b (b a matrix)."""
    x = np.array(b, dtype=float)
    for i in range(L.shape[0]):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def _solve_upper(U, b):
    """Reference back substitution for U x = b (b a matrix)."""
    x = np.array(b, dtype=float)
    for i in range(U.shape[0] - 1, -1, -1):
        x[i] = (x[i] - U[i, i + 1 :] @ x[i + 1 :]) / U[i, i]
    return x


def _logdet_reference(a):
    """Reference `logdet` that factors twice, once for the value and again for
    the inverse, which it forms by two separate triangular solves."""
    sym = (a.data + a.data.T) / 2.0
    L = cholesky(sym)
    val = 2.0 * np.sum(np.log(np.diag(L)))
    L2 = cholesky(sym)
    inv = _solve_upper(L2.T, _solve_lower(L2, np.eye(L2.shape[0])))
    inv = (inv + inv.T) / 2.0
    return T._record("logdet", val, (a,), lambda g: (float(g) * inv,))


def _logdet_cases():
    rng = np.random.default_rng(7)
    cases = {}
    for d in (1, 2, 6, 16):
        b = rng.standard_normal((d, d))
        # not symmetric, so the symmetric part is what gets factored
        cases[f"d{d}"] = b @ b.T + d * np.eye(d) + 1e-3 * rng.standard_normal((d, d))
    v = rng.standard_normal(6)
    cases["jitter-dominated"] = np.outer(v, v) * 1e-3 + 1e-6 * np.eye(6)
    return cases


@pytest.mark.parametrize("name", sorted(_logdet_cases()))
def test_logdet_bit_identical_to_two_factorizations(name):
    a0 = _logdet_cases()[name]
    out = {}
    for key, fn in (("fast", T.logdet), ("ref", _logdet_reference)):
        with Tape() as tape:
            a = Tensor(a0)
            val = fn(a)
            y = T.smul(val, 0.37)
        out[key] = (np.asarray(val.data), backward(tape, y).wrt(a))
    assert _same_bits(out["fast"][0], out["ref"][0])
    assert _same_bits(out["fast"][1], out["ref"][1])


def test_logdet_factors_once(monkeypatch):
    calls = {"cholesky": 0, "spd_inverse": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # both are looked up in the tensor module, where the benchmark's tracer wraps them
    monkeypatch.setattr(T, "cholesky", counted("cholesky", T.cholesky))
    monkeypatch.setattr(T, "spd_inverse", counted("spd_inverse", T.spd_inverse))
    T.logdet(Tensor(_logdet_cases()["d6"]))
    assert calls == {"cholesky": 1, "spd_inverse": 1}


@pytest.mark.parametrize(
    "a", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((3, 3)), -np.eye(2), np.array([[-1e-300]])]
)
def test_logdet_rejects_non_spd(a):
    with pytest.raises(NotSPDError):
        T.logdet(Tensor(a))


def test_training_bit_identical_with_two_factorization_logdet(monkeypatch):
    from hypergcl.trainer import train

    cfg = _tiny_training_config("hypergcl")
    fast, _ = train(cfg)
    monkeypatch.setattr(T, "logdet", _logdet_reference)
    ref, _ = train(cfg)
    for a, b in zip(fast.all_tensors(), ref.all_tensors()):
        assert _same_bits(a.data, b.data)


# ------------------------------------------------------- one finiteness rule

FINITENESS_TABLE = [
    (0.0, True),
    (1e308, True),
    (-1e308, True),
    (5e-324, True),
    (np.nan, False),
    (np.inf, False),
    (-np.inf, False),
    ([], True),
    ([1e308, 1e308], True),
    ([-1e308, -1e308, 1.0], True),
    ([1.0, np.nan], False),
    ([np.inf, 1.0], False),
    ([2.0, -np.inf], False),
    ([np.inf, -np.inf], False),
    ([[1e308, 1e308], [1e308, -1e308]], True),
    ([[1.0, 2.0], [3.0, np.nan]], False),
    ([[np.inf, 0.0], [0.0, 0.0]], False),
    ([[0.0], [-np.inf]], False),
    ([[np.inf, -np.inf], [1e308, 1e308]], False),
    (np.zeros((0, 3)), True),
]


def _quotient(target):
    """(numerator, denominator) whose quotient is `target`, without a warning."""
    t = np.asarray(target, dtype=float)
    num = np.where(np.isfinite(t), t, np.where(np.isnan(t), 0.0, np.sign(t)))
    den = np.where(np.isfinite(t), 1.0, 0.0)
    return num, den


@pytest.mark.parametrize("values,finite", FINITENESS_TABLE)
def test_one_finiteness_rule_for_tensors_and_ops(values, finite):
    arr = np.asarray(values, dtype=float)
    num, den = _quotient(arr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            assert _same_bits(Tensor(arr).data, arr)
            assert _same_bits(np.asarray(T.vdiv(Tensor(num), Tensor(den)).data), arr)
        else:
            with pytest.raises(NonFiniteError, match="^tensor initialized with non-finite values$"):
                Tensor(arr)
            with pytest.raises(NonFiniteError, match="^op 'vdiv' produced non-finite values$"):
                T.vdiv(Tensor(num), Tensor(den))


def test_mean_reductions_bit_identical_to_np_mean():
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (7, 3), (121, 16), (1000, 5)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        assert _same_bits(np.asarray(T.mean_all(Tensor(a)).data), np.asarray(np.mean(a)))
        assert _same_bits(T.batch_mean(Tensor(a)).data, np.mean(a, axis=0))


# ------------------------------------------------------- all-pairs Gram ops

PAIR_OPS = {
    "ball_pair_distances": lambda x: T.ball_pair_distances(x, 1.0),
    "pair_sqdist": T.pair_sqdist,
}


def _gather_pairs(z, op):
    """Reference: every ordered pair i != j gathered with take_rows, i-major, then the
    row-paired Möbius distance or squared difference (no Gram matrix involved)."""
    ii, jj = np.nonzero(~np.eye(z.shape[0], dtype=bool))
    a, b = T.take_rows(Tensor(z), ii), T.take_rows(Tensor(z), jj)
    if op == "ball_pair_distances":
        return geom.distance_rows(a, b, 1.0).data
    return T.rownorm2(T.sub(a, b)).data


def _off_diagonal(pairs, n):
    return pairs.reshape(n, n)[~np.eye(n, dtype=bool)]


def _unit_rows(rng, n, d):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _pair_points(case, rng):
    """(rows, finite-difference step) for one regime of the pair ops."""
    if case == "radius-0.8":
        return ball_batch(rng, 5, 3, max_radius=0.8), 1e-5
    if case == "pinned-at-cap":
        # steps of h (1 + |x|) must stay far below a = 1 - ||z||^2 ~ 2e-5, the
        # scale on which D curves here; smaller ones drown in rounding
        return _unit_rows(rng, 5, 3) * (1.0 - 1e-5), 1e-8
    # every pair 1e-3 apart; the Gram form leaves ~1e-16 of noise in Delta ~ 1e-6,
    # which a step of 1e-6 resolves, while the curvature at this scale needs no smaller one
    base = ball_batch(rng, 1, 4, max_radius=0.8)
    return base + (1e-3 / np.sqrt(2.0)) * np.eye(4), 1e-6


@pytest.mark.parametrize("op", sorted(PAIR_OPS))
@pytest.mark.parametrize("case", ["radius-0.8", "pinned-at-cap", "rows-1e-3-apart"])
def test_pair_ops_gradient_finite_diff(op, case):
    rng = np.random.default_rng(31)
    z, h = _pair_points(case, rng)
    w = Tensor(rng.standard_normal((z.shape[0] ** 2, 1)))
    assert finite_diff_check(lambda x: T.sum_all(T.mul(PAIR_OPS[op](x), w)), z, h=h) < 1e-5


@pytest.mark.parametrize("op", sorted(PAIR_OPS))
def test_pair_ops_match_gather_reference_in_interior(op):
    rng = np.random.default_rng(32)
    z = ball_batch(rng, 12, 4, max_radius=0.8)
    out = PAIR_OPS[op](Tensor(z)).data
    assert out.shape == (144, 1)
    assert np.all(np.diag(out.reshape(12, 12)) == 0.0)
    ref = _gather_pairs(z, op)
    assert np.max(np.abs(_off_diagonal(out, 12) - ref) / ref) <= 1e-12


def test_ball_pair_distances_at_the_cap():
    # Rows on the eps-margin cap: the Möbius reference loses about 2e-7 to
    # cancellation there, while the Gram form only inherits the rounding of
    # a = 1 - ||z||^2 (~5e-12 relative, ~1e-12 in D).
    rng = np.random.default_rng(33)
    n = 8
    z = _unit_rows(rng, n, 4) * (1.0 - 1e-5)
    out = _off_diagonal(T.ball_pair_distances(Tensor(z), 1.0).data, n)
    ref = _gather_pairs(z, "ball_pair_distances")
    assert np.max(np.abs(out - ref) / ref) <= 1e-6
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    exact = np.array([exact_ball_distance(z[i], z[j]) for i, j in zip(ii, jj)])
    assert np.max(np.abs(out - exact) / exact) <= 1e-11


@pytest.mark.parametrize("op", sorted(PAIR_OPS))
def test_pair_ops_equal_rows_are_exactly_zero_and_pass_no_gradient(op):
    # With these rows, s_i + s_j - 2 G_ij leaves ~2e-16 behind for equal rows
    rows = np.random.default_rng(4).standard_normal((3, 16)) * 0.2
    z = rows[[0, 1, 0, 2, 1]]
    n = z.shape[0]
    same = np.all(z[:, None, :] == z[None, :, :], axis=2)
    w = np.random.default_rng(5).standard_normal((n * n, 1))

    def grad(weights):
        with Tape() as tape:
            x = Tensor(z)
            out = PAIR_OPS[op](x)
            loss = T.sum_all(T.mul(out, Tensor(weights)))
        return out.data.reshape(n, n), backward(tape, loss).wrt(x)

    vals, g = grad(w)
    assert np.all(vals[same] == 0.0) and np.all(vals[~same] > 0.0)
    assert np.all(np.isfinite(g))
    _, g_no_same = grad(np.where(same.reshape(-1, 1), 0.0, w))
    assert _same_bits(g, g_no_same)

    tied = np.tile(rows[:1], (4, 1))
    with Tape() as tape:
        x = Tensor(tied)
        out = PAIR_OPS[op](x)
        loss = T.sum_all(out)
    assert np.all(out.data == 0.0)
    assert np.all(backward(tape, loss).wrt(x) == 0.0)


def _pair_delta_by_label_mask(z):
    """Reference: Delta with every equal-row pair found by one n x n label mask."""
    s = np.add.reduce(z * z, axis=1)
    delta = np.einsum("ik,jk->ij", z, z)
    delta *= -2.0
    delta += s[:, None]
    delta += s
    np.maximum(delta, 0.0, out=delta)
    labels = np.unique(z, axis=0, return_inverse=True)[1].reshape(-1)
    delta[labels[:, None] == labels] = 0.0
    return delta


def _pair_batches():
    rng = np.random.default_rng(41)
    rows = rng.standard_normal((6, 16)) * 0.2
    dup = rows[rng.integers(0, 6, size=40)]  # every row repeated
    # rows equal up to the sign of a zero are equal rows; for some of these 20
    # pairs the Gram form leaves an ulp or two behind
    signed = rng.standard_normal((20, 16)) * 0.2
    signed[:, 3] = 0.0
    signed = np.vstack([signed, signed, np.zeros((1, 16)), np.full((1, 16), -0.0)])
    signed[20:40, 3] = -0.0
    dropped = rng.standard_normal((121, 16)) * 0.3
    dropped[rng.random(121) < 0.1] = 0.0  # node dropping leaves zero rows
    perm = rng.permutation(np.tile(rng.standard_normal((2, 4)), (3, 1)))
    # rows pinned at the cap share a handful of squared norms; some are dropped (zero)
    capped = _unit_rows(rng, 60, 16) * (1.0 - 1e-5)
    capped[rng.random(60) < 0.2] = 0.0
    # distinct rows with one shared squared norm: permuted coordinates
    same_s = np.array([[0.3, 0.4, 0.0], [0.4, 0.3, 0.0], [0.0, 0.3, 0.4], [0.3, 0.4, 0.0]])
    return {
        "duplicates": dup,
        "signed-zeros": signed,
        "all-equal": np.tile(rows[:1], (7, 1)),
        "no-duplicates": rng.standard_normal((50, 8)),
        "dropped-nodes": dropped,
        "permuted-duplicates": perm,
        "at-the-cap": capped,
        "shared-norm-distinct-rows": same_s,
        "one-row": rows[:1],
    }


@pytest.mark.parametrize("name", sorted(_pair_batches()))
def test_pair_delta_keeps_the_label_mask_forms_bits(name):
    z = _pair_batches()[name]
    assert _same_bits(T._pair_delta(z), _pair_delta_by_label_mask(z))


@pytest.mark.parametrize(
    "z,c",
    [
        (np.array([[1.0, 0.0], [0.0, 0.5]]), 1.0),
        (np.array([[0.5, 0.0], [0.0, 0.1]]), 4.0),
        (np.array([[0.0, 0.2], [3.0, 4.0]]), 1.0),
        (np.array([[1e200, 0.0], [0.0, 0.0]]), 1.0),  # c ||z||^2 overflows, with no warning
    ],
)
def test_ball_pair_distances_rejects_rows_outside_the_ball(z, c):
    with pytest.raises(ValueError, match="ball_pair_distances"):
        T.ball_pair_distances(Tensor(z), c)
