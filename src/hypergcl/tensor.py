"""Dense tensors with taped reverse-mode differentiation.

The op set is deliberately small: exactly what the encoder, the losses and
the diagnostics need.  Every op validates that its output is finite
(NaN/Inf is an error state, not a value), and records itself on the active
tape when one is open.  Tapes are per-thread; a training step opens a fresh
tape, so no graph is retained implicitly between steps.

Ops are called by name only (`add(a, b)`, `smul(x, k)`, ...): a `Tensor`
has no arithmetic operators, so each node a computation records, and the
rounding it does, is written where it is recorded.  `backward(tape, out)`
is the one reverse sweep.

A tape is swept once.  The sweep pops each node as it runs the node's VJP
and then drops the node's output gradient, so op outputs, the arrays their
VJPs hold and intermediate gradients are freed during the sweep rather than
after it; a second sweep of the same tape raises `ValueError`.  What is left
is a `Gradients` table that answers for the leaves, the tensors no node on
the tape produced.

One finiteness rule serves `Tensor(...)` and every op, `_all_finite`: a 0-d
array is tested with `math.isfinite`, anything larger with one
`logical_and` reduction over `np.isfinite`.  Neither can overflow or warn,
so huge finite values pass and exactly the arrays holding NaN or +-inf are
refused.  Every op whose arithmetic can overflow computes it under
`np.errstate(all="ignore")`, so a finite input whose result overflows
raises `NonFiniteError` (or the op's `ValueError`), not a `RuntimeWarning`
first.  `logdet` factors its matrix once and reuses the
factor for the inverse its gradient needs.

Five ops record, as one node each, a chain of the ops here that the losses
run every step: `mobius_add` (19 ops), `origin_distance` (5), `log0` (9),
`covariance` (4) and `gaussian_match` (6, or 9 for a non-default target).
They keep the chain's rounding in both directions, so a training run
writes the same bytes as with the chains (see "fused chains" below).

Two all-pairs ops, `pair_sqdist` and `ball_pair_distances`, take an (n, d)
batch and return an (n*n, 1) column whose row i*n + j holds the value for
the ordered pair (i, j).  Both are built from one Gram matrix G = Z Z^T as
Delta_ij = max(||z_i||^2 + ||z_j||^2 - 2 G_ij, 0), with Delta exactly 0
for equal rows, and share one VJP for Delta; a pair at 0 passes no gradient.
Each keeps one n x n array for its VJP besides its output: `pair_sqdist`
the boolean mask Delta > 0, `ball_pair_distances` w = 2c Delta / (a_i a_j)
(built in Delta's buffer); the latter's VJP recomputes a_i a_j and
sqrt(w (w + 2)) with the forward's own calls.  `log_mean_exp`, the
log E exp(k x) tail of the uniformities, is one node that keeps only
exp(k x).

Shapes are restricted to scalars (), vectors (n,) and matrices (n, m);
broadcasting is limited to the explicit row-wise ops (`rowscale`,
`sub_rowvec`, ...).
"""
from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import NotSPDError, cholesky, spd_inverse

__all__ = [
    "NonFiniteError",
    "NotSPDError",
    "Tensor",
    "Tape",
    "Gradients",
    "SparseMatrix",
    "backward",
    "finite_diff_check",
]


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _all_finite(arr: np.ndarray) -> bool:
    """True unless `arr` holds a NaN or an infinity."""
    if arr.ndim == 0:
        return math.isfinite(arr)
    return np.logical_and.reduce(np.isfinite(arr), axis=None)


class Tensor:
    """Immutable dense array participating in taped differentiation."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim > 2:
            raise ValueError(f"tensors are at most 2-D, got shape {arr.shape}")
        if not _all_finite(arr):
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor({self.data!r})"

    def __float__(self):
        if self.data.size != 1:
            raise ValueError("only size-1 tensors convert to float")
        return float(self.data.reshape(()))


class _Node:
    __slots__ = ("name", "out", "inputs", "vjp")

    def __init__(self, name, out, inputs, vjp):
        self.name = name
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of operations; insertion order is topological order."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.swept = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()
        return False


class Gradients:
    """Gradients of the leaves of one sweep; any other tensor reads as zero.

    The table holds every tensor it answers for, so a tensor made after the
    sweep can never share an `id` with one of them.
    """

    def __init__(self, table: dict):
        self._table = table  # id(t) -> [t, gradient, ...]

    def wrt(self, t: Tensor) -> np.ndarray:
        entry = self._table.get(id(t))
        if entry is None:
            return np.zeros_like(t.data)
        return np.array(entry[1], dtype=float)


def backward(tape: Tape, output: Tensor) -> Gradients:
    """Reverse sweep over the tape, accumulating gradients across fan-out.

    `output` must be a scalar.  Leaves never touched by the computation get
    zero gradient (via the Gradients lookup).  The sweep empties the tape:
    each node is popped before its VJP runs and its output's gradient is
    dropped after, so only the leaves' gradients remain.  A tape is swept
    once; a second sweep raises `ValueError`.

    A tensor's first gradient is stored as the VJP returned it; such an
    array may be shared (`add` hands the same `g` to both inputs), so it is
    never written to.  The second contribution allocates `prev + gi`, and
    every further one is added into that array in place.  Contributions are
    summed in tape order either way, so the result is the same to the bit.
    """
    if output.data.shape != ():
        raise ValueError(f"backward requires a scalar output, got shape {output.data.shape}")
    if tape.swept:
        raise ValueError("this tape has already been swept; record a fresh one")
    tape.swept = True
    nodes = tape.nodes
    # id(t) -> [t, gradient, whether this sweep allocated the gradient]
    acc: dict[int, list] = {id(output): [output, np.ones(()), False]}
    while nodes:
        node = nodes.pop()
        entry = acc.pop(id(node.out), None)
        if entry is None:
            continue
        for inp, gi in zip(node.inputs, node.vjp(entry[1])):
            if gi is None:
                continue
            prev = acc.get(id(inp))
            if prev is None:
                acc[id(inp)] = [inp, gi, False]
            elif prev[2]:
                np.add(prev[1], gi, out=prev[1])
            else:
                prev[1] = prev[1] + gi
                # 0-d sums come back as numpy scalars, which cannot be updated
                prev[2] = isinstance(prev[1], np.ndarray)
    return Gradients(acc)


def _check(name: str, arr: np.ndarray) -> None:
    if not _all_finite(arr):
        raise NonFiniteError(f"op '{name}' produced non-finite values")


def _record(name: str, data, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    arr = np.asarray(data, dtype=float)
    _check(name, arr)
    out = Tensor.__new__(Tensor)
    out.data = arr
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1].nodes.append(_Node(name, out, tuple(inputs), vjp))
    return out


# ---------------------------------------------------------------- elementwise

def _same_shape(a: Tensor, b: Tensor, opname: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    with np.errstate(all="ignore"):
        y = a.data + b.data
    return _record("add", y, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    with np.errstate(all="ignore"):
        y = a.data - b.data
    return _record("sub", y, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    _same_shape(a, b, "mul")
    with np.errstate(all="ignore"):
        y = a.data * b.data
    return _record("mul", y, (a, b), lambda g: (g * b.data, g * a.data))


def vdiv(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "vdiv")
    with np.errstate(all="ignore"):
        y = a.data / b.data
    return _record("vdiv", y, (a, b), lambda g: (g / b.data, -g * y / b.data))


def neg(a: Tensor) -> Tensor:
    return _record("neg", -a.data, (a,), lambda g: (-g,))


def smul(a: Tensor, k: float) -> Tensor:
    k = float(k)
    with np.errstate(all="ignore"):
        y = a.data * k
    return _record("smul", y, (a,), lambda g: (g * k,))


def sadd(a: Tensor, k: float) -> Tensor:
    k = float(k)
    with np.errstate(all="ignore"):
        y = a.data + k
    return _record("sadd", y, (a,), lambda g: (g,))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _record("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def artanh(a: Tensor) -> Tensor:
    if np.any(np.abs(a.data) >= 1.0):
        raise ValueError("artanh argument outside (-1, 1)")
    return _record("artanh", np.arctanh(a.data), (a,), lambda g: (g / (1.0 - a.data * a.data),))


def vrecip(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        y = 1.0 / a.data
    return _record("vrecip", y, (a,), lambda g: (-g * y * y,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through the interior."""
    inside = (a.data >= lo) & (a.data <= hi)
    return _record("clip", np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def where(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select by a fixed boolean mask; gradient follows the selected lane."""
    _same_shape(a, b, "where")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ValueError(f"where: mask shape {mask.shape} vs {a.data.shape}")
    return _record(
        "where",
        np.where(mask, a.data, b.data),
        (a, b),
        lambda g: (g * mask, g * ~mask),
    )


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Parametric ReLU with a learnable scalar slope."""
    if slope.data.shape != ():
        raise ValueError("prelu slope must be a scalar tensor")
    pos = x.data >= 0.0
    with np.errstate(all="ignore"):
        y = np.where(pos, x.data, float(slope.data) * x.data)

    def vjp(g):
        gx = g * np.where(pos, 1.0, float(slope.data))
        gs = np.array(np.add.reduce(g * np.where(pos, 0.0, x.data), axis=None))
        return gx, gs

    return _record("prelu", y, (x, slope), vjp)


# ---------------------------------------------------------------- reductions

def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    with np.errstate(all="ignore"):
        y = np.add.reduce(a.data, axis=None)
    return _record("sum", y, (a,), lambda g: (np.full(shape, float(g)),))


def mean_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    n = a.data.size
    with np.errstate(all="ignore"):
        y = np.add.reduce(a.data, axis=None) / n
    return _record("mean", y, (a,), lambda g: (np.full(shape, float(g) / n),))


def log_mean_exp(a: Tensor, k: float) -> Tensor:
    """log(mean(exp(k a))) over every entry, as one node that keeps only exp(k a).

    The gradient is exp(k a) * (g / mean / size), then times k.  The order
    of these roundings is part of the uniformities' training bits.
    """
    k = float(k)
    with np.errstate(all="ignore"):
        y = np.exp(a.data * k)
    n = y.size
    m = np.add.reduce(y, axis=None) / n
    if m <= 0.0:
        raise ValueError("log_mean_exp: exp(k a) underflows to 0 everywhere")

    def vjp(g):
        gy = y * (float(g / m) / n)
        gy *= k
        return (gy,)

    return _record("log_mean_exp", np.log(m), (a,), vjp)


def trace(a: Tensor) -> Tensor:
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ValueError(f"trace expects a square matrix, got {a.data.shape}")
    n = a.data.shape[0]
    with np.errstate(all="ignore"):
        y = np.trace(a.data)
    return _record("trace", y, (a,), lambda g: (float(g) * np.eye(n),))


# ------------------------------------------------------------------ row-wise

def _expect_matrix(a: Tensor, opname: str):
    if a.data.ndim != 2:
        raise ValueError(f"{opname} expects a matrix, got shape {a.data.shape}")


def batch_mean(a: Tensor) -> Tensor:
    """Mean over rows: (n, d) -> (d,)."""
    _expect_matrix(a, "batch_mean")
    n = a.data.shape[0]
    with np.errstate(all="ignore"):
        y = np.add.reduce(a.data, axis=0) / n
    return _record("batch_mean", y, (a,), lambda g: (np.tile(g / n, (n, 1)),))


def rownorm2(a: Tensor) -> Tensor:
    """Squared L2 norm of each row: (n, d) -> (n,)."""
    _expect_matrix(a, "rownorm2")

    def vjp(g):
        gx = 2.0 * a.data
        gx *= g[:, None]
        return (gx,)

    with np.errstate(all="ignore"):
        y = np.add.reduce(a.data * a.data, axis=1)
    return _record("rownorm2", y, (a,), vjp)


def rownorm(a: Tensor) -> Tensor:
    """L2 norm of each row.  Zero rows get subgradient zero."""
    _expect_matrix(a, "rownorm")
    with np.errstate(all="ignore"):
        n = np.sqrt(np.add.reduce(a.data * a.data, axis=1))

    def vjp(g):
        safe = np.where(n > 0.0, n, 1.0)
        gx = a.data * (g / safe)[:, None]
        gx[n == 0.0] = 0.0
        return (gx,)

    return _record("rownorm", n, (a,), vjp)


def rowdot(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "rowdot")
    _expect_matrix(a, "rowdot")
    with np.errstate(all="ignore"):
        y = np.add.reduce(a.data * b.data, axis=1)
    return _record("rowdot", y, (a, b), lambda g: (b.data * g[:, None], a.data * g[:, None]))


def rowscale(a: Tensor, s: Tensor) -> Tensor:
    """Scale each row of a (n, d) matrix by the matching entry of an (n,) vector."""
    _expect_matrix(a, "rowscale")
    if s.data.shape != (a.data.shape[0],):
        raise ValueError(f"rowscale: scale shape {s.data.shape} vs rows {a.data.shape[0]}")
    with np.errstate(all="ignore"):
        y = a.data * s.data[:, None]
    return _record(
        "rowscale", y, (a, s), lambda g: (g * s.data[:, None], np.add.reduce(g * a.data, axis=1))
    )


def sub_rowvec(a: Tensor, v: Tensor) -> Tensor:
    _expect_matrix(a, "sub_rowvec")
    if v.data.shape != (a.data.shape[1],):
        raise ValueError(f"sub_rowvec: vector shape {v.data.shape} vs cols {a.data.shape[1]}")
    with np.errstate(all="ignore"):
        y = a.data - v.data
    return _record("sub_rowvec", y, (a, v), lambda g: (g, -np.add.reduce(g, axis=0)))


def _scatter_add_rows(idx: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """(n, d) array with out[idx[k]] += v[k], summed in the order of `idx`.

    One `np.bincount` over the flat indices `idx * d + column`, which are
    `idx` itself when d == 1.  bincount starts every bin at 0.0 and adds its
    weights in input order, exactly as `np.add.at` on a zero array does, so
    the two agree to the bit (duplicates and -0.0 included) while bincount
    runs several times faster.
    """
    d = v.shape[1]
    flat = idx if d == 1 else (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=v.ravel(), minlength=n * d).reshape(n, d)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by integer index.

    The backward pass scatter-adds the row gradients with the
    order-preserving `_scatter_add_rows` into a fresh array.
    """
    _expect_matrix(a, "take_rows")
    idx = np.asarray(idx, dtype=int)
    n = a.data.shape[0]
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= n)):
        raise ValueError("take_rows: index out of range")
    return _record("take_rows", a.data[idx], (a,), lambda g: (_scatter_add_rows(idx, g, n),))


def cap_rownorms(a: Tensor, max_norm: float) -> Tensor:
    """Rescale any row whose L2 norm is >= max_norm down to exactly max_norm.

    Rows strictly below the cap pass through unchanged.  On the switch
    boundary the rescale branch's gradient is used (subgradient choice;
    the two forward values coincide there).
    """
    _expect_matrix(a, "cap_rownorms")
    t = float(max_norm)
    if t <= 0.0:
        raise ValueError("cap_rownorms: max_norm must be positive")
    x = a.data
    with np.errstate(all="ignore"):
        n = np.sqrt(np.add.reduce(x * x, axis=1))
        _check("cap_rownorms", n)  # t / inf would scale an overflowing row to zero
        mask = n >= t
        scale = np.ones_like(n)
        scale[mask] = t / n[mask]
        y = x * scale[:, None]

    def vjp(g):
        gx = g * scale[:, None]
        idx = np.where(mask)[0]
        if idx.size:
            xm = x[idx]
            gm = g[idx]
            nm = n[idx]
            xg = np.add.reduce(xm * gm, axis=1)
            gx[idx] = (t / nm)[:, None] * (gm - xm * (xg / (nm * nm))[:, None])
        return (gx,)

    return _record("cap_rownorms", y, (a,), vjp)


# --------------------------------------------------------------- all pairs

def _pair_delta(z: np.ndarray) -> np.ndarray:
    """Delta_ij = max(s_i + s_j - 2 G_ij, 0) with s_i = ||z_i||^2 and G = Z Z^T.

    Rows that are equal get Delta exactly 0 (the diagonal always does):
    the Gram form cancels for them, and rounding would leave a few ulp of
    s behind.  Finite rows are equal exactly when their bytes are, once
    -0.0 is made +0.0, so one sort of the rows as byte strings finds them;
    rows pinned at the ball's cap all share a few values of s, so s cannot
    narrow the search.  G comes from `einsum`, not BLAS: OpenBLAS's
    `z @ z.T` changes bits with its thread count even at this small inner
    dimension, while `einsum` sums every entry in one fixed order.  Delta
    is built in G's buffer, so Delta_ij and Delta_ji may differ in the
    last bit.
    """
    s = np.add.reduce(z * z, axis=1)
    delta = np.einsum("ik,jk->ij", z, z)
    delta *= -2.0
    delta += s[:, None]
    delta += s
    np.maximum(delta, 0.0, out=delta)
    np.fill_diagonal(delta, 0.0)
    rows = np.ascontiguousarray(z + 0.0)  # x + 0.0 is x, except that -0.0 becomes +0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    _, label, count = np.unique(keys, return_inverse=True, return_counts=True)
    dup = np.flatnonzero(count[label] > 1)
    if dup.size:
        i, j = np.nonzero(label[dup, None] == label[dup])
        delta[dup[i], dup[j]] = 0.0
    return delta


def _pair_delta_vjp(z: np.ndarray, p: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """dL/dZ = 2[(rowsum S + ds) Z - S Z] with S = P + P^T, for P = dL/dDelta.

    `ds` carries the caller's own dL/ds_i, s_i = ||z_i||^2, beyond Delta's.
    """
    sym = p + p.T
    rows = np.add.reduce(sym, axis=1)
    rows += ds
    gz = rows[:, None] * z
    gz -= sym @ z
    gz *= 2.0
    return gz


def pair_sqdist(z: Tensor) -> Tensor:
    """Squared Euclidean distance of every ordered row pair, from one Gram matrix.

    Returns the (n*n, 1) column whose row i*n + j holds ||z_i - z_j||^2
    (i-major; the diagonal is included and exactly 0).  Equal rows give
    exactly 0, and a pair whose value is 0 passes no gradient.
    """
    _expect_matrix(z, "pair_sqdist")
    x = z.data
    with np.errstate(all="ignore"):
        delta = _pair_delta(x)
    apart = delta > 0.0

    def vjp(g):
        p = g.reshape(apart.shape) * apart
        return (_pair_delta_vjp(x, p, 0.0),)

    return _record("pair_sqdist", delta.reshape(-1, 1), (z,), vjp)


def _arcosh_root(w: np.ndarray) -> np.ndarray:
    """sqrt(w (w + 2)) in a fresh array."""
    root = w + 2.0
    root *= w
    np.sqrt(root, out=root)
    return root


def ball_pair_distances(z: Tensor, c: float) -> Tensor:
    """Poincare-ball distance of every ordered row pair, from one Gram matrix.

    D_ij = arcosh(1 + w_ij) / sqrt(c), w_ij = 2c Delta_ij / (a_i a_j), with
    Delta_ij = ||z_i - z_j||^2 and a_i = 1 - c ||z_i||^2 (Ganea et al. 2018).
    arcosh(1 + w) is evaluated as log1p(w + sqrt(w (w + 2))), which keeps
    its relative accuracy for small w.  The layout is `pair_sqdist`'s: an
    (n*n, 1) column whose row i*n + j holds D_ij.  A pair at distance 0
    (equal rows) passes no gradient, which is `rownorm`'s subgradient at
    zero.  Rows on or outside the ball, c ||z||^2 >= 1, raise ValueError.

    Until the sweep, the op holds w (built in Delta's buffer) and a; the
    VJP recomputes a_i a_j and the root with the forward's own calls.
    """
    _expect_matrix(z, "ball_pair_distances")
    c = float(c)
    x = z.data
    with np.errstate(all="ignore"):
        a = 1.0 - c * np.add.reduce(x * x, axis=1)
    if not np.all(a > 0.0):
        raise ValueError("ball_pair_distances: row on or outside the ball boundary")
    w = _pair_delta(x)
    w *= 2.0 * c
    w /= np.multiply.outer(a, a)
    sc = math.sqrt(c)
    dist = _arcosh_root(w)
    dist += w
    np.log1p(dist, out=dist)
    dist /= sc

    def vjp(g):
        # q = dL/dw = g / (sqrt(c) sqrt(w (w + 2))), and 0 where Delta = 0
        root = _arcosh_root(w)
        q = np.divide(g.reshape(w.shape), root, out=np.zeros_like(w), where=root > 0.0)
        del root
        q /= sc
        # dw_ij/ds_i = c w_ij / a_i, for i first or second in the pair
        r = q * w
        ds = (c / a) * (np.add.reduce(r, axis=1) + np.add.reduce(r, axis=0))
        del r
        q *= 2.0 * c  # dw_ij/dDelta_ij = 2c / (a_i a_j)
        q /= np.multiply.outer(a, a)
        return (_pair_delta_vjp(x, q, ds),)

    return _record("ball_pair_distances", dist.reshape(-1, 1), (z,), vjp)


# -------------------------------------------------------------------- matrix

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects two matrices")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims {a.data.shape} @ {b.data.shape}")
    with np.errstate(all="ignore"):
        y = a.data @ b.data
    return _record("matmul", y, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    _expect_matrix(a, "transpose")
    return _record("transpose", a.data.T, (a,), lambda g: (g.T,))


def dot(u: Tensor, v: Tensor) -> Tensor:
    if u.data.shape != v.data.shape or u.data.ndim != 1:
        raise ValueError("dot expects two vectors of equal length")
    with np.errstate(all="ignore"):
        y = u.data @ v.data
    return _record("dot", y, (u, v), lambda g: (float(g) * v.data, float(g) * u.data))


def add_diag(a: Tensor, k: float) -> Tensor:
    """a + k * I for a square matrix; k is a fixed constant."""
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ValueError("add_diag expects a square matrix")
    with np.errstate(all="ignore"):
        y = a.data + float(k) * np.eye(a.data.shape[0])
    return _record("add_diag", y, (a,), lambda g: (g,))


def logdet(a: Tensor) -> Tensor:
    """log det of an SPD matrix via Cholesky.

    The symmetric part of the input is factored once; that factor gives
    both the value and, through `spd_inverse(L)`, the gradient, which is the
    symmetrized inverse.  Raises NotSPDError for non-PD input; the jitter
    policy belongs to the caller.
    """
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ValueError("logdet expects a square matrix")
    with np.errstate(all="ignore"):
        sym = (a.data + a.data.T) / 2.0
    L = cholesky(sym)
    val = 2.0 * np.add.reduce(np.log(np.diag(L)), axis=None)
    inv = spd_inverse(L)
    return _record("logdet", val, (a,), lambda g: (float(g) * inv,))


# --------------------------------------------------------------- fused chains
#
# Each op below records, as one node, a chain of the ops above that the
# losses run every step.  Its forward evaluates the chain's own expressions
# in the chain's order, and its VJP replays the chain's reverse sweep: the
# same products and sums in the same order, with each partial gradient of an
# input returned in its own slot, in the order the chain's sweep produced it,
# so that `backward` accumulates them as it accumulated the chain's.  Values
# and gradients are the chain's to the bit.  An intermediate whose overflow
# the rest of the chain could hide (a norm before the artanh clamp, a
# denominator before its reciprocal, rows scaled off the trace) is checked
# where the chain checked it, so `NonFiniteError` is raised wherever the
# chain raised it.

# Intermediate Möbius results can graze the boundary numerically even when
# all inputs are interior; artanh arguments are clamped below 1 before
# evaluation.
ARTANH_CLAMP = 1.0 - 1e-12


def mobius_add(u: Tensor, v: Tensor, c: float) -> Tensor:
    """Row-wise Möbius addition u (+) v, the 19-op chain

        uv, u2, v2 = rowdot(u, v), rownorm2(u), rownorm2(v)
        coef_u = (uv * 2c + v2 * c) + 1;  coef_v = u2 * (-c) + 1
        den = (uv * 2c + (u2 * v2) * c^2) + 1
        rowscale(rowscale(u, coef_u) + rowscale(v, coef_v), vrecip(den))

    as one node.  The inputs' slots are (v, u, v, u, u, v): the two
    `rowscale`s, the two `rownorm2`s, then `rowdot`.
    """
    _same_shape(u, v, "mobius_add")
    _expect_matrix(u, "mobius_add")
    c = float(c)
    k2c, kcc = 2.0 * c, c * c
    x, y = u.data, v.data
    with np.errstate(all="ignore"):
        uv = np.add.reduce(x * y, axis=1)
        u2 = np.add.reduce(x * x, axis=1)
        v2 = np.add.reduce(y * y, axis=1)
        coef_u = (uv * k2c + v2 * c) + 1.0
        coef_v = u2 * -c + 1.0
        den = (uv * k2c + (u2 * v2) * kcc) + 1.0
        _check("mobius_add", den)  # an infinite den would make 1/den 0 and the output finite
        rd = 1.0 / den
        num = x * coef_u[:, None] + y * coef_v[:, None]
        out = num * rd[:, None]

    def vjp(g):
        g_num = g * rd[:, None]
        g_den = -np.add.reduce(g * num, axis=1) * rd * rd
        g_coef_v = np.add.reduce(g_num * y, axis=1)
        g_coef_u = np.add.reduce(g_num * x, axis=1)
        g_d2 = g_den * kcc
        g_u2 = g_d2 * v2 + g_coef_v * -c
        g_v2 = g_d2 * u2 + g_coef_u * c
        g_uv = (g_den * k2c + g_coef_u * k2c)[:, None]
        gv = 2.0 * y
        gv *= g_v2[:, None]
        gu = 2.0 * x
        gu *= g_u2[:, None]
        return g_num * coef_v[:, None], g_num * coef_u[:, None], gv, gu, y * g_uv, x * g_uv

    return _record("mobius_add", out, (v, u, v, u, u, v), vjp)


def origin_distance(m: Tensor, c: float) -> Tensor:
    """(2/sqrt(c)) artanh(sqrt(c) ||m_i||) per row, the ball distance of each row from 0.

    One node for the chain rownorm, smul(sqrt(c)), clip(0, ARTANH_CLAMP),
    artanh, smul(2/sqrt(c)).  A zero row gets gradient zero, as from `rownorm`.
    """
    _expect_matrix(m, "origin_distance")
    x = m.data
    with np.errstate(all="ignore"):
        sc = float(np.sqrt(c))
        k = 2.0 / sc
        nrm = np.sqrt(np.add.reduce(x * x, axis=1))
        s = nrm * sc
        _check("origin_distance", s)  # also catches an infinite norm, before the clamp hides it
        inside = (s >= 0.0) & (s <= ARTANH_CLAMP)
        t = np.clip(s, 0.0, ARTANH_CLAMP)
        out = np.arctanh(t) * k

    def vjp(g):
        g_n = g * k / (1.0 - t * t) * inside * sc
        gx = x * (g_n / np.where(nrm > 0.0, nrm, 1.0))[:, None]
        gx[nrm == 0.0] = 0.0
        return (gx,)

    return _record("origin_distance", out, (m,), vjp)


def log0(z: Tensor, c: float) -> Tensor:
    """Rows scaled by artanh(sqrt(c) ||z_i||) / (sqrt(c) ||z_i||), and by 1 where z_i = 0.

    One node for the logarithmic map at the origin as the 9-op chain rownorm,
    where (1 on zero rows), smul(sqrt(c)), clip(0, ARTANH_CLAMP), artanh,
    smul(sqrt(c)), vdiv, where (1 on zero rows), rowscale.  The input's two
    slots are `rowscale`'s and `rownorm`'s.
    """
    _expect_matrix(z, "log0")
    x = z.data
    with np.errstate(all="ignore"):
        sc = float(np.sqrt(c))
        nrm = np.sqrt(np.add.reduce(x * x, axis=1))
        live = nrm != 0.0
        s = np.where(live, nrm, 1.0) * sc
        _check("log0", s)  # also catches an infinite norm, before the clamp hides it
        inside = (s >= 0.0) & (s <= ARTANH_CLAMP)
        t = np.clip(s, 0.0, ARTANH_CLAMP)
        q = np.arctanh(t) / s
        f = np.where(live, q, 1.0)
        out = x * f[:, None]

    def vjp(g):
        g_q = np.add.reduce(g * x, axis=1) * live
        g_s = -g_q * q / s * sc  # the denominator's smul is swept before the clamped one
        g_s = g_s + g_q / s / (1.0 - t * t) * inside * sc
        g_n = g_s * live
        gx = x * (g_n / np.where(nrm > 0.0, nrm, 1.0))[:, None]
        gx[nrm == 0.0] = 0.0
        return g * f[:, None], gx

    return _record("log0", out, (z, z), vjp)


def covariance(y: Tensor, mu: Tensor) -> Tensor:
    """(1/n) (y - mu)^T (y - mu) for n rows and their mean, the chain
    sub_rowvec, transpose, matmul, smul(1/n), as one node."""
    _expect_matrix(y, "covariance")
    n, d = y.data.shape
    if mu.data.shape != (d,):
        raise ValueError(f"covariance: mean shape {mu.data.shape} vs cols {d}")
    k = 1.0 / n
    with np.errstate(all="ignore"):
        centered = y.data - mu.data
        sigma = (centered.T @ centered) * k

    def vjp(g):
        g = g * k
        gc = centered @ g  # matmul's right operand, then the transpose adds the left one's
        gc += (g @ centered.T).T
        return gc, -np.add.reduce(gc, axis=0)

    return _record("covariance", sigma, (y, mu), vjp)


def gaussian_match(s: Tensor, ld: Tensor, mu: Tensor, mean: float, diag: Optional[np.ndarray]) -> Tensor:
    """tr(D^-1 S) - ld + (mu - m1)^T D^-1 (mu - m1) + logdet(D) - d, D = diag(diag), as one node.

    `ld` is logdet(S), recorded by the caller; `diag` None stands for D = I.
    The chain is rowscale(S, 1/diag), trace, sadd(mu, -m), mul(1/diag, .),
    dot, neg(ld), add, add, sadd.  At m = 0 and D = I it rounds exactly as
    tr(S) - ld + mu.mu - d (x * 1.0 and x + (-0.0) are x), and mu's two
    partials of mu.mu arrive summed, which is the same sum while mu holds no
    other gradient yet.
    """
    d = mu.data.size
    if mu.data.ndim != 1 or s.data.shape != (d, d) or ld.data.shape != ():
        raise ValueError(f"gaussian_match: shapes {s.data.shape}, {ld.data.shape}, {mu.data.shape}")
    if diag is None:
        inv, logdet_d = np.ones(d), 0.0
    else:
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (d,) or np.any(diag <= 0.0):
            raise ValueError("target covariance diagonal must be positive with matching dim")
        with np.errstate(all="ignore"):
            inv, logdet_d = 1.0 / diag, float(np.sum(np.log(diag)))
    with np.errstate(all="ignore"):
        scaled = s.data * inv[:, None]
        _check("gaussian_match", scaled)  # the trace reads only its diagonal
        delta = mu.data + -float(mean)
        w = inv * delta
        out = ((np.trace(scaled) + -ld.data) + delta @ w) + (logdet_d - float(d))

    def vjp(g):
        gf = float(g)
        return (gf * np.eye(d)) * inv[:, None], -g, gf * w + (gf * delta) * inv

    return _record("gaussian_match", out, (s, ld, mu), vjp)


# -------------------------------------------------------------------- sparse

class SparseMatrix:
    """COO sparse matrix treated as constant data (no gradient to entries)."""

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape, rows, cols, vals):
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows = np.asarray(rows, dtype=int)
        self.cols = np.asarray(cols, dtype=int)
        self.vals = np.asarray(vals, dtype=float)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("SparseMatrix: rows/cols/vals must have equal length")
        if self.rows.size and (
            min(self.rows.min(), self.cols.min()) < 0
            or self.rows.max() >= self.shape[0]
            or self.cols.max() >= self.shape[1]
        ):
            raise ValueError("SparseMatrix: index out of range")


def spmm(s: SparseMatrix, x: Tensor) -> Tensor:
    """Sparse @ dense.  Gradient flows to the dense side only.

    Both directions sum the per-entry products with the order-preserving
    `_scatter_add_rows` (COO order), into fresh arrays.
    """
    _expect_matrix(x, "spmm")
    if s.shape[1] != x.data.shape[0]:
        raise ValueError(f"spmm: inner dims {s.shape} @ {x.data.shape}")
    with np.errstate(all="ignore"):
        y = _scatter_add_rows(s.rows, s.vals[:, None] * x.data[s.cols], s.shape[0])
    n = x.data.shape[0]
    return _record(
        "spmm", y, (x,), lambda g: (_scatter_add_rows(s.cols, s.vals[:, None] * g[s.rows], n),)
    )


# ------------------------------------------------------------- finite diffs

def finite_diff_check(f: Callable[[Tensor], Tensor], x, h: float = 1e-5) -> float:
    """Max relative error between taped gradient and central differences.

    `f` maps one tensor to a scalar tensor.  The analytic gradient is taken
    on a fresh tape; the numeric one uses per-coordinate central steps of
    h * (1 + |x_i|).  Returns max_i |analytic_i - numeric_i| / (|analytic_i| + 1e-8).
    """
    leaf = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=float))
    with Tape() as tape:
        out = f(leaf)
    if out.data.shape != ():
        raise ValueError("finite_diff_check requires a scalar-valued function")
    analytic = backward(tape, out).wrt(leaf)

    flat = leaf.data.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        step = h * (1.0 + abs(flat[i]))
        hi = flat.copy()
        hi[i] += step
        lo = flat.copy()
        lo[i] -= step
        f_hi = float(f(Tensor(hi.reshape(leaf.data.shape))))
        f_lo = float(f(Tensor(lo.reshape(leaf.data.shape))))
        numeric[i] = (f_hi - f_lo) / (2.0 * step)
    err = np.abs(analytic.ravel() - numeric) / (np.abs(analytic.ravel()) + 1e-8)
    return float(np.max(err)) if err.size else 0.0
