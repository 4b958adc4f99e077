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
refused.  `logdet` factors its matrix once and reuses the factor for the
inverse its gradient needs.

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
from typing import Callable, Sequence

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


def _record(name: str, data, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    arr = np.asarray(data, dtype=float)
    if not _all_finite(arr):
        raise NonFiniteError(f"op '{name}' produced non-finite values")
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
    return _record("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _record("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    _same_shape(a, b, "mul")
    return _record("mul", a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def vdiv(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "vdiv")
    with np.errstate(divide="ignore", invalid="ignore"):
        y = a.data / b.data
    return _record("vdiv", y, (a, b), lambda g: (g / b.data, -g * y / b.data))


def neg(a: Tensor) -> Tensor:
    return _record("neg", -a.data, (a,), lambda g: (-g,))


def smul(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return _record("smul", a.data * k, (a,), lambda g: (g * k,))


def sadd(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return _record("sadd", a.data + k, (a,), lambda g: (g,))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _record("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def artanh(a: Tensor) -> Tensor:
    if np.any(np.abs(a.data) >= 1.0):
        raise ValueError("artanh argument outside (-1, 1)")
    return _record("artanh", np.arctanh(a.data), (a,), lambda g: (g / (1.0 - a.data * a.data),))


def vrecip(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore"):
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
    with np.errstate(over="ignore"):
        y = np.where(pos, x.data, float(slope.data) * x.data)

    def vjp(g):
        gx = g * np.where(pos, 1.0, float(slope.data))
        gs = np.array(np.add.reduce(g * np.where(pos, 0.0, x.data), axis=None))
        return gx, gs

    return _record("prelu", y, (x, slope), vjp)


# ---------------------------------------------------------------- reductions

def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _record(
        "sum", np.add.reduce(a.data, axis=None), (a,), lambda g: (np.full(shape, float(g)),)
    )


def mean_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    n = a.data.size
    return _record(
        "mean",
        np.add.reduce(a.data, axis=None) / n,
        (a,),
        lambda g: (np.full(shape, float(g) / n),),
    )


def log_mean_exp(a: Tensor, k: float) -> Tensor:
    """log(mean(exp(k a))) over every entry, as one node that keeps only exp(k a).

    The gradient is exp(k a) * (g / mean / size), then times k.  The order
    of these roundings is part of the uniformities' training bits.
    """
    k = float(k)
    with np.errstate(over="ignore"):
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
    return _record("trace", np.trace(a.data), (a,), lambda g: (float(g) * np.eye(n),))


# ------------------------------------------------------------------ row-wise

def _expect_matrix(a: Tensor, opname: str):
    if a.data.ndim != 2:
        raise ValueError(f"{opname} expects a matrix, got shape {a.data.shape}")


def batch_mean(a: Tensor) -> Tensor:
    """Mean over rows: (n, d) -> (d,)."""
    _expect_matrix(a, "batch_mean")
    n = a.data.shape[0]
    return _record(
        "batch_mean", np.add.reduce(a.data, axis=0) / n, (a,), lambda g: (np.tile(g / n, (n, 1)),)
    )


def rownorm2(a: Tensor) -> Tensor:
    """Squared L2 norm of each row: (n, d) -> (n,)."""
    _expect_matrix(a, "rownorm2")

    def vjp(g):
        gx = 2.0 * a.data
        gx *= g[:, None]
        return (gx,)

    return _record("rownorm2", np.add.reduce(a.data * a.data, axis=1), (a,), vjp)


def rownorm(a: Tensor) -> Tensor:
    """L2 norm of each row.  Zero rows get subgradient zero."""
    _expect_matrix(a, "rownorm")
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
    return _record(
        "rowdot",
        np.add.reduce(a.data * b.data, axis=1),
        (a, b),
        lambda g: (b.data * g[:, None], a.data * g[:, None]),
    )


def rowscale(a: Tensor, s: Tensor) -> Tensor:
    """Scale each row of a (n, d) matrix by the matching entry of an (n,) vector."""
    _expect_matrix(a, "rowscale")
    if s.data.shape != (a.data.shape[0],):
        raise ValueError(f"rowscale: scale shape {s.data.shape} vs rows {a.data.shape[0]}")
    return _record(
        "rowscale",
        a.data * s.data[:, None],
        (a, s),
        lambda g: (g * s.data[:, None], np.add.reduce(g * a.data, axis=1)),
    )


def sub_rowvec(a: Tensor, v: Tensor) -> Tensor:
    _expect_matrix(a, "sub_rowvec")
    if v.data.shape != (a.data.shape[1],):
        raise ValueError(f"sub_rowvec: vector shape {v.data.shape} vs cols {a.data.shape[1]}")
    return _record("sub_rowvec", a.data - v.data, (a, v), lambda g: (g, -np.add.reduce(g, axis=0)))


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
    n = np.sqrt(np.add.reduce(a.data * a.data, axis=1))
    mask = n >= t
    scale = np.ones_like(n)
    scale[mask] = t / n[mask]
    x = a.data

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

    return _record("cap_rownorms", x * scale[:, None], (a,), vjp)


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
    with np.errstate(over="ignore", invalid="ignore"):
        y = a.data @ b.data
    return _record("matmul", y, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    _expect_matrix(a, "transpose")
    return _record("transpose", a.data.T, (a,), lambda g: (g.T,))


def dot(u: Tensor, v: Tensor) -> Tensor:
    if u.data.shape != v.data.shape or u.data.ndim != 1:
        raise ValueError("dot expects two vectors of equal length")
    return _record("dot", u.data @ v.data, (u, v), lambda g: (float(g) * v.data, float(g) * u.data))


def add_diag(a: Tensor, k: float) -> Tensor:
    """a + k * I for a square matrix; k is a fixed constant."""
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ValueError("add_diag expects a square matrix")
    return _record("add_diag", a.data + float(k) * np.eye(a.data.shape[0]), (a,), lambda g: (g,))


def logdet(a: Tensor) -> Tensor:
    """log det of an SPD matrix via Cholesky.

    The symmetric part of the input is factored once; that factor gives
    both the value and, through `spd_inverse(L)`, the gradient, which is the
    symmetrized inverse.  Raises NotSPDError for non-PD input; the jitter
    policy belongs to the caller.
    """
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ValueError("logdet expects a square matrix")
    sym = (a.data + a.data.T) / 2.0
    L = cholesky(sym)
    val = 2.0 * np.add.reduce(np.log(np.diag(L)), axis=None)
    inv = spd_inverse(L)
    return _record("logdet", val, (a,), lambda g: (float(g) * inv,))


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
