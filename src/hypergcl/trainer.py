"""Full-batch self-supervised training, linear evaluation and sweeps.

One training step opens a fresh tape, encodes two independently augmented
views, evaluates the selected objective and applies an Adam update to the
Euclidean encoder parameters (the manifold constraint is enforced by the
projection head, so no Riemannian optimizer is involved).  Everything is
seeded: given identical configs, two runs at the same BLAS thread count
produce bit-identical traces.

Memory is one step deep.  A step's tape and gradient table are locals of
one call, `_loss_and_gradients`, and the reverse sweep frees the graph as
it goes, so only the parameter gradients leave the step for the Adam
update, and no node or gradient of one step's graph is alive while the
next step records its own.
"""
from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import geometry as geom
from . import losses, spectral
from .graphnet import (AugmentationConfig, GcnParams, Graph, augment, encode, init_params, load_graph,
                       normalize_adjacency)
from .losses import LossWeights
from .tensor import NonFiniteError, Tape, Tensor
from .linalg import NotSPDError

__all__ = [
    "OptimizerConfig",
    "EncoderConfig",
    "DatasetSpec",
    "BalancedTree",
    "Sbm",
    "Files",
    "DATASET_KINDS",
    "ExperimentConfig",
    "TraceRecord",
    "TrainingTrace",
    "NonFiniteLossError",
    "Adam",
    "check_value",
    "check_probe_inputs",
    "build_dataset",
    "train",
    "collapse_diagnostics",
    "linear_eval",
    "sweep",
    "SWEEP_AXES",
    "write_trace_csv",
    "write_matrix_csv",
    "write_sweep_csv",
]

# sweep axis -> the ExperimentConfig field it sets
SWEEP_AXES = {
    "curvature": "curvature",
    "gaussian_mean": "target_mean",
    "gaussian_isotropy": "isotropy_degrade_p",
}


class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss; carries the failing step."""

    def __init__(self, step: int, reason: str, trace: "TrainingTrace"):
        super().__init__(f"non-finite loss at step {step}: {reason}")
        self.step = step
        self.reason = reason
        self.trace = trace


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    steps: int = 500

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class EncoderConfig:
    hidden_dim: int = 256
    out_dim: int = 64
    init_scale: float = 1.0

    def __post_init__(self):
        if self.hidden_dim < 1 or self.out_dim < 1:
            raise ValueError("encoder dims must be >= 1")
        if self.init_scale <= 0.0:
            raise ValueError("init_scale must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    curvature: float = 1.0
    variant: str = "hypergcl"
    weights: LossWeights = field(default_factory=LossWeights)
    target_mean: float = 0.0
    isotropy_degrade_p: Optional[float] = None
    augment1: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(seed=1))
    augment2: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(seed=2))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    log_every: int = 10
    dataset: DatasetSpec = field(default_factory=lambda: BalancedTree(3, 4))

    def __post_init__(self):
        if not 0.0 < self.curvature < math.inf:
            raise ValueError("curvature must be positive and finite")
        if not math.isfinite(self.target_mean):
            raise ValueError("target_mean must be finite")
        if self.variant not in losses.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.isotropy_degrade_p is not None and not (0.0 <= self.isotropy_degrade_p <= 1.0):
            raise ValueError("isotropy_degrade_p must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    step: int
    total: float
    align: float
    iso: float
    erank_ambient: float
    erank_tangent: float
    mean_norm: float


@dataclass
class TrainingTrace:
    records: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def last(self) -> TraceRecord:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1]


class Adam:
    """Standard Adam with bias correction over a fixed list of arrays, at the usual betas and eps."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, shapes, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list, grads: list) -> list:
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            mhat = self.m[i] / (1.0 - self.beta1 ** self.t)
            vhat = self.v[i] / (1.0 - self.beta2 ** self.t)
            out.append(p - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return out


def _derived_seed(*parts) -> int:
    """Stable nonnegative seed from a tuple of nonnegative ints."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


# ------------------------------------------------------------------ datasets

def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_finite_number(val) -> bool:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer too large for a float
        return False


_TYPE_CHECKS = {
    int: ("an integer", _is_int),
    float: ("a finite number", _is_finite_number),
    str: ("a string", lambda v: isinstance(v, str)),
    list[int]: ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def check_value(path: str, typ, val):
    """val, stored as float for a float key; ValueError naming `path` if its JSON type is wrong."""
    nullable = type(None) in get_args(typ)  # Optional[float], Optional[str]
    if nullable:
        if val is None:
            return None
        [typ] = [t for t in get_args(typ) if t is not type(None)]
    what, ok = _TYPE_CHECKS[typ]
    if not ok(val):
        raise ValueError(f"config key '{path}' must be {what}{' or null' if nullable else ''}, got {val!r}")
    return float(val) if typ is float else val


class DatasetSpec:
    """Base of the dataset kinds: every field is checked by `check_value` and a float field stored as float."""

    def __post_init__(self):
        for name, typ in get_type_hints(type(self)).items():
            object.__setattr__(self, name, check_value(f"dataset.{name}", typ, getattr(self, name)))


@dataclass(frozen=True)
class BalancedTree(DatasetSpec):
    """A complete b-ary tree of depth h (b >= 2, h >= 2).

    Each node's label is the root-child subtree it belongs to (the root
    joins subtree 0).  Features are a noisy one-hot of the label, and
    `train_per_class` nodes of each class form the train split.
    """

    branching: int
    height: int
    feature_noise: float = 0.3
    train_per_class: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.branching < 2 or self.height < 2:
            raise ValueError("balanced_tree needs branching >= 2 and height >= 2")
        if self.train_per_class < 1:
            raise ValueError("train_per_class must be >= 1")


@dataclass(frozen=True)
class Sbm(DatasetSpec):
    """A stochastic block model with 0 <= p_out < p_in <= 1, labelled by block; features as for `BalancedTree`."""

    block_sizes: list[int]
    p_in: float
    p_out: float
    feature_noise: float = 0.3
    train_per_class: int = 10

    def __post_init__(self):
        super().__post_init__()
        if not self.block_sizes or min(self.block_sizes) < 1:
            raise ValueError("sbm needs nonempty positive block sizes")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("sbm requires 0 <= p_out < p_in <= 1")
        if self.train_per_class < 1:
            raise ValueError("train_per_class must be >= 1")


@dataclass(frozen=True)
class Files(DatasetSpec):
    """Paths of a file-backed graph, read by `graphnet.load_graph`."""

    edges: str
    features: str
    labels: Optional[str] = None
    splits: Optional[str] = None


# the config file's dataset "kind" -> its spec class
DATASET_KINDS = {"balanced_tree": BalancedTree, "sbm": Sbm, "files": Files}


def _make_splits(labels: np.ndarray, train_per_class: int, rng) -> dict:
    train = []
    rest = []
    for cls in np.flatnonzero(np.bincount(labels)):  # the classes present, ascending
        idx = np.where(labels == cls)[0]
        idx = rng.permutation(idx)
        train.extend(idx[:train_per_class])
        rest.extend(idx[train_per_class:])
    rest = rng.permutation(np.array(rest, dtype=int))
    half = rest.size // 2
    return {
        "train": np.sort(np.array(train, dtype=int)),
        "val": np.sort(rest[:half]),
        "test": np.sort(rest[half:]),
    }


def build_dataset(spec: DatasetSpec, seed: int) -> Graph:
    """The graph of a dataset spec: a synthetic one is drawn deterministically from `seed`."""
    if isinstance(spec, Files):
        return load_graph(spec.edges, spec.features, spec.labels, spec.splits)
    rng = np.random.default_rng(seed)
    if isinstance(spec, BalancedTree):
        b, h = spec.branching, spec.height
        n = (b ** (h + 1) - 1) // (b - 1)
        children = np.arange(1, n)
        edges = np.column_stack([(children - 1) // b, children])
        labels = np.zeros(n, dtype=int)
        for i in range(1, n):
            anc = i
            while anc > b:
                anc = (anc - 1) // b
            labels[i] = anc - 1
    else:
        sizes = spec.block_sizes
        n = sum(sizes)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        iu, ju = np.triu_indices(n, k=1)
        prob = np.where(labels[iu] == labels[ju], spec.p_in, spec.p_out)
        keep = rng.random(iu.size) < prob
        edges = np.column_stack([iu[keep], ju[keep]])
    onehot = np.eye(labels.max() + 1)[labels]
    features = onehot + spec.feature_noise * rng.standard_normal(onehot.shape)
    splits = _make_splits(labels, spec.train_per_class, rng)
    return Graph(n, edges, features, labels=labels, splits=splits)


# ------------------------------------------------------------------ training

def _target_diag(cfg: ExperimentConfig) -> Optional[np.ndarray]:
    if cfg.isotropy_degrade_p is None:
        return None
    d = cfg.encoder.out_dim
    k = int(round(cfg.isotropy_degrade_p * d))
    diag = np.ones(d)
    if k:
        rng = np.random.default_rng(_derived_seed(cfg.seed, 104729))
        diag[rng.choice(d, size=k, replace=False)] = 0.01
    return diag


def _tangent_matrix(z: np.ndarray, c: float) -> np.ndarray:
    return geom.log0_rows(Tensor(z), c).data


def _loss_and_gradients(cfg: ExperimentConfig, g1: Graph, g2: Graph, params: GcnParams, target_diag):
    """One step's loss parts as floats and the gradients of `params.all_tensors()`.

    The step's tape and gradient table live only in this frame, so neither
    outlives the step.
    """
    with Tape() as tape:
        z1 = encode(g1, params, cfg.curvature)
        z2 = encode(g2, params, cfg.curvature)
        parts = losses.total_loss_parts(
            z1,
            z2,
            cfg.weights,
            cfg.curvature,
            cfg.variant,
            target_mean=cfg.target_mean,
            target_diag=target_diag,
        )
    grads = tape.backward(parts[0])
    return [float(p) for p in parts], [grads.wrt(t) for t in params.all_tensors()]


def train(cfg: ExperimentConfig, graph: Optional[Graph] = None):
    """Optimize the selected objective; returns (params, trace).

    The trace is logged every `log_every` steps (plus the final step) on the
    un-augmented graph: loss parts, effective ranks of the ambient and
    log0-mapped embedding matrices, and the mean embedding norm.
    """
    if graph is None:
        graph = build_dataset(cfg.dataset, cfg.seed)
    d_x = graph.features.shape[1]
    params = init_params(d_x, cfg.encoder.hidden_dim, cfg.encoder.out_dim, cfg.seed, cfg.encoder.init_scale)
    opt = cfg.optimizer
    adam = Adam([t.data.shape for t in params.all_tensors()], opt.learning_rate)
    adj_full = normalize_adjacency(graph)
    target_diag = _target_diag(cfg)
    trace = TrainingTrace()

    def log_record(step: int, total: float, align: float, second: float):
        z = encode(graph, params, cfg.curvature, adj=adj_full).data
        trace.records.append(
            TraceRecord(step, total, align, second, **collapse_diagnostics(z, cfg.curvature))
        )

    for step in range(opt.steps):
        g1 = augment(graph, replace(cfg.augment1, seed=_derived_seed(cfg.augment1.seed, step)))
        g2 = augment(graph, replace(cfg.augment2, seed=_derived_seed(cfg.augment2.seed, step)))
        try:
            (total, align, second), gs = _loss_and_gradients(cfg, g1, g2, params, target_diag)
        except (NonFiniteError, NotSPDError) as e:
            raise NonFiniteLossError(step, str(e), trace) from e
        new = adam.step([t.data for t in params.all_tensors()], gs)
        params.theta1 = Tensor(new[0])
        params.theta2 = Tensor(new[1])
        params.slopes = (Tensor(new[2]), Tensor(new[3]))
        if step % cfg.log_every == 0 or step == opt.steps - 1:
            try:
                log_record(step, total, align, second)
            except (NonFiniteError, NotSPDError) as e:
                raise NonFiniteLossError(step, str(e), trace) from e
    return params, trace


def collapse_diagnostics(z: np.ndarray, c: float) -> dict:
    """Effective ranks of z and of its log0 map at curvature c, and z's mean row norm."""
    return {
        "erank_ambient": spectral.effective_rank(z),
        "erank_tangent": spectral.effective_rank(_tangent_matrix(z, c)),
        "mean_norm": float(np.mean(np.sqrt(np.sum(z * z, axis=1)))),
    }


def final_embedding(cfg: ExperimentConfig, params: GcnParams, graph: Graph) -> np.ndarray:
    return encode(graph, params, cfg.curvature).data


# --------------------------------------------------------------- linear eval

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def check_probe_inputs(labels, splits: Optional[dict], n: int) -> tuple:
    """(labels, train, test) as int arrays for a probe on n embedding rows.

    Raises ValueError naming the problem when the probe cannot run: no
    labels or splits, too few labels, a negative label, a split index out
    of range, an empty train or test split, or a single-class train split.
    """
    if labels is None:
        raise ValueError("the linear probe needs labels")
    labels = np.asarray(labels, dtype=int)
    if splits is None or any(k not in splits for k in ("train", "test")):
        raise ValueError("the linear probe needs train/test splits")
    if labels.shape[0] < n:
        raise ValueError(f"{labels.shape[0]} labels for {n} embedding rows")
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative class ids")
    for name, idx in splits.items():
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"split '{name}' has an index out of range for {n} embedding rows")
    tr = np.asarray(splits["train"], dtype=int)
    te = np.asarray(splits["test"], dtype=int)
    if tr.size == 0 or te.size == 0:
        raise ValueError(f"train and test splits must be nonempty, got {tr.size} train and {te.size} test nodes")
    if np.unique(labels[tr]).size < 2:
        raise ValueError("train split contains a single class")
    return labels, tr, te


def linear_eval(z: np.ndarray, labels: np.ndarray, splits: dict, curvature: Optional[float] = None) -> float:
    """Logistic-regression probe on frozen embeddings; returns test accuracy.

    Hyperbolic embeddings are mapped to the tangent plane by log0 first
    (pass the curvature); Euclidean embeddings are used as-is.  The probe is
    multinomial, trained deterministically from a zero init by 300 steps of
    full-batch gradient descent at rate 0.5 with an L2 penalty of 1e-4.
    """
    steps, lr, l2 = 300, 0.5, 1e-4
    z = np.asarray(z, dtype=float)
    labels, tr, te = check_probe_inputs(labels, splits, z.shape[0])
    x = _tangent_matrix(z, float(curvature)) if curvature is not None else z
    k = int(labels.max()) + 1
    xt = x[tr]
    onehot = np.eye(k)[labels[tr]]
    w = np.zeros((x.shape[1], k))
    b = np.zeros(k)
    m = xt.shape[0]
    for _ in range(steps):
        p = _softmax(xt @ w + b)
        diff = (p - onehot) / m
        w -= lr * (xt.T @ diff + l2 * w)
        b -= lr * diff.sum(axis=0)
    pred = np.argmax(x[te] @ w + b, axis=1)
    return float(np.mean(pred == labels[te]))


# -------------------------------------------------------------------- sweeps

def _reseeded(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(
        cfg,
        seed=seed,
        augment1=replace(cfg.augment1, seed=_derived_seed(seed, 1)),
        augment2=replace(cfg.augment2, seed=_derived_seed(seed, 2)),
    )


def sweep(base: ExperimentConfig, axis: str, values, seeds=None) -> list:
    """One train+eval per (value, seed); rows report seed-averaged metrics."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    seeds = [base.seed] if seeds is None else [int(s) for s in seeds]
    rows = []
    for value in values:
        accs, eras, erts = [], [], []
        for seed in seeds:
            cfg = replace(_reseeded(base, seed), **{SWEEP_AXES[axis]: float(value)})
            graph = build_dataset(cfg.dataset, cfg.seed)
            params, trace = train(cfg, graph)
            last = trace.last()
            acc = linear_eval(final_embedding(cfg, params, graph), graph.labels, graph.splits, curvature=cfg.curvature)
            accs.append(acc)
            eras.append(last.erank_ambient)
            erts.append(last.erank_tangent)
        rows.append(
            {
                "value": float(value),
                "accuracy": float(np.mean(accs)),
                "erank_ambient": float(np.mean(eras)),
                "erank_tangent": float(np.mean(erts)),
            }
        )
    return rows


# ------------------------------------------------------------------- file IO

def write_trace_csv(trace: TrainingTrace, path) -> None:
    """One column per `TraceRecord` field.

    Every field holds an int or a Python float, which csv writes as its repr.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(TraceRecord))
        writer.writerows(astuple(r) for r in trace.records)


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    """Plain CSV of floats, one matrix row per line, no header."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def write_sweep_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "accuracy", "erank_ambient", "erank_tangent"])
        for row in rows:
            writer.writerow(
                [
                    repr(row["value"]),
                    repr(row["accuracy"]),
                    repr(row["erank_ambient"]),
                    repr(row["erank_tangent"]),
                ]
            )
