"""Graph data model, augmentation and the two-layer GCN encoder.

Graphs are small and undirected: edges are canonicalized to unique (i < j)
pairs with self-loops dropped (the normalized adjacency re-adds exactly one
self-loop per node).  Node dropping zeroes feature rows instead of deleting
them so positive pairs stay index-aligned across the two augmented views.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry as geom
from . import tensor as T
from .tensor import SparseMatrix, Tensor

__all__ = [
    "Graph",
    "GcnParams",
    "AugmentationConfig",
    "normalize_adjacency",
    "augment",
    "encode",
    "init_params",
    "load_edge_list",
    "load_feature_csv",
    "load_label_csv",
    "load_splits_json",
    "load_graph",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with dense node features and optional labels/splits."""

    n: int
    edges: np.ndarray  # (E, 2) with i < j, unique, no self-loops
    features: np.ndarray  # (n, d_x)
    labels: Optional[np.ndarray] = None
    splits: Optional[dict] = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != self.n:
            raise ValueError(f"features must be ({self.n}, d), got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        raw = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        if raw.size and (raw.min() < 0 or raw.max() >= self.n):
            raise ValueError("edge endpoints out of range")
        keep = raw[:, 0] != raw[:, 1]
        lo = np.minimum(raw[keep, 0], raw[keep, 1])
        hi = np.maximum(raw[keep, 0], raw[keep, 1])
        # lo * n + hi sorts the pairs lexicographically by (lo, hi); sorted,
        # a key is new where it differs from its predecessor
        keys = np.sort(lo * self.n + hi)
        fresh = np.ones(keys.shape, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        edges = np.column_stack([keys // self.n, keys % self.n])
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (self.n,):
                raise ValueError(f"labels must have shape ({self.n},), got {labels.shape}")
        splits = self.splits
        if splits is not None:
            splits = {k: np.asarray(v, dtype=int) for k, v in splits.items()}
            for key, idx in splits.items():
                if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                    raise ValueError(f"split '{key}' has node indices out of range")
        feats.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "splits", splits)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(eq=False)
class GcnParams:
    """Learnable encoder state: two weight matrices and per-layer PReLU slopes."""

    theta1: Tensor
    theta2: Tensor
    slopes: tuple[Tensor, Tensor]

    def all_tensors(self) -> list[Tensor]:
        return [self.theta1, self.theta2, self.slopes[0], self.slopes[1]]


@dataclass(frozen=True)
class AugmentationConfig:
    """Independent edge/node dropping rates plus the RNG seed."""

    edge_drop_prob: float = 0.2
    node_drop_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("edge_drop_prob", "node_drop_prob"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {p}")


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """Symmetric degree normalization of A + I as a sparse COO matrix.

    Every node gets a self-loop, so isolated nodes have degree one and the
    matrix is always well defined.
    """
    e = g.edges
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(g.n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(g.n)])
    deg = np.bincount(rows, minlength=g.n).astype(float)
    inv_sqrt = 1.0 / np.sqrt(deg)
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    return SparseMatrix((g.n, g.n), rows, cols, vals)


def augment(g: Graph, cfg: AugmentationConfig) -> Graph:
    """One stochastic view: drop edges independently, zero dropped nodes.

    Deterministic for a given seed; edge draws are consumed before node
    draws.  Dropped nodes lose their incident edges and have their feature
    rows zeroed, keeping the node index space intact.
    """
    rng = np.random.default_rng(cfg.seed)
    edges = g.edges
    if edges.shape[0]:
        keep = rng.random(edges.shape[0]) >= cfg.edge_drop_prob
        edges = edges[keep]
    dropped = rng.random(g.n) < cfg.node_drop_prob
    features = g.features.copy()
    if np.any(dropped):
        features[dropped] = 0.0
        if edges.shape[0]:
            alive = ~(dropped[edges[:, 0]] | dropped[edges[:, 1]])
            edges = edges[alive]
    return _view(g, edges, features)


def _view(g: Graph, edges: np.ndarray, features: np.ndarray) -> Graph:
    """The Graph `Graph(g.n, edges, features, g.labels, g.splits)` would give, unchecked.

    Trusted inputs only: `edges` is a row subset of `g.edges` in its order
    (so still canonical) and `features` a float copy of `g.features` with
    some rows zeroed (so still finite).  Labels and splits are `g`'s own,
    already validated.  Skipping `__post_init__` saves re-validating and
    re-sorting the edges of every augmented view.
    """
    edges.setflags(write=False)
    features.setflags(write=False)
    view = object.__new__(Graph)
    splits = None if g.splits is None else dict(g.splits)
    view.__dict__.update(n=g.n, edges=edges, features=features, labels=g.labels, splits=splits)
    return view


def encode(
    g: Graph,
    params: GcnParams,
    c: float,
    eps: float = geom.BALL_MARGIN,
    adj: Optional[SparseMatrix] = None,
) -> Tensor:
    """Two GCN layers followed by projection into the eps-margin ball.

    Each layer is prelu(A_norm @ X @ theta); the output rows are ball points
    recorded on the active tape, with norms capped at (1 - eps)/sqrt(c).
    """
    if adj is None:
        adj = normalize_adjacency(g)
    x = Tensor(g.features)
    h = T.prelu(T.spmm(adj, T.matmul(x, params.theta1)), params.slopes[0])
    z = T.prelu(T.spmm(adj, T.matmul(h, params.theta2)), params.slopes[1])
    return geom.project_rows(z, float(c), eps)


def init_params(d_x: int, d_h: int, d_out: int, seed: int, scale: float = 1.0) -> GcnParams:
    """Glorot-uniform weights (optionally rescaled) and 0.25 PReLU slopes."""
    slope = 0.25
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        lim = scale * np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    return GcnParams(
        theta1=Tensor(glorot(d_x, d_h)),
        theta2=Tensor(glorot(d_h, d_out)),
        slopes=(Tensor(slope), Tensor(slope)),
    )


# ------------------------------------------------------------------ file I/O

@contextmanager
def open_text(path, newline=None):
    """`path` opened as UTF-8 text; a byte that does not decode raises ValueError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text (byte 0x{e.object[e.start]:02x}: {e.reason})") from None


def load_edge_list(path) -> np.ndarray:
    """Whitespace-separated `src dst` lines -> (E, 2) int array."""
    pairs = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'src dst', got {line!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: node ids must be integers, got {line!r}") from None
    return np.asarray(pairs, dtype=int).reshape(-1, 2)


def _csv_rows(path, what: str) -> list:
    """(line number, cells) of each nonempty row of a CSV file after its header row."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{path}: empty {what} file")
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no {what} rows")
    return rows


def load_feature_csv(path) -> np.ndarray:
    """CSV with a header row; one node per row, one feature per column."""
    rows = _csv_rows(path, "feature")
    width = len(rows[0][1])
    feats = []
    for lineno, row in rows:
        try:
            vals = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: features must be numbers, got {row!r}") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}:{lineno}: features must be finite numbers, got {row!r}")
        feats.append(vals)
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} features, got {len(row)}")
    return np.asarray(feats, dtype=float)


def load_label_csv(path) -> np.ndarray:
    """Single-column CSV with a header; one integer class id per node."""
    labels = []
    for lineno, row in _csv_rows(path, "label"):
        try:
            labels.append(int(row[0]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: labels must be integers, got {row[0]!r}") from None
    return np.asarray(labels, dtype=int)


def load_splits_json(path) -> dict:
    """JSON object with a flat list of node indices under each of the keys train/val/test."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object with keys train/val/test, got {obj!r:.40}")
    missing = {"train", "val", "test"} - set(obj)
    if missing:
        raise ValueError(f"{path}: missing split keys {sorted(missing)}")
    for key in ("train", "val", "test"):
        idx = obj[key]
        bad = [v for v in idx if type(v) is not int] if isinstance(idx, list) else [idx]
        if bad:
            raise ValueError(f"{path}: split '{key}' must be a list of integers, got {bad[0]!r:.40}")
    return {k: np.asarray(obj[k], dtype=int) for k in ("train", "val", "test")}


def load_graph(edges_path, features_path, labels_path=None, splits_path=None) -> Graph:
    """The graph of a set of dataset files; files that disagree are refused naming both."""
    features = load_feature_csv(features_path)
    n = features.shape[0]
    edges = load_edge_list(edges_path)
    outside = edges[(edges < 0) | (edges >= n)]
    if outside.size:
        raise ValueError(f"{edges_path}: node {outside[0]} is not one of the {n} rows of {features_path}")
    labels = load_label_csv(labels_path) if labels_path else None
    if labels is not None and labels.shape[0] != n:
        raise ValueError(f"{labels_path}: {labels.shape[0]} labels for the {n} rows of {features_path}")
    splits = load_splits_json(splits_path) if splits_path else None
    for key, idx in (splits or {}).items():
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"{splits_path}: split '{key}' names a node outside the {n} rows of {features_path}")
    return Graph(n, edges, features, labels=labels, splits=splits)
