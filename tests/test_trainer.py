"""Training loop, synthetic data, linear evaluation and sweeps."""
import tracemalloc

import numpy as np
import pytest

from hypergcl import geometry as geom
from hypergcl.graphnet import AugmentationConfig
from hypergcl.losses import LossWeights
from hypergcl.trainer import (
    BalancedTree,
    EncoderConfig,
    ExperimentConfig,
    Files,
    NonFiniteLossError,
    OptimizerConfig,
    Sbm,
    build_dataset,
    linear_eval,
    sweep,
    train,
    write_trace_csv,
)


def tree31_config(**overrides):
    base = dict(
        variant="hypergcl",
        weights=LossWeights(lambda_u=3.0, t=2.0),
        encoder=EncoderConfig(hidden_dim=16, out_dim=8, init_scale=6.0),
        optimizer=OptimizerConfig(learning_rate=1e-2, steps=500),
        dataset=BalancedTree(2, 4, feature_noise=1.0),
        augment1=AugmentationConfig(0.2, 0.1, seed=1),
        augment2=AugmentationConfig(0.2, 0.1, seed=2),
        seed=0,
        log_every=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ synthetic data

def test_balanced_tree_counts():
    g = build_dataset(BalancedTree(2, 3), seed=0)
    assert g.n == 15
    assert g.num_edges == 14


def test_balanced_tree_labels_are_root_subtrees():
    g = build_dataset(BalancedTree(3, 3), seed=0)
    assert np.array_equal(np.unique(g.labels), [0, 1, 2])
    # the root joins subtree 0; level-1 nodes carry their own subtree index
    assert g.labels[0] == 0
    assert np.array_equal(g.labels[1:4], [0, 1, 2])
    # children inherit the subtree of their parent
    for i in range(1, g.n):
        parent = (i - 1) // 3
        if parent > 0:
            assert g.labels[i] == g.labels[parent]


def test_balanced_tree_validation():
    with pytest.raises(ValueError, match="branching >= 2 and height >= 2"):
        BalancedTree(1, 3)
    with pytest.raises(ValueError, match="branching >= 2 and height >= 2"):
        BalancedTree(2, 1)


@pytest.mark.parametrize("train_per_class", [0, -1])
@pytest.mark.parametrize(
    "cls, args", [(BalancedTree, (3, 3)), (Sbm, ([10, 10], 0.5, 0.1))], ids=["balanced_tree", "sbm"]
)
def test_train_per_class_below_one_refused(cls, args, train_per_class):
    # -1 would train on all but one node per class, 0 on none
    with pytest.raises(ValueError, match="train_per_class must be >= 1"):
        cls(*args, train_per_class=train_per_class)


@pytest.mark.parametrize(
    "cls, params, key",
    [
        (BalancedTree, {"branching": 2.9, "height": 3}, "branching"),
        (BalancedTree, {"branching": "3", "height": 3}, "branching"),
        (Sbm, {"block_sizes": [5.7, 5], "p_in": 0.5, "p_out": 0.1}, "block_sizes"),
        (BalancedTree, {"branching": 2, "height": True}, "height"),
    ],
    ids=["float-int", "string-int", "float-in-int-list", "bool-int"],
)
def test_dataset_values_are_type_checked(cls, params, key):
    # the API refuses what the CLI refuses, instead of truncating 2.9 to 2
    with pytest.raises(ValueError, match=f"config key 'dataset.{key}' must be "):
        cls(**params)


def test_dataset_float_fields_are_stored_as_float():
    spec = Sbm([5, 5], 1, 0, feature_noise=1)
    assert [type(v) for v in (spec.p_in, spec.p_out, spec.feature_noise)] == [float, float, float]


def test_files_dataset_values_are_type_checked():
    # the CLI's check, for API callers: a non-string path is refused by name
    # (a 0 would otherwise be opened as file descriptor 0, stdin)
    with pytest.raises(ValueError, match="config key 'dataset.edges' must be a string"):
        Files(edges=0, features="f.csv")
    with pytest.raises(ValueError, match="config key 'dataset.labels' must be a string or null"):
        Files(edges="e.csv", features="f.csv", labels=1)


def test_files_dataset_unknown_key_refused():
    from hypergcl.cli import ConfigError, parse_config

    raw = {"dataset": {"kind": "files", "edges": "e.csv", "features": "f.csv", "weights": "w.csv"}}
    with pytest.raises(ConfigError, match=r"unknown config key 'dataset.weights'"):
        parse_config(raw)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("curvature", float("inf"), "curvature must be positive"),
        ("curvature", float("nan"), "curvature must be positive"),
        ("target_mean", float("nan"), "target_mean must be finite"),
        ("target_mean", float("-inf"), "target_mean must be finite"),
    ],
)
def test_config_refuses_non_finite_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: value})


def test_sbm_expected_cut_edges():
    cuts = []
    for s in range(30):
        g = build_dataset(Sbm([50, 50], 0.2, 0.01), seed=s)
        lab = g.labels
        cuts.append(np.sum(lab[g.edges[:, 0]] != lab[g.edges[:, 1]]))
    # 2500 cross pairs at p_out = 0.01: mean 25, sd ~5; the 30-seed mean is within +-3
    assert abs(np.mean(cuts) - 25.0) < 3.0


def test_sbm_validation():
    with pytest.raises(ValueError, match="0 <= p_out < p_in <= 1"):
        Sbm([10, 10], 0.1, 0.2)
    with pytest.raises(ValueError, match="nonempty positive block sizes"):
        Sbm([10, 0], 0.5, 0.1)


def test_synthetic_determinism():
    a = build_dataset(Sbm([20, 20], 0.3, 0.05), seed=7)
    b = build_dataset(Sbm([20, 20], 0.3, 0.05), seed=7)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)


def test_splits_cover_and_are_disjoint():
    g = build_dataset(BalancedTree(3, 4), seed=0)
    tr, va, te = g.splits["train"], g.splits["val"], g.splits["test"]
    assert len(tr) == 30  # 10 per class
    all_idx = np.concatenate([tr, va, te])
    assert len(np.unique(all_idx)) == g.n
    for cls in range(3):
        assert np.sum(g.labels[tr] == cls) == 10


# ---------------------------------------------------------------- train loop

def test_train_deterministic_bitwise():
    cfg = tree31_config(optimizer=OptimizerConfig(learning_rate=1e-2, steps=60))
    p1, t1 = train(cfg)
    p2, t2 = train(cfg)
    assert np.array_equal(p1.theta1.data, p2.theta1.data)
    assert np.array_equal(p1.theta2.data, p2.theta2.data)
    assert t1.records == t2.records


def test_logging_does_not_perturb_training():
    # Trace records are computed outside the tape and never feed back, so
    # how often they are taken must leave every parameter bit unchanged.
    opt = OptimizerConfig(learning_rate=1e-2, steps=12)
    p_every, t_every = train(tree31_config(optimizer=opt, log_every=1))
    p_final, t_final = train(tree31_config(optimizer=opt, log_every=12))
    assert len(t_every.records) == 12 and len(t_final.records) == 2
    for a, b in zip(p_every.all_tensors(), p_final.all_tensors()):
        assert np.array_equal(a.data, b.data)


def _peak_traced_bytes(cfg, graph) -> int:
    tracemalloc.start()
    try:
        train(cfg, graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["hypergcl", "hyperbolic-naive-uniformity"])
def test_training_memory_is_one_step_deep(variant):
    # A step's tape, gradients and freed buffers must be gone before the next
    # step starts, so three steps peak no higher than one.  tracemalloc counts
    # the bytes numpy and Python allocate exactly, so the ratio is the same on
    # every run.
    dataset = BalancedTree(3, 4)  # 121 nodes
    graph = build_dataset(dataset, 0)

    def peak(steps):
        return _peak_traced_bytes(tree31_config(
            variant=variant,
            dataset=dataset,
            encoder=EncoderConfig(hidden_dim=32, out_dim=16),
            optimizer=OptimizerConfig(steps=steps),
        ), graph)

    assert peak(3) <= 1.10 * peak(1)


def test_align_only_collapses_and_hypergcl_does_not():
    collapse = tree31_config(
        weights=LossWeights(lambda_u=0.0, t=2.0),
        optimizer=OptimizerConfig(learning_rate=4e-2, steps=500),
    )
    _, trace = train(collapse)
    assert trace.last().erank_ambient <= 1.5

    healthy = tree31_config(optimizer=OptimizerConfig(learning_rate=1e-2, steps=500))
    _, trace = train(healthy)
    assert trace.last().erank_ambient >= 0.75 * 8


def test_loss_windows_non_increasing_at_default_lr():
    cfg = ExperimentConfig(
        variant="hypergcl",
        weights=LossWeights(lambda_u=3.0, t=2.0),
        encoder=EncoderConfig(hidden_dim=32, out_dim=16, init_scale=6.0),
        optimizer=OptimizerConfig(learning_rate=1e-3, steps=400),
        dataset=Sbm([30, 30], 0.2, 0.02, feature_noise=0.5),
        augment1=AugmentationConfig(0.2, 0.1, seed=1),
        augment2=AugmentationConfig(0.2, 0.1, seed=2),
        seed=0,
        log_every=10,
    )
    _, trace = train(cfg)
    tot, steps = trace.column("total"), trace.column("step")
    windows = [tot[(steps >= a) & (steps < a + 50)].mean() for a in range(0, 400, 50)]
    assert all(windows[i + 1] <= windows[i] + 1e-9 for i in range(len(windows) - 1))


def test_naive_uniformity_pushes_mean_norm_to_margin():
    cfg = tree31_config(
        variant="hyperbolic-naive-uniformity",
        weights=LossWeights(lambda_u=2.0, t=2.0),
        encoder=EncoderConfig(hidden_dim=16, out_dim=8, init_scale=1.0),
        optimizer=OptimizerConfig(learning_rate=1e-2, steps=400),
    )
    _, trace = train(cfg)
    cap = (1.0 - geom.BALL_MARGIN) / np.sqrt(cfg.curvature)
    assert trace.last().mean_norm > 0.99 * cap


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strong_naive_uniformity_pushes_every_seed_from_inside_to_margin(seed):
    # At lambda_u = 2 the run above is chaotic and whether it ends at the
    # margin turns on float rounding; at lambda_u = 10 every seed does
    cfg = tree31_config(
        variant="hyperbolic-naive-uniformity",
        weights=LossWeights(lambda_u=10.0, t=2.0),
        encoder=EncoderConfig(hidden_dim=16, out_dim=8, init_scale=1.0),
        optimizer=OptimizerConfig(learning_rate=1e-2, steps=400),
        augment1=AugmentationConfig(0.2, 0.1, seed=2 * seed + 1),
        augment2=AugmentationConfig(0.2, 0.1, seed=2 * seed + 2),
        seed=seed,
    )
    _, trace = train(cfg)
    cap = (1.0 - geom.BALL_MARGIN) / np.sqrt(cfg.curvature)
    assert trace.records[0].mean_norm < 0.9 * cap
    assert trace.last().mean_norm > 0.99 * cap


def test_nonfinite_loss_aborts_with_step():
    # tanh/projection saturate most blowups; a step of ~1e160 makes the
    # second encode's weight product exceed the float64 range
    cfg = tree31_config(optimizer=OptimizerConfig(learning_rate=1e160, steps=50))
    with pytest.raises(NonFiniteLossError) as exc:
        train(cfg)
    assert exc.value.step >= 0
    assert exc.value.trace is not None


def test_trace_csv_format(tmp_path):
    cfg = tree31_config(optimizer=OptimizerConfig(learning_rate=1e-2, steps=30))
    _, trace = train(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,total,align,iso,erank_ambient,erank_tangent,mean_norm"
    assert len(lines) == 1 + len(trace.records)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace.records[0].total


# --------------------------------------------------------------- linear eval

def test_linear_eval_separated_clusters():
    rng = np.random.default_rng(0)
    n = 60
    labels = np.repeat([0, 1], n // 2)
    y = np.where(labels[:, None] == 0, -1.0, 1.0) * np.ones((n, 2)) + 0.01 * rng.standard_normal((n, 2))
    z = np.tanh(np.linalg.norm(y, axis=1, keepdims=True)) * y / np.linalg.norm(y, axis=1, keepdims=True)
    idx = rng.permutation(n)
    splits = {"train": idx[:20], "val": idx[20:40], "test": idx[40:]}
    assert linear_eval(z, labels, splits, curvature=1.0) == 1.0


def test_linear_eval_shuffled_labels_chance_level():
    accs = []
    for s in range(20):
        rng = np.random.default_rng(s)
        z = rng.standard_normal((100, 8)) * 0.1
        labels = rng.permutation(np.repeat([0, 1], 50))
        idx = rng.permutation(100)
        splits = {"train": idx[:40], "val": idx[40:60], "test": idx[60:]}
        accs.append(linear_eval(z, labels, splits, curvature=1.0))
    assert abs(np.mean(accs) - 0.5) < 0.05


def test_linear_eval_errors():
    z = np.zeros((4, 2))
    with pytest.raises(ValueError):
        linear_eval(z, None, {"train": [0, 1], "test": [2, 3]})
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError):
        linear_eval(z, labels, None)
    with pytest.raises(ValueError):
        linear_eval(z, np.array([0, 0, 0, 1]), {"train": [0, 1], "test": [2, 3]})


# --------------------------------------------------------------------- sweep

def test_sweep_axes_and_determinism():
    cfg = tree31_config(optimizer=OptimizerConfig(learning_rate=1e-2, steps=60))
    rows = sweep(cfg, "curvature", [0.5, 1.0], seeds=[0, 1])
    assert [r["value"] for r in rows] == [0.5, 1.0]
    for r in rows:
        assert 0.0 <= r["accuracy"] <= 1.0
        assert r["erank_ambient"] >= 1.0
    again = sweep(cfg, "curvature", [0.5, 1.0], seeds=[0, 1])
    assert rows == again
    with pytest.raises(ValueError):
        sweep(cfg, "nope", [1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "curvature", [])


def test_sweep_isotropy_changes_target(tmp_path):
    cfg = tree31_config(optimizer=OptimizerConfig(learning_rate=1e-2, steps=120))
    rows = sweep(cfg, "gaussian_isotropy", [0.0, 0.7], seeds=[0])
    # forcing a fraction of target variances to 0.01 must reduce the erank
    assert rows[1]["erank_ambient"] < rows[0]["erank_ambient"]


def test_build_dataset_from_files(tmp_path):
    import json

    g0 = build_dataset(BalancedTree(2, 3), seed=0)
    edges = tmp_path / "edges.txt"
    edges.write_text("\n".join(f"{a} {b}" for a, b in g0.edges))
    feats = tmp_path / "features.csv"
    header = ",".join(f"f{i}" for i in range(g0.features.shape[1]))
    feats.write_text(
        header + "\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in g0.features)
    )
    labels = tmp_path / "labels.csv"
    labels.write_text("label\n" + "\n".join(str(v) for v in g0.labels))
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps({k: v.tolist() for k, v in g0.splits.items()}))

    g = build_dataset(Files(str(edges), str(feats), str(labels), str(splits)), seed=0)
    assert g.n == g0.n
    assert np.array_equal(g.edges, g0.edges)
    assert np.array_equal(g.features, g0.features)
    assert np.array_equal(g.labels, g0.labels)
