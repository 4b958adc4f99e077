"""Graph model, normalization, augmentation, encoder and file ingestion."""
import json

import numpy as np
import pytest

from hypergcl.graphnet import (
    AugmentationConfig,
    Graph,
    augment,
    encode,
    init_params,
    load_graph,
    load_edge_list,
    load_feature_csv,
    load_label_csv,
    load_splits_json,
    normalize_adjacency,
)
from hypergcl.tensor import Tensor, finite_diff_check
from hypergcl import tensor as T


def small_graph(rng, n=10, d_x=3, p=0.3):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    return Graph(n, edges, rng.standard_normal((n, d_x)))


def test_graph_canonicalization():
    g = Graph(3, [[0, 1], [1, 0], [2, 2], [1, 2]], np.zeros((3, 2)))
    assert g.num_edges == 2  # duplicate collapsed, self-loop dropped
    assert np.array_equal(g.edges, [[0, 1], [1, 2]])
    # pairs sort by their lower endpoint first
    g = Graph(4, [[3, 0], [2, 1], [1, 0]], np.zeros((4, 2)))
    assert np.array_equal(g.edges, [[0, 1], [0, 3], [1, 2]])
    # reference: row-wise unique over the sorted endpoint pairs
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 40, size=(300, 2))
    pairs = np.sort(raw[raw[:, 0] != raw[:, 1]], axis=1)
    g = Graph(40, raw, np.zeros((40, 2)))
    assert np.array_equal(g.edges, np.unique(pairs, axis=0))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [[0, 5]], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Graph(3, [], np.zeros((4, 2)))
    with pytest.raises(ValueError):
        Graph(3, [], np.full((3, 2), np.nan))
    with pytest.raises(ValueError):
        Graph(3, [], np.zeros((3, 2)), labels=np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        Graph(3, [], np.zeros((3, 2)), splits={"train": [7], "val": [], "test": []})


def test_normalize_adjacency_single_node():
    g = Graph(1, [], np.zeros((1, 2)))
    assert np.array_equal(normalize_adjacency(g).to_dense(), [[1.0]])


def test_normalize_adjacency_two_nodes():
    g = Graph(2, [[0, 1]], np.zeros((2, 2)))
    assert np.allclose(normalize_adjacency(g).to_dense(), np.full((2, 2), 0.5), atol=1e-15)


def test_normalize_adjacency_triangle():
    g = Graph(3, [[0, 1], [1, 2], [0, 2]], np.zeros((3, 2)))
    assert np.allclose(normalize_adjacency(g).to_dense(), np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_normalized_adjacency_spectral_radius():
    rng = np.random.default_rng(0)
    g = small_graph(rng, n=40, p=0.15)
    dense = normalize_adjacency(g).to_dense()
    v = rng.standard_normal(40)
    for _ in range(200):  # power iteration on the symmetric matrix
        v = dense @ v
        v /= np.linalg.norm(v)
    radius = abs(v @ (dense @ v))
    assert radius <= 1.0 + 1e-9


def test_augment_identity_when_probs_zero():
    rng = np.random.default_rng(1)
    g = small_graph(rng)
    out = augment(g, AugmentationConfig(0.0, 0.0, seed=3))
    assert np.array_equal(out.edges, g.edges)
    assert np.array_equal(out.features, g.features)


def test_augment_extreme_edge_drop():
    path = Graph(6, [[i, i + 1] for i in range(5)], np.ones((6, 2)))
    out = augment(path, AugmentationConfig(1.0 - 1e-9, 0.0, seed=0))
    assert out.num_edges == 0
    assert np.array_equal(out.features, path.features)


def test_augment_deterministic():
    rng = np.random.default_rng(2)
    g = small_graph(rng, n=30)
    cfg = AugmentationConfig(0.4, 0.3, seed=11)
    a = augment(g, cfg)
    b = augment(g, cfg)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)
    c = augment(g, AugmentationConfig(0.4, 0.3, seed=12))
    assert not (np.array_equal(a.edges, c.edges) and np.array_equal(a.features, c.features))


def test_augment_node_drop_zeroes_rows_and_edges():
    g = Graph(4, [[0, 1], [1, 2], [2, 3]], np.ones((4, 2)))
    for seed in range(50):
        out = augment(g, AugmentationConfig(0.0, 0.6, seed=seed))
        dropped = np.where(np.all(out.features == 0.0, axis=1))[0]
        for e in out.edges:
            assert e[0] not in dropped and e[1] not in dropped
    assert any(
        np.any(np.all(augment(g, AugmentationConfig(0.0, 0.6, seed=s)).features == 0.0, axis=1))
        for s in range(50)
    )


@pytest.mark.parametrize(
    "edge_p, node_p, seed",
    [(0.0, 0.0, 1), (0.2, 0.2, 2), (0.95, 0.95, 4), (0.2, 0.95, 3)],
    ids=["nothing-dropped", "default-rates", "most-dropped", "every-node-dropped"],
)
def test_augment_view_is_the_graph_the_checked_constructor_builds(edge_p, node_p, seed):
    rng = np.random.default_rng(9)
    base = small_graph(rng, n=30)
    labels = rng.integers(0, 3, size=30)
    g = Graph(30, base.edges, base.features, labels=labels, splits={"train": [0, 4], "val": [5], "test": [29]})
    view = augment(g, AugmentationConfig(edge_p, node_p, seed=seed))
    ref = Graph(g.n, view.edges, view.features, labels=g.labels, splits=g.splits)
    assert type(view) is Graph and view.n == ref.n
    for name in ("edges", "features"):
        got, want = getattr(view, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        assert not got.flags.writeable and got.flags.c_contiguous
    assert view.labels is ref.labels
    assert view.splits.keys() == ref.splits.keys() and view.splits is not g.splits
    assert all(view.splits[k] is ref.splits[k] for k in ref.splits)
    bare = augment(base, AugmentationConfig(edge_p, node_p, seed=seed))
    assert bare.labels is None and bare.splits is None
    assert not np.shares_memory(view.features, g.features)
    if seed == 3:
        assert np.all(view.features == 0.0) and view.num_edges == 0


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentationConfig(edge_drop_prob=1.0)
    with pytest.raises(ValueError):
        AugmentationConfig(node_drop_prob=-0.1)


def test_encode_zero_features_give_zero_rows():
    g = Graph(5, [[0, 1], [2, 3]], np.zeros((5, 3)))
    params = init_params(3, 4, 2, seed=0)
    z = encode(g, params, 1.0, 1e-5)
    assert np.array_equal(z.data, np.zeros((5, 2)))


def test_encode_edgeless_projection_identity_inside_margin():
    # edgeless graph: A_norm = I, so the encoder is a row-wise MLP; small
    # weights keep every row inside the margin where projection is identity
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 3)) * 0.1
    g = Graph(6, [], x)
    params = init_params(3, 4, 2, seed=1, scale=0.5)
    z = encode(g, params, 1.0, 1e-5)
    slope = 0.25
    h = x @ params.theta1.data
    h = np.where(h >= 0, h, slope * h)
    raw = h @ params.theta2.data
    raw = np.where(raw >= 0, raw, slope * raw)
    assert np.max(np.linalg.norm(raw, axis=1)) < (1 - 1e-5)
    assert np.array_equal(z.data, raw)


def test_encode_large_weights_hit_the_margin():
    rng = np.random.default_rng(4)
    g = small_graph(rng, n=8, d_x=3, p=0.5)
    params = init_params(3, 4, 2, seed=2, scale=100.0)
    eps = 1e-5
    z = encode(g, params, 1.0, eps)
    norms = np.linalg.norm(z.data, axis=1)
    assert np.allclose(norms, 1.0 - eps, atol=1e-12)


def test_encode_permutation_equivariance():
    rng = np.random.default_rng(5)
    g = small_graph(rng, n=12, d_x=4, p=0.3)
    params = init_params(4, 6, 3, seed=3)
    z = encode(g, params, 1.0, 1e-5).data
    perm = rng.permutation(12)
    inv = np.argsort(perm)
    # relabel nodes: node i becomes perm[i]
    edges = np.column_stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]])
    gp = Graph(12, edges, g.features[inv])
    zp = encode(gp, params, 1.0, 1e-5).data
    assert np.max(np.abs(zp - z[inv])) < 1e-9


def test_encode_gradients_through_smooth_branch():
    rng = np.random.default_rng(6)
    g = small_graph(rng, n=6, d_x=3, p=0.5)
    params = init_params(3, 4, 2, seed=4, scale=0.5)
    eps = 1e-5
    w = rng.standard_normal((6, 2))

    z0 = encode(g, params, 1.0, eps).data
    margin = np.abs(np.linalg.norm(z0, axis=1) - (1 - eps))
    assert np.min(margin) > 1e-3  # all rows clear of the projection switch

    def with_theta1(t):
        p = init_params(3, 4, 2, seed=4, scale=0.5)
        p.theta1 = t
        return T.sum_all(T.mul(encode(g, p, 1.0, eps), Tensor(w)))

    def with_theta2(t):
        p = init_params(3, 4, 2, seed=4, scale=0.5)
        p.theta2 = t
        return T.sum_all(T.mul(encode(g, p, 1.0, eps), Tensor(w)))

    def with_slope(s):
        p = init_params(3, 4, 2, seed=4, scale=0.5)
        p.slopes = (s, p.slopes[1])
        return T.sum_all(T.mul(encode(g, p, 1.0, eps), Tensor(w)))

    assert finite_diff_check(with_theta1, params.theta1.data) < 1e-5
    assert finite_diff_check(with_theta2, params.theta2.data) < 1e-5
    assert finite_diff_check(with_slope, np.array(0.25)) < 1e-5


def test_loaders_roundtrip(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("# comment\n0 1\n1 2\n\n2 3\n")
    feats = tmp_path / "features.csv"
    feats.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,8.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("label\n0\n1\n0\n1\n")
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps({"train": [0, 1], "val": [2], "test": [3]}))

    g = load_graph(edges, feats, labels, splits)
    assert g.n == 4
    assert g.num_edges == 3
    assert np.array_equal(g.labels, [0, 1, 0, 1])
    assert np.array_equal(g.splits["test"], [3])
    assert g.features.shape == (4, 2)


def test_loader_errors(tmp_path):
    bad_edges = tmp_path / "bad.txt"
    bad_edges.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        load_edge_list(bad_edges)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_feature_csv(empty)
    with pytest.raises(ValueError):
        load_label_csv(empty)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"train": [0]}))
    with pytest.raises(ValueError):
        load_splits_json(missing)
