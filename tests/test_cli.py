"""CLI contract: exit codes, file outputs, determinism, config validation."""
import json

import numpy as np
import pytest

from hypergcl import cli


BASE_CONFIG = {
    "variant": "hypergcl",
    "loss": {"lambda_u": 3.0, "t": 2.0},
    "encoder": {"hidden_dim": 16, "out_dim": 8, "init_scale": 6.0},
    "optimizer": {"learning_rate": 0.01, "steps": 40},
    "dataset": {
        "kind": "balanced_tree",
        "branching": 2,
        "height": 3,
        "feature_noise": 0.5,
        "train_per_class": 3,
    },
    "seed": 0,
    "log_every": 10,
}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    for fname in ("resolved_config.json", "trace.csv", "embeddings.csv", "params.json"):
        assert (out / fname).exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    # defaults are echoed even when missing from the input config
    assert resolved["curvature"] == 1.0
    assert resolved["eps"] == 1e-5
    assert resolved["augment1"]["edge_drop_prob"] == 0.2
    emb = np.loadtxt(out / "embeddings.csv", delimiter=",")
    assert emb.shape == (15, 8)
    assert np.all(np.linalg.norm(emb, axis=1) <= (1 - 1e-5) + 1e-12)


def test_train_rejects_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, extra={"lamda": 1.0})
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "lamda" in capsys.readouterr().err


def test_train_rejects_nested_unknown_key(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["optimizer"]["lr"] = 0.01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "optimizer.lr" in capsys.readouterr().err


def test_train_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 1


def test_train_unwritable_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the directory should go
    rc = cli.main(["train", "--config", cfg, "--out", str(blocker / "sub")])
    assert rc == 2


def test_train_nonfinite_exit_code(tmp_path):
    cfg = write_config(tmp_path, extra={"optimizer": {"learning_rate": 1e160, "steps": 40}})
    out = tmp_path / "boom"
    rc = cli.main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 3
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["error"] == "non-finite loss"
    assert "step" in diag


def test_train_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out2)]) == 0
    for fname in ("trace.csv", "embeddings.csv", "params.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_eval_and_diagnose_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0

    # write labels and splits for the same synthetic dataset
    from hypergcl.trainer import make_synthetic

    g = make_synthetic(
        "balanced_tree",
        {"branching": 2, "height": 3, "feature_noise": 0.5, "train_per_class": 3},
        seed=0,
    )
    labels = tmp_path / "labels.csv"
    labels.write_text("label\n" + "\n".join(str(v) for v in g.labels))
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps({k: v.tolist() for k, v in g.splits.items()}))

    rc = cli.main(
        [
            "eval",
            "--embeddings",
            str(out / "embeddings.csv"),
            "--labels",
            str(labels),
            "--splits",
            str(splits),
            "--curvature",
            "1.0",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= report["accuracy"] <= 1.0

    rc = cli.main(["diagnose", "--embeddings", str(out / "embeddings.csv"), "--curvature", "1.0"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["n"] == 15 and report["dim"] == 8
    assert 1.0 <= report["erank_ambient"] <= 8.0
    assert 1.0 <= report["erank_tangent"] <= 8.0


def test_eval_missing_file_exit(tmp_path):
    rc = cli.main(
        [
            "eval",
            "--embeddings",
            str(tmp_path / "none.csv"),
            "--labels",
            str(tmp_path / "none2.csv"),
            "--splits",
            str(tmp_path / "none3.json"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "rows, problem",
    [("0,0\n0,0\n0,0\n", "all-zero"), ("0.1,nan\n0.2,0.1\n", "non-finite")],
    ids=["all-zero", "non-finite"],
)
def test_diagnose_degenerate_embeddings_exit(tmp_path, capsys, rows, problem):
    emb = tmp_path / "emb.csv"
    emb.write_text(rows)
    assert cli.main(["diagnose", "--embeddings", str(emb)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


@pytest.mark.parametrize(
    "dataset, missing",
    [
        ({"kind": "balanced_tree", "branching": 2}, "height"),
        ({"kind": "sbm", "block_sizes": [5, 5], "p_in": 0.5}, "p_out"),
    ],
    ids=["balanced_tree", "sbm"],
)
def test_train_dataset_missing_key_exit(tmp_path, capsys, dataset, missing):
    cfg = write_config(tmp_path, extra={"dataset": dataset})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"'dataset.{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"optimizer": {"steps": 2.9}}, "optimizer.steps"),
        ({"optimizer": {"steps": True}}, "optimizer.steps"),
        ({"seed": 1.5}, "seed"),
        ({"log_every": "3"}, "log_every"),
        ({"curvature": "nan"}, "curvature"),
    ],
    ids=["float-count", "bool-count", "float-seed", "string-count", "string-float"],
)
def test_train_rejects_mistyped_value(tmp_path, capsys, extra, key):
    cfg = write_config(tmp_path, extra=extra)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not (tmp_path / "x").exists()


def test_parse_config_accepts_well_typed_values():
    cfg, _ = cli.parse_config(
        {"curvature": 2, "loss": {"isotropy_degrade_p": None}, "optimizer": {"steps": 3}}
    )
    assert cfg.curvature == 2.0 and cfg.isotropy_degrade_p is None and cfg.optimizer.steps == 3
    cfg, _ = cli.parse_config({"loss": {"isotropy_degrade_p": 0.5}})
    assert cfg.isotropy_degrade_p == 0.5
    for bad in ({"loss": {"jitter": float("inf")}}, {"eps": 10**400}, {"eps": False}):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(bad)


@pytest.mark.parametrize(
    "labels, splits, problem",
    [
        ([0, 1], {"train": [0, 1], "val": [], "test": [2, 3]}, "2 labels for 4 embedding rows"),
        ([0, 1, 0, 1], {"train": [0, 1], "val": [], "test": [2, 7]}, "split 'test'"),
        ([0, 0, 1, 1], {"train": [0, 1], "val": [], "test": [2, 3]}, "single class"),
        ([-1, 0, -1, 0], {"train": [0, 1], "val": [], "test": [2, 3]}, "nonnegative"),
    ],
    ids=["short-labels", "split-out-of-range", "single-class-train", "negative-label"],
)
def test_eval_inconsistent_inputs_exit(tmp_path, capsys, labels, splits, problem):
    emb = tmp_path / "emb.csv"
    emb.write_text("0.1,0.2\n-0.3,0.1\n0.2,-0.2\n0.0,0.3\n")
    lab = tmp_path / "labels.csv"
    lab.write_text("label\n" + "\n".join(map(str, labels)) + "\n")
    spl = tmp_path / "splits.json"
    spl.write_text(json.dumps(splits))
    args = ["eval", "--embeddings", str(emb), "--labels", str(lab), "--splits", str(spl)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


@pytest.mark.parametrize(
    "flag, value", [("--resolution", "10"), ("--n-radii", "1")], ids=["resolution", "n-radii"]
)
def test_density_grid_too_coarse_exit(tmp_path, capsys, flag, value):
    args = ["density", "--sigma", "1.0", "--curvature", "1.0", "--dim", "1", "--out", str(tmp_path / "x.csv")]
    assert cli.main(args + [flag, value]) == 1
    assert flag in capsys.readouterr().err


def test_density_prints_integral(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    rc = cli.main(["density", "--sigma", "1.0", "--curvature", "1.0", "--dim", "1", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "integral=" in printed
    value = float(printed.split("integral=")[1].split()[0])
    assert abs(value - 1.0) < 1e-3
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "radius,density"
    assert len(lines) == 257


def test_density_near_uniform_profile(tmp_path, capsys):
    out = tmp_path / "p62.csv"
    rc = cli.main(["density", "--sigma", "0.62", "--curvature", "1.0", "--dim", "2", "--out", str(out)])
    assert rc == 0
    rows = np.array(
        [[float(a), float(b)] for a, b in (l.split(",") for l in out.read_text().strip().splitlines()[1:])]
    )
    inner = rows[rows[:, 0] <= 0.85, 1]
    assert inner.max() / inner.min() < 1.5


def test_density_unsupported_dim(tmp_path):
    rc = cli.main(["density", "--sigma", "1.0", "--curvature", "1.0", "--dim", "3", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_density_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert cli.main(["density", "--sigma", "0.5", "--curvature", "1.0", "--dim", "1", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_geometry_suite(tmp_path, capsys):
    import time

    report_path = tmp_path / "report.json"
    t0 = time.time()
    rc = cli.main(["verify", "--suite", "geometry", "--out", str(report_path)])
    assert time.time() - t0 < 300.0
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert all(entry["passed"] for entry in report)
    printed = capsys.readouterr().out
    assert "PASS geometry/mobius-left-cancellation" in printed


def test_verify_detects_mobius_sign_mutation(monkeypatch, capsys):
    # a sign error injected into the Moebius formula must break left
    # cancellation and flip the exit code to 4
    from hypergcl import geometry as geom
    from hypergcl import tensor as T

    original = geom.mobius_add_rows

    def broken(u, v, c):
        c = float(c)
        uv = T.rowdot(u, v)
        u2 = T.rownorm2(u)
        v2 = T.rownorm2(v)
        coef_u = T.sadd(T.smul(uv, 2.0 * c) + T.smul(v2, -c), 1.0)  # wrong sign on c||v||^2
        coef_v = T.sadd(T.smul(u2, -c), 1.0)
        den = T.sadd(T.smul(uv, 2.0 * c) + T.smul(T.mul(u2, v2), c * c), 1.0)
        num = T.rowscale(u, coef_u) + T.rowscale(v, coef_v)
        return T.rowscale(num, T.vrecip(den))

    monkeypatch.setattr(geom, "mobius_add_rows", broken)
    try:
        rc = cli.main(["verify", "--suite", "geometry"])
    finally:
        monkeypatch.setattr(geom, "mobius_add_rows", original)
    assert rc == 4
    assert "FAIL geometry/mobius-left-cancellation" in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweepdir"
    rc = cli.main(
        [
            "sweep",
            "--config",
            cfg,
            "--axis",
            "curvature",
            "--values",
            "0.5,1.0",
            "--seeds",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "value,accuracy,erank_ambient,erank_tangent"
    assert len(lines) == 3
    assert (out / "resolved_config.json").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["train", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "embeddings.csv").read_bytes() != (out2 / "embeddings.csv").read_bytes()
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    assert resolved["seed"] == 5
