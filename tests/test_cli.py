"""CLI contract: exit codes, file outputs, determinism, config validation."""
import copy
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypergcl import cli
from hypergcl.trainer import ExperimentConfig, OptimizerConfig, train


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
    assert resolved["loss"]["target_mean"] == 0.0
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


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # stands in for a 9 TiB `np.arange` from a height-25 tree: a real request
    # that large may be granted by an overcommitting kernel and then filled
    def too_big(spec, seed):
        raise MemoryError("Unable to allocate 9.25 TiB for an array with shape (1270932914163,)")

    monkeypatch.setattr(cli, "build_dataset", too_big)
    assert cli.main(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 9.25 TiB for an array with shape (1270932914163,)\n"
    assert not (tmp_path / "out").exists()


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
    from hypergcl.trainer import BalancedTree, build_dataset

    g = build_dataset(BalancedTree(2, 3, feature_noise=0.5, train_per_class=3), seed=0)
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


def test_eval_without_curvature_takes_rows_of_any_norm(tmp_path, capsys):
    # Euclidean embeddings have no ball: only --curvature refuses rows outside it
    _failure_inputs(tmp_path)
    argv = ["eval", "--embeddings", str(tmp_path / "outside.csv"), "--labels", str(tmp_path / "y4.csv"),
            "--splits", str(tmp_path / "s.json")]
    assert cli.main(argv) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["accuracy"] <= 1.0


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
        ({"kind": "files", "features": "x.csv"}, "edges"),
    ],
    ids=["balanced_tree", "sbm", "files"],
)
def test_train_dataset_missing_key_exit(tmp_path, capsys, dataset, missing):
    cfg = write_config(tmp_path, extra={"dataset": dataset})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert f"'dataset.{missing}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
    # a non-finite number, an integer too large for a float and a bool are refused by the type check
    for bad, key in (
        ({"loss": {"target_mean": float("inf")}}, "loss.target_mean"),
        ({"curvature": 10**400}, "curvature"),
        ({"curvature": False}, "curvature"),
    ):
        with pytest.raises(cli.ConfigError, match=f"config key '{key}' must be a finite number"):
            cli.parse_config(bad)


# The resolved config of an empty config file: the one place the tests state
# every default.
DEFAULTS = {
    "curvature": 1.0,
    "variant": "hypergcl",
    "loss": {"lambda_u": 1.0, "t": 2.0, "target_mean": 0.0, "isotropy_degrade_p": None},
    "augment1": {"edge_drop_prob": 0.2, "node_drop_prob": 0.1, "seed": 1},
    "augment2": {"edge_drop_prob": 0.2, "node_drop_prob": 0.1, "seed": 2},
    "encoder": {"hidden_dim": 256, "out_dim": 64, "init_scale": 1.0},
    "optimizer": {"learning_rate": 1e-3, "steps": 500},
    "seed": 0,
    "log_every": 10,
    "dataset": {"kind": "balanced_tree", "branching": 3, "height": 4, "feature_noise": 0.3, "train_per_class": 10},
    "out_dir": "",
}

# Every key set, with integers given for float keys.
EVERY_KEY_CONFIG = {
    "curvature": 2,
    "variant": "hyperbolic-naive-uniformity",
    "loss": {"lambda_u": 2, "t": 3, "target_mean": 1, "isotropy_degrade_p": 1},
    "augment1": {"edge_drop_prob": 0, "node_drop_prob": 0.3, "seed": 7},
    "augment2": {"edge_drop_prob": 0.4, "node_drop_prob": 0, "seed": 8},
    "encoder": {"hidden_dim": 12, "out_dim": 6, "init_scale": 3},
    "optimizer": {"learning_rate": 1, "steps": 5},
    "seed": 4,
    "log_every": 2,
    "dataset": {"kind": "balanced_tree", "branching": 2, "height": 2, "feature_noise": 1, "train_per_class": 2},
    "out_dir": "somewhere",
}


def _canonical(obj) -> str:
    # json text tells 1 from 1.0, which == does not
    return json.dumps(obj, sort_keys=True)


def test_resolved_defaults_golden():
    assert _canonical(cli._resolved_dict(*cli.parse_config({}))) == _canonical(DEFAULTS)
    # an empty section takes the same defaults, augment1/augment2 seeds included
    sections = {k: {} for k, v in DEFAULTS.items() if isinstance(v, dict) and k != "dataset"}
    assert _canonical(cli._resolved_dict(*cli.parse_config(sections))) == _canonical(DEFAULTS)


def _readme_defaults() -> dict:
    """The README's config-defaults block, `section: key value, …` lines, as a resolved-config dict."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Config keys and defaults", 1)[1].split("```", 2)[1]
    out = {}
    for line in block.strip().splitlines():
        section, colon, items = line.partition(":")
        target = out.setdefault(section, {}) if colon else out
        for item in (items if colon else line).split(","):
            key, value = item.split(maxsplit=1)
            target[key] = json.loads(value)
    return out


def test_readme_defaults_block_names_exactly_the_resolved_defaults():
    assert _canonical(_readme_defaults()) == _canonical(cli._resolved_dict(*cli.parse_config({})))


@pytest.mark.parametrize(
    "raw",
    [
        BASE_CONFIG,
        EVERY_KEY_CONFIG,
        {**BASE_CONFIG, "dataset": {"kind": "sbm", "block_sizes": [5, 5], "p_in": 0.5, "p_out": 0.1}},
        {**BASE_CONFIG, "dataset": {"kind": "files", "edges": "e.txt", "features": "x.csv", "labels": "y.csv"}},
        {**BASE_CONFIG, "dataset": {"kind": "files", "edges": "e.txt", "features": "x.csv"}},
    ],
    ids=["base", "every-key", "sbm", "files", "files-no-labels"],
)
def test_resolved_config_parses_back_to_the_same_config(raw):
    cfg, out = cli.parse_config(raw)
    resolved = cli._resolved_dict(cfg, out)
    assert cli.parse_config(resolved) == (cfg, out)
    # the dataset section echoes every key given, and the defaults of the others
    fields = {f.name for f in dataclasses.fields(cfg.dataset)}
    assert set(resolved["dataset"]) == {"kind", *fields}
    assert {k: resolved["dataset"][k] for k in raw["dataset"]} == raw["dataset"]
    # every value has its default's type: an integer given for a float key is stored as float
    default_types = {path: float if v is None else type(v) for path, v in _leaves(DEFAULTS)}
    for path, val in _leaves(resolved):
        if path in default_types:
            assert val is None or type(val) is default_types[path], path


def _leaves(obj, prefix=""):
    for key, val in obj.items():
        if isinstance(val, dict):
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", val


@pytest.mark.parametrize("path, default", list(_leaves(DEFAULTS)), ids=[p for p, _ in _leaves(DEFAULTS)])
def test_every_key_rejects_a_mistyped_value(tmp_path, capsys, path, default):
    if isinstance(default, str):
        wrong = 1
    elif isinstance(default, int):
        wrong = 2.5
    else:  # float keys, and isotropy_degrade_p (float or null)
        wrong = True
    raw = copy.deepcopy(DEFAULTS)
    *sections, key = path.split(".")
    target = raw
    for name in sections:
        target = target[name]
    target[key] = wrong
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key '{path}'" in err
    assert not (tmp_path / "x").exists()


# Values that are constants in code, not config keys: the ball margin, the
# isotropy jitter, the PReLU init, Adam's settings, weight decay and the
# probe's schedule.  A config that sets one, even to the constant's own
# value, is refused by name.
REMOVED_KEYS = {
    "eps": 1e-5,
    "loss.jitter": 1e-6,
    "encoder.prelu_init": 0.25,
    "optimizer.weight_decay": 0.0,
    "optimizer.beta1": 0.9,
    "optimizer.beta2": 0.999,
    "optimizer.adam_eps": 1e-8,
    "eval.steps": 300,
    "eval.learning_rate": 0.5,
    "eval.l2": 1e-4,
}


@pytest.mark.parametrize("path, value", REMOVED_KEYS.items(), ids=list(REMOVED_KEYS))
def test_removed_key_is_refused_by_name(tmp_path, capsys, path, value):
    section, _, key = path.rpartition(".")
    raw = copy.deepcopy(BASE_CONFIG)
    if section:
        raw.setdefault(section, {})[key] = value
    else:
        raw[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    # the whole eval section is gone, so it is named as the unknown key
    named = "eval" if section == "eval" else path
    assert capsys.readouterr().err == f"error: unknown config key '{named}'\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", ["weights", "jitter", "target_mean"])
def test_loss_fields_are_only_read_from_the_loss_section(key):
    with pytest.raises(cli.ConfigError, match=f"unknown config key '{key}'"):
        cli.parse_config({key: {} if key == "weights" else 0.0})


@pytest.mark.parametrize(
    "dataset, key",
    [
        ({"kind": "balanced_tree", "branching": 2.9, "height": 3}, "branching"),
        ({"kind": "balanced_tree", "branching": "3", "height": 3}, "branching"),
        ({"kind": "sbm", "block_sizes": [5.7, 5], "p_in": 0.5, "p_out": 0.1}, "block_sizes"),
        ({"kind": "balanced_tree", "branching": 2, "height": 3, "train_per_class": 2.5}, "train_per_class"),
        ({"kind": "files", "edges": 0, "features": "x.csv"}, "edges"),
    ],
    ids=["float-branching", "string-branching", "float-block-size", "float-train-per-class", "int-edges-path"],
)
def test_train_rejects_mistyped_dataset_value(tmp_path, capsys, dataset, key):
    cfg = write_config(tmp_path, extra={"dataset": dataset})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key 'dataset.{key}' must be ")
    assert not (tmp_path / "x").exists()


def test_train_runs_on_the_default_dataset():
    params, trace = train(ExperimentConfig(optimizer=OptimizerConfig(steps=1)))
    # balanced_tree with branching 3: three classes, so three one-hot features
    assert params.theta1.data.shape == (3, 256)
    assert [r.step for r in trace.records] == [0]


@pytest.mark.parametrize("module", ["hypergcl", "hypergcl.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", module, "train", "--config", str(tmp_path / "missing.json")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")


def test_train_does_not_import_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma (numpy 2.4), which training has no use for
    cfg = write_config(tmp_path, extra={"optimizer": {"learning_rate": 0.01, "steps": 2}})
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys; from hypergcl import cli; print(cli.main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe, "train", "--config", cfg, "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


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
        coef_u = T.sadd(T.add(T.smul(uv, 2.0 * c), T.smul(v2, -c)), 1.0)  # wrong sign on c||v||^2
        coef_v = T.sadd(T.smul(u2, -c), 1.0)
        den = T.sadd(T.add(T.smul(uv, 2.0 * c), T.smul(T.mul(u2, v2), c * c)), 1.0)
        num = T.add(T.rowscale(u, coef_u), T.rowscale(v, coef_v))
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


# ------------------------------------------------------------ failure contract

# (id, command line, exit code, part of the one `error:` line); {t} is the test's directory in either
FAILURES = [
    ("train-absent-config", "train --config {t}/absent.json --out {t}/out", 1, "cannot read config file"),
    ("train-broken-config", "train --config {t}/broken.json --out {t}/out", 1, "broken.json: config is not valid JSON"),
    ("train-config-not-utf8", "train --config {t}/cfg-utf16.json --out {t}/out", 1,
     "cfg-utf16.json: not UTF-8 text (byte 0xff: invalid start byte)"),
    ("train-config-latin1", "train --config {t}/cfg-latin1.json --out {t}/out", 1,
     "cfg-latin1.json: not UTF-8 text (byte 0xe9: invalid continuation byte)"),
    ("train-unknown-key", "train --config {t}/unknown.json --out {t}/out", 1, "unknown config key 'lamda'"),
    ("train-negative-seed", "train --config {t}/base.json --out {t}/out --seed -1", 1, "--seed -1: seed must be"),
    ("train-no-out", "train --config {t}/base.json", 2, "no output directory given"),
    ("train-no-config", "train --out {t}/out", 1, "the following arguments are required: --config"),
    ("train-seed-not-int", "train --config {t}/base.json --out {t}/out --seed abc", 1,
     "argument --seed: invalid int value: 'abc'"),
    ("unknown-command", "bogus --out {t}/out", 1, "argument command: invalid choice: 'bogus'"),
    ("train-unwritable-out", "train --config {t}/base.json --out {t}/blocker/sub", 2, "blocker"),
    ("train-missing-key", "train --config {t}/no-height.json --out {t}/out", 1, "key 'dataset.height'"),
    ("train-branching-1", "train --config {t}/branching-1.json --out {t}/out", 1,
     "balanced_tree needs branching >= 2 and height >= 2"),
    ("train-p-out-not-below-p-in", "train --config {t}/p-out.json --out {t}/out", 1, "sbm requires 0 <= p_out < p_in <= 1"),
    ("train-train-per-class-0", "train --config {t}/train-per-class-0.json --out {t}/out", 1,
     "train_per_class must be >= 1"),
    ("train-absent-dataset-file", "train --config {t}/absent-files.json --out {t}/out", 2, "absent-edges.txt"),
    ("train-nonfinite", "train --config {t}/nonfinite.json --out {t}/out", 3, "non-finite loss at step"),
    # the first Adam update overflows to inf: the update and the step are named, with no traceback or warning
    ("train-adam-overflow", "train --config {t}/adam-overflow.json --out {t}/out", 3,
     "non-finite update at step 0: tensor initialized with non-finite values"),
    ("eval-absent-file", "eval --embeddings {t}/absent.csv --labels {t}/y.csv --splits {t}/s.json", 2, "absent.csv"),
    ("eval-short-labels", "eval --embeddings {t}/emb.csv --labels {t}/y.csv --splits {t}/s.json", 2, "2 labels for 4"),
    ("eval-probe-overflow", "eval --embeddings {t}/emb-1e160.csv --labels {t}/y4.csv --splits {t}/s.json", 2,
     "the linear probe overflowed to non-finite weights; the largest |embedding| entry is 3e+159"),
    *[(f"{cmd}-curvature-{v}", f"{cmd} --embeddings {{t}}/emb.csv{extra} --curvature {v}", 1,
       f"argument --curvature: curvature must be a positive real, got {float(v)}")
      for cmd, extra in (("eval", " --labels {t}/y4.csv --splits {t}/s.json"), ("diagnose", ""))
      for v in ("-1", "0", "nan", "inf")],
    ("diagnose-absent-file", "diagnose --embeddings {t}/absent.csv", 2, "absent.csv"),
    ("eval-outside-ball", "eval --embeddings {t}/outside.csv --labels {t}/y4.csv --splits {t}/s.json --curvature 1",
     2, "outside.csv: 2 of 4 rows lie on or outside the ball of curvature 1.0 (c*||z||^2 >= 1), first row 0"),
    ("diagnose-outside-ball", "diagnose --embeddings {t}/outside.csv", 2,
     "outside.csv: 2 of 4 rows lie on or outside the ball of curvature 1.0 (c*||z||^2 >= 1), first row 0"),
    ("diagnose-on-boundary", "diagnose --embeddings {t}/boundary.csv", 2, "boundary.csv: 1 of 2 rows lie on or outside"),
    ("diagnose-outside-curved-ball", "diagnose --embeddings {t}/emb.csv --curvature 20", 2,
     "emb.csv: 4 of 4 rows lie on or outside the ball of curvature 20.0"),
    ("diagnose-all-zero", "diagnose --embeddings {t}/zero.csv", 2, "zero.csv: effective rank of an all-zero"),
    ("diagnose-unwritable-out", "diagnose --embeddings {t}/emb.csv --out {t}/blocker/d.json", 2, "blocker"),
    ("density-dim", "density --sigma 1 --curvature 1 --dim 3 --out {t}/out", 1, "unsupported dimension 3"),
    *[(f"density-sigma{suffix}", f"density --sigma {v} --curvature 1 --dim 1 --out {{t}}/out", 1,
       f"--sigma {float(v)}: sigma must be positive, with a finite normal square")
      for suffix, v in (("", "0"), ("-nan", "nan"), ("-inf", "inf"), ("-negative", "-2"),
                        ("-square-overflows", "1e200"), ("-square-underflows", "1e-200"),
                        ("-square-subnormal", "1e-155"))],
    ("density-curvature", "density --sigma 1 --curvature 0 --dim 1 --out {t}/out", 1,
     "argument --curvature: curvature must be a positive real, got 0.0"),
    # the grid is fixed (2048 cells, 256 radii), so these flags are unknown
    ("density-resolution", "density --sigma 1 --curvature 1 --dim 1 --out {t}/out --resolution 10", 1,
     "unrecognized arguments: --resolution 10"),
    ("density-n-radii", "density --sigma 1 --curvature 1 --dim 1 --out {t}/out --n-radii 1", 1,
     "unrecognized arguments: --n-radii 1"),
    ("density-unwritable-out", "density --sigma 1 --curvature 1 --dim 1 --out {t}/blocker/p.csv", 2, "blocker"),
    ("verify-unwritable-out", "verify --suite geometry --out {t}/blocker/r.json", 2, "blocker"),
    ("sweep-broken-config", "sweep --config {t}/broken.json --axis curvature --values 1 --out {t}/out", 1,
     "not valid JSON"),
    ("sweep-config-not-utf8", "sweep --config {t}/cfg-utf16.json --axis curvature --values 1 --out {t}/out", 1,
     "cfg-utf16.json: not UTF-8 text (byte 0xff: invalid start byte)"),
    ("sweep-no-values", "sweep --config {t}/base.json --axis curvature --values '' --out {t}/out", 1, "at least one"),
    ("sweep-bad-value", "sweep --config {t}/base.json --axis curvature --values 1,x --out {t}/out", 1, "to float: 'x'"),
    ("sweep-bad-seed", "sweep --config {t}/base.json --axis curvature --values 1 --seeds 0,0.5 --out {t}/out", 1,
     "invalid literal for int()"),
    ("sweep-refused-value", "sweep --config {t}/base.json --axis gaussian_isotropy --values 0.5,2 --out {t}/out", 1,
     "--values 2.0: isotropy_degrade_p must lie in [0, 1]"),
    ("sweep-refused-curvature", "sweep --config {t}/base.json --axis curvature --values 1,-1 --out {t}/out", 1,
     "--values -1.0: curvature must be positive"),
    *[(f"sweep-{axis}-{v}", f"sweep --config {{t}}/base.json --axis {axis} --values 1,{v} --out {{t}}/out", 1,
       f"--values {v}: {problem}")
      for axis, problem in (("curvature", "curvature must be positive"), ("gaussian_mean", "target_mean must be finite"))
      for v in ("inf", "nan")],
    ("sweep-negative-seed", "sweep --config {t}/base.json --axis curvature --values 1 --seeds 0,-1 --out {t}/out", 1,
     "--seeds -1: seed must be nonnegative"),
    ("sweep-missing-key", "sweep --config {t}/no-height.json --axis curvature --values 1 --out {t}/out", 1,
     "key 'dataset.height'"),
    ("sweep-unwritable-out", "sweep --config {t}/base.json --axis curvature --values 1 --out {t}/blocker/sub", 2,
     "blocker"),
    ("sweep-absent-dataset-file", "sweep --config {t}/absent-files.json --axis curvature --values 1 --out {t}/out", 2,
     "absent-edges.txt"),
    ("sweep-nonfinite", "sweep --config {t}/nonfinite.json --axis curvature --values 1 --out {t}/out", 3,
     "non-finite loss at step"),
    # BalancedTree(2, 2) at the default train_per_class 10: all 7 nodes train, so the probe cannot run
    ("sweep-empty-test-split", "sweep --config {t}/tree-2-2.json --axis curvature --values 1 --out {t}/out", 2,
     "train and test splits must be nonempty, got 7 train and 0 test nodes"),
    # a malformed dataset file names itself, and the line for edge lists and CSVs
    *[(f"train-files-{name}", f"train --config {{t}}/files-{name}.json --out {{t}}/out", 2, problem)
      for name, problem in (("edge-not-int", "e-bad.txt:2: node ids must be integers, got '1 x'"),
                            ("feature-not-number", "x-bad.csv:3: features must be numbers, got ['0.3', 'abc']"),
                            ("features-ragged", "x-ragged.csv:3: expected 2 features, got 1"),
                            *((f"feature-{v}", f"x-{v}.csv:3: features must be finite numbers, got ['0.3', '{v}']")
                              for v in ("nan", "inf", "1e400")),
                            ("label-not-int", "y-bad.csv:3: labels must be integers, got '1.5'"),
                            ("splits-not-object", "s-5.json: expected a JSON object with keys train/val/test"),
                            ("features-not-utf8", "x-utf16.csv: not UTF-8 text (byte 0xff: invalid start byte)"),
                            ("edges-not-utf8", "e-utf16.txt: not UTF-8 text (byte 0xff: invalid start byte)"),
                            ("labels-not-utf8", "y-utf16.csv: not UTF-8 text (byte 0xff: invalid start byte)"))],
    # files that disagree with each other name both
    *[(f"train-files-{name}", f"train --config {{t}}/files-{name}.json --out {{t}}/out", 2, problem)
      for name, problem in (("edge-beyond-features", "e-far.txt: node 9 is not one of the 4 rows of {t}/x4.csv"),
                            ("edge-negative", "e-negative.txt: node -1 is not one of the 4 rows of {t}/x4.csv"),
                            ("labels-short", "y.csv: 2 labels for the 4 rows of {t}/x4.csv"),
                            ("split-beyond-features",
                             "s-far.json: split 'test' names a node outside the 4 rows of {t}/x4.csv"))],
    *[(f"{cmd}-embeddings-not-utf8", f"{cmd} --embeddings {{t}}/emb-utf16.csv{extra}", 2,
       "emb-utf16.csv: not UTF-8 text (byte 0xff: invalid start byte)")
      for cmd, extra in (("eval", " --labels {t}/y4.csv --splits {t}/s.json"), ("diagnose", ""))],
    ("eval-label-not-int", "eval --embeddings {t}/emb.csv --labels {t}/y-bad.csv --splits {t}/s.json", 2,
     "y-bad.csv:3: labels must be integers, got '1.5'"),
    *[(f"eval-splits-{name}", f"eval --embeddings {{t}}/emb.csv --labels {{t}}/y4.csv --splits {{t}}/s-{name}.json",
       2, f"s-{name}.json: {problem}")
      for name, problem in (("5", "expected a JSON object with keys train/val/test, got 5"),
                            ("null", "expected a JSON object with keys train/val/test, got None"),
                            ("object", "split 'train' must be a list of integers, got {'a': 1}"),
                            ("nested", "split 'test' must be a list of integers, got [3]"),
                            ("float", "split 'test' must be a list of integers, got 2.0"),
                            ("broken", "not valid JSON"),
                            ("utf16", "not UTF-8 text (byte 0xff: invalid start byte)"))],
    ("eval-embedding-not-number", "eval --embeddings {t}/emb-bad.csv --labels {t}/y4.csv --splits {t}/s.json", 2,
     "emb-bad.csv:2: embeddings must be numbers, got '0.1,x'"),
    ("diagnose-embeddings-ragged", "diagnose --embeddings {t}/emb-ragged.csv", 2,
     "emb-ragged.csv:2: expected 2 columns, got 1"),
]


def _failure_inputs(tmp_path):
    write_config(tmp_path, name="base.json")
    write_config(tmp_path, extra={"lamda": 1.0}, name="unknown.json")
    write_config(tmp_path, extra={"dataset": {"kind": "balanced_tree", "branching": 2}}, name="no-height.json")
    write_config(tmp_path, extra={"dataset": {"kind": "balanced_tree", "branching": 1, "height": 3}},
                 name="branching-1.json")
    write_config(tmp_path, extra={"dataset": {"kind": "sbm", "block_sizes": [5, 5], "p_in": 0.1, "p_out": 0.1}},
                 name="p-out.json")
    write_config(tmp_path, extra={"dataset": {**BASE_CONFIG["dataset"], "train_per_class": 0}},
                 name="train-per-class-0.json")
    write_config(tmp_path, extra={"dataset": {"kind": "files", "edges": str(tmp_path / "absent-edges.txt"),
                                              "features": str(tmp_path / "emb.csv")}}, name="absent-files.json")
    write_config(tmp_path, extra={"optimizer": {"learning_rate": 1e160, "steps": 40}}, name="nonfinite.json")
    write_config(tmp_path, extra={"encoder": {"hidden_dim": 8, "out_dim": 4},
                                  "optimizer": {"learning_rate": 1.7e308, "steps": 5},
                                  "dataset": {"kind": "balanced_tree", "branching": 2, "height": 2}},
                 name="adam-overflow.json")
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "blocker").write_text("")  # a file where a directory should go
    (tmp_path / "zero.csv").write_text("0,0\n0,0\n0,0\n")
    (tmp_path / "emb.csv").write_text("0.1,0.2\n-0.3,0.1\n0.2,-0.2\n0.0,0.3\n")
    (tmp_path / "emb-1e160.csv").write_text("0.1e160,0.2e160\n-0.3e160,0.1e160\n0.2e160,-0.2e160\n0.0,0.3e160\n")
    (tmp_path / "outside.csv").write_text("3.0,0.0\n0.1,0.2\n0.0,-2.04\n0.0,0.3\n")  # norms 3.0 and 2.04
    (tmp_path / "boundary.csv").write_text("0.1,0.2\n1.0,0.0\n")
    (tmp_path / "y.csv").write_text("label\n0\n1\n")
    (tmp_path / "y4.csv").write_text("label\n0\n1\n0\n1\n")
    (tmp_path / "s.json").write_text(json.dumps({"train": [0, 1], "val": [], "test": [2, 3]}))
    write_config(tmp_path, extra={"dataset": {"kind": "balanced_tree", "branching": 2, "height": 2}},
                 name="tree-2-2.json")
    (tmp_path / "e4.txt").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "x4.csv").write_text("a,b\n0.1,0.2\n-0.3,0.1\n0.2,-0.2\n0.0,0.3\n")
    (tmp_path / "e-bad.txt").write_text("0 1\n1 x\n")
    (tmp_path / "x-bad.csv").write_text("a,b\n0.1,0.2\n0.3,abc\n")
    (tmp_path / "x-ragged.csv").write_text("a,b\n0.1,0.2\n0.3\n")
    for v in ("nan", "inf", "1e400"):
        (tmp_path / f"x-{v}.csv").write_text(f"a,b\n0.1,0.2\n0.3,{v}\n")
    (tmp_path / "y-bad.csv").write_text("label\n0\n1.5\n0\n1\n")
    (tmp_path / "s-5.json").write_text("5")
    (tmp_path / "s-null.json").write_text("null")
    (tmp_path / "s-object.json").write_text(json.dumps({"train": {"a": 1}, "val": [], "test": [2, 3]}))
    (tmp_path / "s-nested.json").write_text(json.dumps({"train": [0, 1], "val": [], "test": [[3]]}))
    (tmp_path / "s-float.json").write_text(json.dumps({"train": [0, 1], "val": [], "test": [2.0, 3]}))
    (tmp_path / "s-broken.json").write_text("{")
    (tmp_path / "emb-bad.csv").write_text("0.2,0.1\n0.1,x\n")
    (tmp_path / "emb-ragged.csv").write_text("0.2,0.1\n0.1\n")
    for name, text in (("x-utf16.csv", "a,b\n0.1,0.2\n"), ("e-utf16.txt", "0 1\n"), ("y-utf16.csv", "label\n0\n"),
                       ("emb-utf16.csv", "0.1,0.2\n"), ("s-utf16.json", '{"train": [0], "val": [], "test": [1]}'),
                       ("cfg-utf16.json", json.dumps(BASE_CONFIG))):
        (tmp_path / name).write_bytes(text.encode("utf-16"))  # starts with the bytes ff fe
    (tmp_path / "cfg-latin1.json").write_bytes('{"out_dir": "café"}'.encode("latin-1"))
    (tmp_path / "e-far.txt").write_text("0 1\n1 9\n")
    (tmp_path / "e-negative.txt").write_text("0 1\n-1 2\n")
    (tmp_path / "s-far.json").write_text(json.dumps({"train": [0, 1], "val": [], "test": [2, 7]}))
    files = {"edges": "e4.txt", "features": "x4.csv", "labels": "y4.csv", "splits": "s.json"}
    for name, bad in (("edge-not-int", {"edges": "e-bad.txt"}), ("feature-not-number", {"features": "x-bad.csv"}),
                      ("features-ragged", {"features": "x-ragged.csv"}), ("label-not-int", {"labels": "y-bad.csv"}),
                      *((f"feature-{v}", {"features": f"x-{v}.csv"}) for v in ("nan", "inf", "1e400")),
                      ("splits-not-object", {"splits": "s-5.json"}), ("features-not-utf8", {"features": "x-utf16.csv"}),
                      ("edges-not-utf8", {"edges": "e-utf16.txt"}), ("labels-not-utf8", {"labels": "y-utf16.csv"}),
                      ("edge-beyond-features", {"edges": "e-far.txt"}), ("edge-negative", {"edges": "e-negative.txt"}),
                      ("labels-short", {"labels": "y.csv"}), ("split-beyond-features", {"splits": "s-far.json"})):
        paths = {k: str(tmp_path / v) for k, v in {**files, **bad}.items()}
        write_config(tmp_path, extra={"dataset": {"kind": "files", **paths}}, name=f"files-{name}.json")


@pytest.mark.parametrize("command, code, message", [f[1:] for f in FAILURES], ids=[f[0] for f in FAILURES])
def test_every_failure_gets_its_exit_code_and_one_error_line(tmp_path, capsys, command, code, message):
    _failure_inputs(tmp_path)
    assert cli.main(shlex.split(command.format(t=tmp_path))) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and message.replace("{t}", str(tmp_path)) in line
    if code == 1 or (code == 2 and command.startswith(("train", "sweep"))):
        # refused before anything is written: no output directory, so no resolved_config.json
        assert not (tmp_path / "out").exists()
    if code == 3:
        # "non-finite loss" or "non-finite update", as the row's line says
        error = message.split(" at step")[0]
        assert json.loads((tmp_path / "out" / "diagnostic.json").read_text())["error"] == error
        assert (tmp_path / "out" / "trace.csv").exists() == command.startswith("train")  # train's partial trace


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]], ids=["top", "train"])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hypergcl")


class _Stop(BaseException):
    """Stands in for an exception no handler in the package may catch."""


@pytest.mark.parametrize("exc", [KeyboardInterrupt, TypeError, _Stop])
def test_other_exceptions_propagate_out_of_main(tmp_path, monkeypatch, exc):
    def interrupted(*args, **kwargs):
        raise exc("stop")

    monkeypatch.setattr(cli, "train", interrupted)
    with pytest.raises(exc):
        cli.main(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")])


def test_diagnose_reads_what_the_trace_logged(tmp_path, capsys):
    # `diagnose` and the training log share one function, so the saved final
    # embeddings give back the last trace record's values exactly
    out = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert cli.main(["diagnose", "--embeddings", str(out / "embeddings.csv"), "--curvature", "1.0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    header, *rows = (out / "trace.csv").read_text().splitlines()
    last = dict(zip(header.split(","), map(float, rows[-1].split(","))))
    for key in ("erank_ambient", "erank_tangent", "mean_norm"):
        assert report[key] == last[key], key
