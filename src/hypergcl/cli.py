"""Command-line interface: train / eval / diagnose / density / verify / sweep.

All output is CSV or JSON for external plotting.  Every run echoes its fully
resolved configuration to `resolved_config.json`, and identical configs with
identical seeds produce byte-identical output files.

Exit codes: 0 success, 1 config/usage error, 2 dataset or output-path error,
3 non-finite loss, 4 failed verification property.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import density, spectral
from .geometry import Curvature
from .graphnet import AugmentationConfig, load_label_csv, load_splits_json
from .losses import LossWeights
from .trainer import (
    DatasetConfig,
    EncoderConfig,
    EvalConfig,
    ExperimentConfig,
    NonFiniteLossError,
    OptimizerConfig,
    SWEEP_AXES,
    build_dataset,
    final_embedding,
    linear_eval,
    sweep,
    train,
    write_matrix_csv,
    write_sweep_csv,
    write_trace_csv,
)

__all__ = ["main", "entry", "parse_config", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NONFINITE = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending key."""


_DATASET_KEYS = {
    "balanced_tree": {"branching", "height", "feature_noise", "train_per_class"},
    "sbm": {"block_sizes", "p_in", "p_out", "feature_noise", "train_per_class"},
    "files": {"edges", "features", "labels", "splits"},
}

_SCHEMA = {
    "curvature": float,
    "eps": float,
    "variant": str,
    "loss": {
        "lambda_u": float,
        "t": float,
        "target_mean": float,
        "isotropy_degrade_p": (float, None),  # null: no degradation
        "jitter": float,
    },
    "augment1": {"edge_drop_prob": float, "node_drop_prob": float, "seed": int},
    "augment2": {"edge_drop_prob": float, "node_drop_prob": float, "seed": int},
    "encoder": {"hidden_dim": int, "out_dim": int, "prelu_init": float, "init_scale": float},
    "optimizer": {
        "learning_rate": float,
        "steps": int,
        "weight_decay": float,
        "beta1": float,
        "beta2": float,
        "adam_eps": float,
    },
    "eval": {"steps": int, "learning_rate": float, "l2": float},
    "seed": int,
    "log_every": int,
    "dataset": None,  # validated separately per kind
    "out_dir": str,
}


def _is_finite_number(val) -> bool:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer too large for a float
        return False


_TYPE_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_finite_number),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _check_keys(obj: dict, schema: dict, prefix: str = ""):
    """Reject unknown keys and values of the wrong JSON type, by dotted key."""
    for key, val in obj.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key '{path}'")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{path}' must be an object")
            _check_keys(val, sub, prefix=f"{path}.")
        elif sub is not None:
            typ, nullable = (sub[0], True) if isinstance(sub, tuple) else (sub, False)
            if val is None and nullable:
                continue
            what, ok = _TYPE_CHECKS[typ]
            if not ok(val):
                raise ConfigError(
                    f"config key '{path}' must be {what}{' or null' if nullable else ''}, got {val!r}"
                )


def _check_dataset(ds: dict):
    if not isinstance(ds, dict):
        raise ConfigError("config key 'dataset' must be an object")
    kind = ds.get("kind")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"config key 'dataset.kind' must be one of {sorted(_DATASET_KEYS)}")
    allowed = _DATASET_KEYS[kind] | {"kind"}
    for key in ds:
        if key not in allowed:
            raise ConfigError(f"unknown config key 'dataset.{key}'")


def parse_config(raw: dict) -> tuple[ExperimentConfig, str]:
    """Validate a JSON config dict; returns (config, out_dir).

    Unknown keys are rejected by name; missing keys fall back to documented
    defaults (the resolved values are echoed to resolved_config.json).
    """
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(raw, _SCHEMA)
    if "dataset" in raw:
        _check_dataset(raw["dataset"])
    loss = raw.get("loss", {})
    try:
        cfg = ExperimentConfig(
            curvature=float(raw.get("curvature", 1.0)),
            eps=float(raw.get("eps", 1e-5)),
            variant=raw.get("variant", "hypergcl"),
            weights=LossWeights(
                lambda_u=float(loss.get("lambda_u", 1.0)),
                t=float(loss.get("t", 2.0)),
            ),
            target_mean=float(loss.get("target_mean", 0.0)),
            isotropy_degrade_p=(
                None if loss.get("isotropy_degrade_p") is None else float(loss["isotropy_degrade_p"])
            ),
            jitter=float(loss.get("jitter", spectral.DEFAULT_JITTER)),
            augment1=_aug(raw.get("augment1", {}), default_seed=1),
            augment2=_aug(raw.get("augment2", {}), default_seed=2),
            encoder=_encoder(raw.get("encoder", {})),
            optimizer=_optimizer(raw.get("optimizer", {})),
            eval=_eval(raw.get("eval", {})),
            seed=int(raw.get("seed", 0)),
            log_every=int(raw.get("log_every", 10)),
            dataset=_dataset(raw.get("dataset", {"kind": "balanced_tree", "branching": 3, "height": 4})),
        )
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(str(e)) from e
    return cfg, raw.get("out_dir", "")


def _aug(obj: dict, default_seed: int) -> AugmentationConfig:
    return AugmentationConfig(
        edge_drop_prob=float(obj.get("edge_drop_prob", 0.2)),
        node_drop_prob=float(obj.get("node_drop_prob", 0.1)),
        seed=int(obj.get("seed", default_seed)),
    )


def _encoder(obj: dict) -> EncoderConfig:
    return EncoderConfig(
        hidden_dim=int(obj.get("hidden_dim", 256)),
        out_dim=int(obj.get("out_dim", 64)),
        prelu_init=float(obj.get("prelu_init", 0.25)),
        init_scale=float(obj.get("init_scale", 1.0)),
    )


def _optimizer(obj: dict) -> OptimizerConfig:
    return OptimizerConfig(
        learning_rate=float(obj.get("learning_rate", 1e-3)),
        steps=int(obj.get("steps", 500)),
        weight_decay=float(obj.get("weight_decay", 0.0)),
        beta1=float(obj.get("beta1", 0.9)),
        beta2=float(obj.get("beta2", 0.999)),
        adam_eps=float(obj.get("adam_eps", 1e-8)),
    )


def _eval(obj: dict) -> EvalConfig:
    return EvalConfig(
        steps=int(obj.get("steps", 300)),
        learning_rate=float(obj.get("learning_rate", 0.5)),
        l2=float(obj.get("l2", 1e-4)),
    )


def _dataset(obj: dict) -> DatasetConfig:
    obj = dict(obj)
    kind = obj.pop("kind", "balanced_tree")
    return DatasetConfig(kind=kind, params=obj)


def _resolved_dict(cfg: ExperimentConfig, out_dir: str) -> dict:
    def as_dict(dc):
        return {f.name: getattr(dc, f.name) for f in dataclasses.fields(dc)}

    return {
        "curvature": cfg.curvature,
        "eps": cfg.eps,
        "variant": cfg.variant,
        "loss": {
            "lambda_u": cfg.weights.lambda_u,
            "t": cfg.weights.t,
            "target_mean": cfg.target_mean,
            "isotropy_degrade_p": cfg.isotropy_degrade_p,
            "jitter": cfg.jitter,
        },
        "augment1": as_dict(cfg.augment1),
        "augment2": as_dict(cfg.augment2),
        "encoder": as_dict(cfg.encoder),
        "optimizer": as_dict(cfg.optimizer),
        "eval": as_dict(cfg.eval),
        "seed": cfg.seed,
        "log_every": cfg.log_every,
        "dataset": {"kind": cfg.dataset.kind, **cfg.dataset.params},
        "out_dir": out_dir,
    }


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def _ensure_out_dir(out_dir: str):
    if not out_dir:
        raise OSError("no output directory given (set --out or config key 'out_dir')")
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write_probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ commands

def cmd_train(args) -> int:
    try:
        cfg, cfg_out = parse_config(_load_config_file(args.config))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=int(args.seed))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or cfg_out
    try:
        _ensure_out_dir(out_dir)
        graph = build_dataset(cfg.dataset, cfg.seed)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    _write_json(os.path.join(out_dir, "resolved_config.json"), _resolved_dict(cfg, out_dir))
    try:
        params, trace = train(cfg, graph)
    except NonFiniteLossError as e:
        _write_json(
            os.path.join(out_dir, "diagnostic.json"),
            {"error": "non-finite loss", "step": e.step, "reason": e.reason},
        )
        write_trace_csv(e.trace, os.path.join(out_dir, "trace.csv"))
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    write_matrix_csv(final_embedding(cfg, params, graph), os.path.join(out_dir, "embeddings.csv"))
    _write_json(
        os.path.join(out_dir, "params.json"),
        {
            "theta1": params.theta1.data.tolist(),
            "theta2": params.theta2.data.tolist(),
            "prelu_slopes": [float(params.slopes[0]), float(params.slopes[1])],
        },
    )
    print(f"wrote trace.csv, embeddings.csv, params.json to {out_dir}")
    return EXIT_OK


def _load_embeddings(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty embeddings file")
    z = np.asarray(rows, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"{path}: embeddings contain non-finite values")
    return z


def cmd_eval(args) -> int:
    try:
        z = _load_embeddings(args.embeddings)
        labels = load_label_csv(args.labels)
        splits = load_splits_json(args.splits)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        acc = linear_eval(z, labels, splits, curvature=args.curvature)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    print(json.dumps({"accuracy": acc}))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    try:
        z = _load_embeddings(args.embeddings)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    from .geometry import log0_rows
    from .tensor import Tensor

    try:
        report = {
            "erank_ambient": spectral.effective_rank(z),
            "erank_tangent": spectral.effective_rank(log0_rows(Tensor(z), args.curvature).data),
            "mean_norm": float(np.mean(np.sqrt(np.sum(z * z, axis=1)))),
            "n": int(z.shape[0]),
            "dim": int(z.shape[1]),
        }
    except ValueError as e:
        print(f"error: {args.embeddings}: {e}", file=sys.stderr)
        return EXIT_DATA
    if args.out:
        try:
            _write_json(args.out, report)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_DATA
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_density(args) -> int:
    if args.dim not in (1, 2):
        print(f"error: unsupported dimension {args.dim} (quadrature supports 1 and 2)", file=sys.stderr)
        return EXIT_CONFIG
    if args.sigma <= 0.0 or args.curvature <= 0.0:
        print("error: sigma and curvature must be positive", file=sys.stderr)
        return EXIT_CONFIG
    spec = density.AmbientDensitySpec(
        np.zeros(args.dim), args.sigma ** 2 * np.eye(args.dim), Curvature(args.curvature)
    )
    # dim, sigma and curvature are checked above, so a ValueError here is
    # about the grid size named by the flag
    try:
        integral = density.integrate_density(spec, resolution=args.resolution)
    except ValueError as e:
        print(f"error: --resolution {args.resolution}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        table = density.density_profile(spec, n_radii=args.n_radii)
    except ValueError as e:
        print(f"error: --n-radii {args.n_radii}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        density.write_profile_csv(args.out, table)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    print(f"integral={integral:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    try:
        results = run_suite(args.suite)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    report = [
        {"suite": r.suite, "property": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.name}: {r.detail}")
    if args.out:
        try:
            _write_json(args.out, report)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_DATA
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_sweep(args) -> int:
    try:
        cfg, cfg_out = parse_config(_load_config_file(args.config))
        values = [float(v) for v in args.values.split(",") if v != ""]
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
        if not values:
            raise ConfigError("--values must list at least one number")
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or cfg_out
    try:
        _ensure_out_dir(out_dir)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    _write_json(os.path.join(out_dir, "resolved_config.json"), _resolved_dict(cfg, out_dir))
    try:
        rows = sweep(cfg, args.axis, values, seeds=seeds)
    except NonFiniteLossError as e:
        _write_json(
            os.path.join(out_dir, "diagnostic.json"),
            {"error": "non-finite loss", "step": e.step, "reason": e.reason},
        )
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"))
    print(f"wrote sweep.csv to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypergcl",
        description="Hyperbolic graph contrastive learning: training, diagnostics and density tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an encoder from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="linear evaluation of saved embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--curvature", type=float, default=None, help="map by log0 before the probe")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diagnose", help="effective ranks of a saved embedding matrix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--curvature", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("density", help="radial profile and integral of the push-forward density")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--curvature", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--n-radii", type=int, default=256)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all", choices=["geometry", "autodiff", "density", "spectral", "all"])
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweep over one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--seeds", default=None, help="comma-separated seeds (averaged)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    return args.fn(args)


def entry() -> None:
    sys.exit(main())
