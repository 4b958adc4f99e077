"""Command-line interface: train / eval / diagnose / density / verify / sweep.

All output is CSV or JSON for external plotting.  Every run echoes its fully
resolved configuration to `resolved_config.json`, and identical configs with
identical seeds produce byte-identical output files.  The config's keys,
their types and their defaults are read from the config dataclasses
(`trainer.ExperimentConfig` and the ones it nests) and the dataset keys
from `trainer.DATASET_KEYS`; this module states none of them.

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
import typing

import numpy as np

from . import density, spectral
from .geometry import Curvature
from .graphnet import load_label_csv, load_splits_json
from .trainer import (
    DATASET_KEYS,
    ExperimentConfig,
    NonFiniteLossError,
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


# The JSON "loss" section holds the LossWeights fields and these
# ExperimentConfig fields; every other section is one config dataclass.
_LOSS_FIELDS = ("target_mean", "isotropy_degrade_p", "jitter")


def _field_types(cls) -> dict:
    """Field name -> type of a config dataclass; nested dataclasses become dicts."""
    return {
        name: _field_types(typ) if dataclasses.is_dataclass(typ) else typ
        for name, typ in typing.get_type_hints(cls).items()
    }


def _json_types() -> dict:
    """Config file key -> type, or a dict of them for a section."""
    types = _field_types(ExperimentConfig)
    del types["dataset"]  # checked per kind against DATASET_KEYS
    types["loss"] = {**types.pop("weights"), **{k: types.pop(k) for k in _LOSS_FIELDS}}
    types["out_dir"] = str
    return types


_JSON_TYPES = _json_types()


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


def _check_value(path: str, typ, val):
    """val, stored as float for a float key; ConfigError if its JSON type is wrong."""
    nullable = type(None) in typing.get_args(typ)  # Optional[float]
    if nullable:
        if val is None:
            return None
        typ = float
    what, ok = _TYPE_CHECKS[typ]
    if not ok(val):
        raise ConfigError(f"config key '{path}' must be {what}{' or null' if nullable else ''}, got {val!r}")
    return float(val) if typ is float else val


def _checked(obj: dict, types: dict, prefix: str = "") -> dict:
    """obj with its values checked as `_check_value` does; unknown keys are rejected by dotted key."""
    out = {}
    for key, val in obj.items():
        path = f"{prefix}{key}"
        if key not in types:
            raise ConfigError(f"unknown config key '{path}'")
        typ = types[key]
        if isinstance(typ, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{path}' must be an object")
            out[key] = _checked(val, typ, prefix=f"{path}.")
        else:
            out[key] = _check_value(path, typ, val)
    return out


def _checked_dataset(ds) -> dict:
    """The DatasetConfig fields of a dataset section; params are kept as written."""
    if not isinstance(ds, dict):
        raise ConfigError("config key 'dataset' must be an object")
    kind = ds.get("kind")
    if not isinstance(kind, str) or kind not in DATASET_KEYS:
        raise ConfigError(f"config key 'dataset.kind' must be one of {sorted(DATASET_KEYS)}")
    params = {k: v for k, v in ds.items() if k != "kind"}
    _checked(params, DATASET_KEYS[kind], prefix="dataset.")
    return {"kind": kind, "params": params}


def _replaced(default, values: dict):
    """default with values replaced, field by field in declaration order."""
    changes = {}
    for f in dataclasses.fields(default):
        if f.name in values:
            old, new = getattr(default, f.name), values[f.name]
            changes[f.name] = _replaced(old, new) if dataclasses.is_dataclass(old) else new
    return dataclasses.replace(default, **changes)


def parse_config(raw: dict) -> tuple[ExperimentConfig, str]:
    """Validate a JSON config dict; returns (config, out_dir).

    Keys, their types and their defaults are those of `ExperimentConfig`
    and its nested config dataclasses; the "loss" section holds
    `LossWeights` and the top-level loss fields, and dataset keys are
    checked against `trainer.DATASET_KEYS`.  Unknown keys and mistyped
    values are rejected by name; missing keys take the dataclass defaults
    (the resolved values are echoed to resolved_config.json).
    """
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    values = _checked({k: v for k, v in raw.items() if k != "dataset"}, _JSON_TYPES)
    if "dataset" in raw:
        values["dataset"] = _checked_dataset(raw["dataset"])
    loss = values.pop("loss", {})
    values["weights"] = {k: v for k, v in loss.items() if k not in _LOSS_FIELDS}
    values.update((k, v) for k, v in loss.items() if k in _LOSS_FIELDS)
    out_dir = values.pop("out_dir", "")
    try:
        return _replaced(ExperimentConfig(), values), out_dir
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(str(e)) from e


def _resolved_dict(cfg: ExperimentConfig, out_dir: str) -> dict:
    resolved = dataclasses.asdict(cfg)
    resolved["loss"] = {**resolved.pop("weights"), **{k: resolved.pop(k) for k in _LOSS_FIELDS}}
    dataset = resolved.pop("dataset")
    resolved["dataset"] = {"kind": dataset["kind"], **dataset["params"]}
    resolved["out_dir"] = out_dir
    return resolved


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


if __name__ == "__main__":
    entry()
