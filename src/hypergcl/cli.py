"""Command-line interface: train / eval / diagnose / density / verify / sweep.

All output is CSV or JSON for external plotting.  Every run echoes its fully
resolved configuration to `resolved_config.json`, and identical configs with
identical seeds produce byte-identical output files at one BLAS thread count.
The config's keys, their types and their defaults are read from the config
dataclasses (`trainer.ExperimentConfig`, those it nests and the dataset
classes in `trainer.DATASET_KINDS`); this module states none of them.

Exit codes: 0 success, 1 config/usage error, 2 dataset-file or output-path error,
3 non-finite loss, 4 failed verification property.  The commands raise and
`main` alone turns a failure into an exit code and one `error: ...` line:
`ConfigError` is 1, any other `ValueError` or `OSError` is 2 and
`NonFiniteLossError` is 3; a command returns 4 itself when properties fail.
A command-line usage error is a `ConfigError` too.  Every other exception
propagates.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys
import typing

import numpy as np

from . import density
from .geometry import Curvature
from .graphnet import load_label_csv, load_splits_json, open_text
from .trainer import (
    DATASET_KINDS,
    DatasetSpec,
    ExperimentConfig,
    NonFiniteLossError,
    SWEEP_AXES,
    build_dataset,
    check_probe_inputs,
    check_value,
    collapse_diagnostics,
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise `ConfigError` instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def _curvature(text: str) -> float:
    """A --curvature value, checked by `Curvature`."""
    try:
        return Curvature(float(text)).c
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


# The JSON "loss" section holds the LossWeights fields and these
# ExperimentConfig fields; every other section is one config dataclass.
_LOSS_FIELDS = ("target_mean", "isotropy_degrade_p")


def _field_types(cls) -> dict:
    """Field name -> type of a config dataclass; nested dataclasses become dicts."""
    return {
        name: _field_types(typ) if dataclasses.is_dataclass(typ) else typ
        for name, typ in typing.get_type_hints(cls).items()
    }


def _json_types() -> dict:
    """Config file key -> type, or a dict of them for a section."""
    types = _field_types(ExperimentConfig)
    types["loss"] = {**types.pop("weights"), **{k: types.pop(k) for k in _LOSS_FIELDS}}
    types["out_dir"] = str
    return types


_JSON_TYPES = _json_types()


def _checked(obj: dict, types: dict, prefix: str = "") -> dict:
    """obj with its values checked by `check_value`, a dataset by `_dataset`; unknown keys are rejected by dotted key."""
    out = {}
    for key, val in obj.items():
        path = f"{prefix}{key}"
        if key not in types:
            raise ConfigError(f"unknown config key '{path}'")
        typ = types[key]
        if isinstance(typ, dict) or typ is DatasetSpec:
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{path}' must be an object")
            out[key] = _dataset(val, path) if typ is DatasetSpec else _checked(val, typ, prefix=f"{path}.")
        else:
            try:
                out[key] = check_value(path, typ, val)
            except ValueError as e:
                raise ConfigError(str(e)) from e
    return out


def _dataset(section: dict, path: str):
    """The dataset of a config section: its "kind" picks the class, whose fields are its other keys."""
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in DATASET_KINDS:
        raise ConfigError(f"config key '{path}.kind' must be one of {sorted(DATASET_KINDS)}")
    cls = DATASET_KINDS[kind]
    values = _checked({k: v for k, v in section.items() if k != "kind"}, _field_types(cls), prefix=f"{path}.")
    missing = [f"'{path}.{f.name}'" for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"{kind} dataset is missing config key {', '.join(missing)}")
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _replaced(default, values: dict):
    """default with values replaced, field by field in declaration order."""
    changes = {}
    for f in dataclasses.fields(default):
        if f.name in values:
            old, new = getattr(default, f.name), values[f.name]
            changes[f.name] = _replaced(old, new) if isinstance(new, dict) else new
    return dataclasses.replace(default, **changes)


def parse_config(raw: dict) -> tuple[ExperimentConfig, str]:
    """Validate a JSON config dict; returns (config, out_dir).

    Keys, their types and their defaults are those of `ExperimentConfig`
    and its nested config dataclasses; the "loss" section holds
    `LossWeights` and the top-level loss fields, and the dataset section a
    "kind" and that kind's fields.  Unknown keys, mistyped values and missing
    required dataset keys are rejected by name; other missing keys take the
    dataclass defaults (the resolved values are echoed to resolved_config.json).
    """
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    values = _checked(raw, _JSON_TYPES)
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
    kind = next(k for k, cls in DATASET_KINDS.items() if isinstance(cfg.dataset, cls))
    resolved["dataset"] = {"kind": kind, **resolved["dataset"]}
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


def _override(cfg: ExperimentConfig, flag: str, name: str, value) -> ExperimentConfig:
    """cfg with one field set from the command line; a value its checks refuse is a ConfigError."""
    try:
        return dataclasses.replace(cfg, **{name: value})
    except ValueError as e:
        raise ConfigError(f"{flag} {value}: {e}") from e


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

def _write_diagnostic(out_dir: str, e: NonFiniteLossError) -> None:
    _write_json(
        os.path.join(out_dir, "diagnostic.json"),
        {"error": "non-finite loss", "step": e.step, "reason": e.reason},
    )


def cmd_train(args) -> int:
    cfg, cfg_out = parse_config(_load_config_file(args.config))
    if args.seed is not None:
        cfg = _override(cfg, "--seed", "seed", args.seed)
    out_dir = args.out or cfg_out
    graph = build_dataset(cfg.dataset, cfg.seed)
    _ensure_out_dir(out_dir)
    _write_json(os.path.join(out_dir, "resolved_config.json"), _resolved_dict(cfg, out_dir))
    try:
        params, trace = train(cfg, graph)
    except NonFiniteLossError as e:
        _write_diagnostic(out_dir, e)
        write_trace_csv(e.trace, os.path.join(out_dir, "trace.csv"))
        raise
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


def _load_embeddings(path, curvature=None) -> np.ndarray:
    """Embedding rows from a CSV file; with a curvature, every row must lie inside the ball.

    log0 would clamp a row on or outside the boundary and report a wrong
    value without any error, so such a file is refused here.
    """
    rows = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: embeddings must be numbers, got {line!r}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(rows[-1])}")
    if not rows:
        raise ValueError(f"{path}: empty embeddings file")
    z = np.asarray(rows, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"{path}: embeddings contain non-finite values")
    if curvature is not None:
        outside = np.flatnonzero(curvature * np.sum(z * z, axis=1) >= 1.0)
        if outside.size:
            raise ValueError(
                f"{path}: {outside.size} of {z.shape[0]} rows lie on or outside the ball of "
                f"curvature {curvature} (c*||z||^2 >= 1), first row {outside[0]}"
            )
    return z


def cmd_eval(args) -> int:
    z = _load_embeddings(args.embeddings, args.curvature)
    labels = load_label_csv(args.labels)
    splits = load_splits_json(args.splits)
    acc = linear_eval(z, labels, splits, curvature=args.curvature)
    print(json.dumps({"accuracy": acc}))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    z = _load_embeddings(args.embeddings, args.curvature)
    try:
        report = collapse_diagnostics(z, args.curvature)
    except ValueError as e:
        raise ValueError(f"{args.embeddings}: {e}") from e
    report.update(n=int(z.shape[0]), dim=int(z.shape[1]))
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_density(args) -> int:
    if args.dim not in (1, 2):
        raise ConfigError(f"unsupported dimension {args.dim} (quadrature supports 1 and 2)")
    # the parser has checked curvature and dim is checked above, so a
    # ValueError here is about sigma
    try:
        spec = density.isotropic_spec(args.sigma, args.curvature, args.dim)
    except ValueError as e:
        raise ConfigError(f"--sigma {args.sigma}: {e}") from e
    # dim, sigma and curvature are checked above, so a ValueError here is
    # about the grid size named by the flag
    try:
        integral = density.integrate_density(spec, resolution=args.resolution)
    except ValueError as e:
        raise ConfigError(f"--resolution {args.resolution}: {e}") from e
    try:
        table = density.density_profile(spec, n_radii=args.n_radii)
    except ValueError as e:
        raise ConfigError(f"--n-radii {args.n_radii}: {e}") from e
    density.write_profile_csv(args.out, table)
    print(f"integral={integral:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    report = [
        {"suite": r.suite, "property": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.name}: {r.detail}")
    if args.out:
        _write_json(args.out, report)
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_sweep(args) -> int:
    cfg, cfg_out = parse_config(_load_config_file(args.config))
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if not values:
        raise ConfigError("--values must list at least one number")
    # every entry is checked before anything is written
    for value in values:
        _override(cfg, "--values", SWEEP_AXES[args.axis], value)
    for seed in seeds or ():
        _override(cfg, "--seeds", "seed", seed)
    out_dir = args.out or cfg_out
    # a dataset that cannot be read, or whose labels and splits the probe
    # cannot use, fails before anything is written or trained
    graph = build_dataset(cfg.dataset, cfg.seed)
    check_probe_inputs(graph.labels, graph.splits, graph.n)
    _ensure_out_dir(out_dir)
    _write_json(os.path.join(out_dir, "resolved_config.json"), _resolved_dict(cfg, out_dir))
    try:
        rows = sweep(cfg, args.axis, values, seeds=seeds)
    except NonFiniteLossError as e:
        _write_diagnostic(out_dir, e)
        raise
    write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"))
    print(f"wrote sweep.csv to {out_dir}")
    return EXIT_OK


_M_TRIM_THRESHOLD = -1  # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Ask glibc's malloc to keep freed step buffers in the process.

    Each training step frees its buffers and the next step allocates the same
    sizes again.  By default glibc trims the freed top of the heap and
    page-faults it back on the next step, and it serves the larger buffers
    with fresh mmaps.  Fixing the mmap threshold at its 64-bit maximum,
    32 MiB, puts those buffers on the heap; only if glibc accepts that is
    the trim threshold raised to 1 GiB, since a trim threshold alone stops
    the mmap threshold from adapting and maps every large buffer afresh.
    Without glibc's `mallopt` nothing changes.  It runs once per process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _Parser(
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
    p.add_argument("--curvature", type=_curvature, default=None, help="map by log0 before the probe")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diagnose", help="effective ranks of a saved embedding matrix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--curvature", type=_curvature, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("density", help="radial profile and integral of the push-forward density")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--curvature", type=_curvature, required=True)
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

    # ConfigError is a ValueError, so it is caught first
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as e:
        code, err = EXIT_CONFIG, e
    except NonFiniteLossError as e:
        code, err = EXIT_NONFINITE, e
    except (ValueError, OSError) as e:
        code, err = EXIT_DATA, e
    print(f"error: {err}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
