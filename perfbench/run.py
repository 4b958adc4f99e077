"""Benchmark of one `hypergcl train` run: config -> graph -> training -> files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  The workload is closed loop: one client
starts a fresh `python3 perfbench/child.py` per `train` run, one after
another, while another run as long as the longest so far still fits in
`--seconds` (at least `MIN_RUNS` runs).  After each untraced run,
`SETUP_PROBES` more children time set-up alone.  BLAS and OpenMP threads are
pinned to one.  Every run's outputs are checked; a failed run counts in
`failed` and gives no timing.

With `--trace 0` the last stdout line carries the end-to-end metrics: the
throughput of the fastest block of steps, the median set-up time and the
median peak RSS (see `end_to_end`); `run_s` is printed above it.  With
`--trace 1` untraced and traced runs alternate, and it carries the
per-layer metrics of the traced runs plus `trace_overhead`.  Lines above
it print every metric with its unit and the fail ratio.  Workloads, metrics
and the predictions they serve are listed in perfbench/WORKLOADS.md.
"""
import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_RUNS = 2
SETUP_PROBES = 3  # set-up-only children after each untraced train run
DEADLINE_S = 165.0

TRACE_COLUMNS = ["step", "total", "align", "iso", "erank_ambient", "erank_tangent", "mean_norm"]

# Workload -> generated-config parameters.  The seed argument sets the config
# seed (features, initial weights) and both augmentation seeds; seed 0 of
# tree121-hypergcl is the acceptance config of tests/test_acceptance.py.
# `block_steps` consecutive steps are timed as one block, so that every block
# carries the same kinds of work: one trace record per `log_every` steps on
# tree121-hypergcl; the others log only at their first and last step, so
# there a block is one step.
# tree3280-hypergcl is not in BENCHMARK.json (see WORKLOADS.md) but runs by name.
WORKLOADS = {
    "tree121-hypergcl": {
        "height": 4, "hidden_dim": 32, "out_dim": 16, "variant": "hypergcl",
        "steps": 500, "log_every": 10, "block_steps": 10, "min_erank_tangent": 12.0,
    },
    "tree3280-hypergcl": {
        "height": 7, "hidden_dim": 256, "out_dim": 64, "variant": "hypergcl",
        "steps": 24, "log_every": 24, "block_steps": 1,
    },
    "tree364-naive": {
        "height": 5, "hidden_dim": 32, "out_dim": 16, "variant": "hyperbolic-naive-uniformity",
        "steps": 10, "log_every": 10, "block_steps": 1,
    },
}

# Span names (see child.WRAP_SITES) and the workloads that must call them.
ISOTROPY_PATH = {
    "tensor.logdet", "linalg.cholesky", "linalg.spd_inverse", "losses.isotropy_tangent",
    "spectral.tangent_moments_tensors", "spectral.gaussian_kl_tensors",
}
NAIVE_PATH = {"tensor.take_rows", "losses.uniformity_hyperbolic_naive"}
TOTAL_TIME_SPANS = {"graphnet.encode", "losses.total_loss_parts"}
LAYER_SPANS = [
    "cli.parse_config", "trainer.build_dataset", "trainer.train", "graphnet.augment",
    "graphnet.encode", "tensor.matmul", "tensor.spmm", "tensor.prelu", "geometry.project_rows",
    "losses.total_loss_parts", "losses.alignment_hyperbolic", "geometry.distance_rows",
    "geometry.mobius_add_rows", "losses.isotropy_tangent", "spectral.tangent_moments_tensors",
    "geometry.log0_rows", "spectral.gaussian_kl_tensors", "tensor.logdet", "linalg.cholesky",
    "linalg.spd_inverse", "losses.uniformity_hyperbolic_naive", "tensor.take_rows",
    "tensor.backward", "trainer.Adam.step", "spectral.effective_rank",
    "linalg.jacobi_svd_values",
]
# Tape op names counted per step; any other op lands in tensor.ops.other.
TAPE_OPS = [
    "add", "artanh", "batch_mean", "cap_rownorms", "clip", "dot", "exp", "log", "logdet",
    "matmul", "mean", "mul", "neg", "prelu", "rowdot", "rownorm", "rownorm2", "rowscale",
    "sadd", "smul", "spmm", "sub_rowvec", "take_rows", "trace", "transpose", "vdiv", "vrecip",
    "where", "add_diag",
]

END_TO_END = [("steps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def expected_spans(workload: str) -> set:
    names = set(LAYER_SPANS) - ISOTROPY_PATH - NAIVE_PATH
    if WORKLOADS[workload]["variant"] == "hypergcl":
        return names | ISOTROPY_PATH
    return names | NAIVE_PATH


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for span in LAYER_SPANS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.{'total' if span in TOTAL_TIME_SPANS else 'self'}_ms", "ms"))
    out += [
        ("cli.write_ms", "ms"),
        ("trainer.step_ms_p50", "ms"),
        ("trainer.step_ms_p90", "ms"),
        ("tensor.tape_nodes_per_step", "count"),
        ("tensor.tape_mib_per_step", "MiB"),
    ]
    out += [(f"tensor.ops.{op}", "count") for op in TAPE_OPS + ["other"]]
    out += [("trace_overhead", "ratio"), ("machine.ref_ms", "ms")]
    return out


def workload_config(workload: str, seed: int) -> dict:
    w = WORKLOADS[workload]
    return {
        "variant": w["variant"],
        "loss": {"lambda_u": 3.0, "t": 2.0},
        "encoder": {"hidden_dim": w["hidden_dim"], "out_dim": w["out_dim"], "init_scale": 6.0},
        "optimizer": {"learning_rate": 0.01, "steps": w["steps"]},
        "dataset": {
            "kind": "balanced_tree", "branching": 3, "height": w["height"], "feature_noise": 1.0,
        },
        "augment1": {"edge_drop_prob": 0.2, "node_drop_prob": 0.1, "seed": 2 * seed + 1},
        "augment2": {"edge_drop_prob": 0.2, "node_drop_prob": 0.1, "seed": 2 * seed + 2},
        "seed": seed,
        "log_every": w["log_every"],
    }


# ------------------------------------------------------------------ checks

def _floats(cells, where):
    vals = [float(c) for c in cells]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{where}: non-finite value")
    return vals


def check_outputs(out_dir: Path, cfg: dict, spec: dict) -> tuple:
    """(problems, sha256 of trace.csv + embeddings.csv) for one run's outputs."""
    problems = []
    steps = cfg["optimizer"]["steps"]
    logged = [s for s in range(steps) if s % cfg["log_every"] == 0 or s == steps - 1]
    n_nodes = (3 ** (cfg["dataset"]["height"] + 1) - 1) // 2
    max_norm = (1.0 - 1e-5) * (1.0 + 1e-12)  # eps-margin radius at c = 1, plus rounding
    digest = hashlib.sha256()
    try:
        raw = (out_dir / "trace.csv").read_bytes()
        digest.update(raw)
        rows = list(csv.reader(raw.decode().splitlines()))
        if rows[0] != TRACE_COLUMNS:
            problems.append(f"trace.csv header {rows[0]}")
        records = [_floats(r, "trace.csv") for r in rows[1:]]
        if [int(r[0]) for r in records] != logged:
            problems.append("trace.csv does not log the expected steps")
        last_erank = records[-1][TRACE_COLUMNS.index("erank_tangent")]
        floor = spec.get("min_erank_tangent")
        if floor is not None and not last_erank >= floor:
            problems.append(f"final erank_tangent {last_erank:.3f} < {floor}")

        raw = (out_dir / "embeddings.csv").read_bytes()
        digest.update(raw)
        emb = [_floats(line.split(","), "embeddings.csv") for line in raw.decode().splitlines()]
        if len(emb) != n_nodes or any(len(r) != spec["out_dim"] for r in emb):
            problems.append(f"embeddings.csv is not {n_nodes} x {spec['out_dim']}")
        outside = sum(math.sqrt(sum(v * v for v in r)) > max_norm for r in emb)
        if outside:
            problems.append(f"{outside} embedding rows outside the eps-margin ball")

        params = json.loads((out_dir / "params.json").read_text())
        _floats([v for row in params["theta1"] + params["theta2"] for v in row], "params.json")
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        problems.append(f"unreadable output: {e}")
    return problems, digest.hexdigest()


# ------------------------------------------------------------------- runs

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env.pop("PYTHONPATH", None)
    return env


def spawn_child(cfg_path: Path, out_dir: Path, traced: bool, timeout: float,
                setup_only: bool = False) -> dict:
    """Run one train (or its set-up alone) in a fresh interpreter; returns its report plus run_s."""
    report_path = out_dir.with_suffix(".report.json")
    cmd = [
        sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--config", str(cfg_path),
        "--out", str(out_dir), "--report", str(report_path),
    ] + (["--trace"] if traced else []) + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"train run exceeded {timeout:.0f} s"]}
    run_s = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"problems": [f"train exited with code {proc.returncode}: {tail}"]}
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as e:
        return {"problems": [f"no child report: {e}"]}
    report["run_s"] = run_s
    report["problems"] = []
    return report


def judge(report: dict, out_dir: Path, cfg: dict, spec: dict) -> dict:
    """Attach the output check; a run with any problem yields no timing."""
    if not report["problems"]:
        problems, digest = check_outputs(out_dir, cfg, spec)
        report["problems"] = problems
        report["digest"] = digest
    report["ok"] = not report["problems"]
    return report


def probe_setups(report: dict, cfg_path: Path, out_dir: Path) -> None:
    """Time SETUP_PROBES more set-ups of the same config into report["setup_probes"]."""
    report["setup_probes"] = []
    for _ in range(SETUP_PROBES):
        probe = spawn_child(cfg_path, out_dir, False, 60.0, setup_only=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        if probe["problems"] or "train_enter" not in probe:
            report["problems"] += probe["problems"] or ["set-up probe never entered train"]
            report["ok"] = False
            return
        report["setup_probes"].append(probe["train_enter"] - probe["start"])


def counters(report: dict) -> dict:
    tr = report["trace"]
    return {
        "calls": {k: v["calls"] for k, v in tr["layers"].items()},
        "tape": (tr["tape_nodes_per_step"], tr["tape_bytes_per_step"], tr["op_nodes_per_step"]),
    }


def measure(workload: str, cfg: dict, work: Path, seconds: float, trace: bool) -> list:
    """Closed loop of train runs; traced and untraced alternate when tracing."""
    spec = WORKLOADS[workload]
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    kinds = [False, True] if trace else [False]
    started = time.perf_counter()
    runs = []
    longest = 0.0
    while True:
        remaining = DEADLINE_S - (time.perf_counter() - started)
        if remaining <= 0:
            break
        traced = kinds[len(runs) % len(kinds)]
        out_dir = work / f"run{len(runs)}"
        t0 = time.perf_counter()
        report = spawn_child(cfg_path, out_dir, traced, remaining)
        report["traced"] = traced
        runs.append(judge(report, out_dir, cfg, spec))
        shutil.rmtree(out_dir, ignore_errors=True)
        if not traced:
            probe_setups(report, cfg_path, work / "setup")
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(runs) >= MIN_RUNS and len(runs) % len(kinds) == 0:
            if elapsed + longest * len(kinds) > seconds:
                break
    # Every run of one seed on one commit must write byte-identical outputs,
    # and a traced run's counters must repeat exactly.
    ok = [r for r in runs if r["ok"]]
    for r in ok[1:]:
        if r["digest"] != ok[0]["digest"]:
            r["problems"].append("outputs differ from the first run of this seed")
            r["ok"] = False
    ok_traced = [r for r in runs if r["ok"] and r["traced"]]
    for r in ok_traced[1:]:
        if counters(r) != counters(ok_traced[0]):
            r["problems"].append("traced counters differ from the first traced run")
            r["ok"] = False
    return runs


# ---------------------------------------------------------------- metrics

def block_times(exits: list, block_steps: int) -> list:
    """Durations of consecutive, non-overlapping blocks of `block_steps` steps."""
    return [exits[k + block_steps] - exits[k] for k in range(0, len(exits) - block_steps, block_steps)]


def end_to_end(runs: list, block_steps: int) -> dict:
    """Samples of each end-to-end metric (plus run_s) over the successful untraced runs.

    Returns name -> (samples, how they are reduced to the reported value).
    Other tenants of a shared host slow whole seconds of a run by up to ~2x,
    so throughput is the fastest block of the window (the timeit convention:
    slower samples measure interference, not the program).
    """
    rows = [r for r in runs if r["ok"] and not r["traced"]]
    blocks = [t for r in rows for t in block_times(r["step_exits"], block_steps)]
    return {
        "steps_per_s": ([block_steps / t for t in blocks], max),
        "setup_s": ([s for r in rows for s in [r["train_enter"] - r["start"]] + r["setup_probes"]],
                    statistics.median),
        "peak_rss_mib": ([r["maxrss_kib"] / 1024.0 for r in rows], statistics.median),
        "run_s": ([r["run_s"] for r in rows], statistics.median),
    }


def per_layer(runs: list, workload: str, ref_ms: float) -> dict:
    """Median over traced runs of each per-layer metric; checks wrapper coverage."""
    traced = [r for r in runs if r["ok"] and r["traced"]]
    untraced = [r for r in runs if r["ok"] and not r["traced"]]
    for name in sorted(expected_spans(workload)):
        for r in traced:
            if r["trace"]["layers"].get(name, {}).get("calls", 0) == 0:
                raise SystemExit(
                    f"perfbench: wrapper {name} recorded no calls on {workload}; "
                    "a lookup site moved (see child.WRAP_SITES)"
                )
    per_run = {name: [] for name, _ in per_layer_names()}
    for r in traced:
        tr = r["trace"]
        layers = tr["layers"]
        for span in LAYER_SPANS:
            row = layers.get(span, {"calls": 0, "total_ns": 0, "self_ns": 0})
            per_run[f"{span}.calls"].append(row["calls"])
            kind = "total" if span in TOTAL_TIME_SPANS else "self"
            per_run[f"{span}.{kind}_ms"].append(row[f"{kind}_ns"] / 1e6)
        per_run["cli.write_ms"].append(layers.get("cli.write", {"total_ns": 0})["total_ns"] / 1e6)
        gaps = sorted(block_times(r["step_exits"], 1)) or [0.0]
        per_run["trainer.step_ms_p50"].append(1000.0 * statistics.median(gaps))
        p90 = gaps[min(len(gaps) - 1, int(0.9 * len(gaps)))]
        per_run["trainer.step_ms_p90"].append(1000.0 * p90)
        per_run["tensor.tape_nodes_per_step"].append(tr["tape_nodes_per_step"])
        per_run["tensor.tape_mib_per_step"].append(tr["tape_bytes_per_step"] / 2**20)
        ops = dict(tr["op_nodes_per_step"])
        for op in TAPE_OPS:
            per_run[f"tensor.ops.{op}"].append(ops.pop(op, 0.0))
        per_run["tensor.ops.other"].append(sum(ops.values()))
    overhead = statistics.median(r["run_s"] for r in traced) / statistics.median(
        r["run_s"] for r in untraced
    )
    per_run["trace_overhead"] = [overhead]
    per_run["machine.ref_ms"] = [ref_ms]
    return per_run


# ------------------------------------------------------------------- main

def calibrate() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "calibrate.py")],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypergcl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def summary_lines(samples: dict, units: dict) -> list:
    lines = []
    for name, (values, reduce) in samples.items():
        spread = f"{reduce.__name__} of n={len(values)}, min {min(values):.6g} max {max(values):.6g}"
        lines.append(f"  {name:<44} {reduce(values):>14.6g} {units[name]:<6} {spread}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypergcl" / "cli.py").is_file():
        print(f"perfbench: no hypergcl package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cfg = workload_config(args.workload, args.seed)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        machine = calibrate()
        runs = measure(args.workload, cfg, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = [r for r in runs if not r["ok"]]
    ok = [r for r in runs if r["ok"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"closed loop, 1 client, {len(runs)} train runs in {args.seconds:g} s")
    pins = ",".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    print(f"machine nproc={len(os.sched_getaffinity(0))} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} {pins} ref_ms={machine['ref_ms']:.4f} "
          f"source_sha256={source_digest()}")
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    if ok:
        print(f"outputs sha256 {ok[0]['digest']}")
    for r in failed:
        print(f"FAILED run: {'; '.join(r['problems'])}", file=sys.stderr)
    print(f"  {'fail_ratio':<44} {len(failed) / len(runs):>14.6g} ratio  "
          f"({len(failed)} of {len(runs)} runs)")
    if not any(not r["traced"] for r in ok) or (args.trace and not any(r["traced"] for r in ok)):
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1

    if args.trace:
        units = dict(per_layer_names())
        per_run = per_layer(runs, args.workload, machine["ref_ms"])
        samples = {name: (values, statistics.median) for name, values in per_run.items()}
    else:
        units = dict(END_TO_END, run_s="s")
        samples = end_to_end(runs, WORKLOADS[args.workload]["block_steps"])
    for line in summary_lines(samples, units):
        print(line)
    metrics = {}
    for name, unit in per_layer_names() if args.trace else END_TO_END:
        values, reduce = samples[name]
        metrics[name] = {"value": reduce(values), "unit": unit}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
