"""What the benchmark in perfbench/ relies on, checked on small runs.

Every span `perfbench/run.py` requires of a workload must be called, so a
refactor that removes a wrapped function fails here rather than in a traced
benchmark run.  An untraced run of each workload must pass the output
checks the benchmark puts on every run, or the benchmark exits 1.  The
naive-uniformity workload writes the same bytes under one and two BLAS
threads.  That training run barely reaches the pair ops' gradient (its zero
rows from node dropping hold almost all of the log-mean-exp weight), so the
pair ops are also checked on their own: their values and VJPs on 364 rows,
which take a 364 x 364 Gram matrix and a gradient product `S @ Z` with the
node count as its inner dimension, are byte-identical under one and two
threads.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from helpers import bench

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _tiny(workload: str) -> dict:
    """The workload's config on a 13-node tree, 3 steps, logged at the first and last."""
    cfg = bench.workload_config(workload, 0)
    cfg["dataset"]["height"] = 2
    cfg["encoder"].update(hidden_dim=8, out_dim=4)
    cfg["optimizer"]["steps"] = 3
    cfg["log_every"] = 3
    return cfg


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_training_calls_every_required_span(workload, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_tiny(workload)))
    report = bench.spawn_child(cfg_path, tmp_path / "out", True, 60.0)
    assert not report["problems"], report["problems"]
    layers = report["trace"]["layers"]
    missing = sorted(s for s in bench.expected_spans(workload) if layers.get(s, {}).get("calls", 0) == 0)
    assert not missing, f"spans required on {workload} but never called: {missing}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_training_passes_the_benchmark_output_checks(workload, tmp_path):
    # exit 0, the trace.csv header and logged steps, finite outputs inside the
    # eps-ball; the erank floor is a property of the full-size run, not of 3 steps
    cfg = _tiny(workload)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    spec = {k: v for k, v in bench.WORKLOADS[workload].items() if k != "min_erank_tangent"}
    spec["out_dim"] = cfg["encoder"]["out_dim"]
    out = tmp_path / "out"
    report = bench.judge(bench.spawn_child(cfg_path, out, False, 60.0), out, cfg, spec)
    assert report["ok"], report["problems"]


def test_naive_training_at_364_nodes_is_byte_identical_under_one_and_two_blas_threads(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(bench.workload_config("tree364-naive", 0)))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _run_under_blas_threads(
            threads, ["-m", "hypergcl", "train", "--config", str(cfg_path), "--out", str(out)]
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[threads] = {
            name: (out / name).read_bytes() for name in ("trace.csv", "embeddings.csv", "params.json")
        }
    for name, data in outputs["1"].items():
        assert data == outputs["2"][name], f"{name} depends on the BLAS thread count"


def _run_under_blas_threads(threads: str, args: list) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


_PAIR_OPS_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from hypergcl import tensor as T
    from hypergcl.tensor import Tape, Tensor

    rng = np.random.default_rng(7)
    n, d = 364, 8
    z = rng.standard_normal((n, d))
    z *= 0.9 * rng.random((n, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
    w = Tensor(rng.standard_normal((n * n, 1)))
    for op in (lambda x: T.ball_pair_distances(x, 1.0), T.pair_sqdist):
        with Tape() as tape:
            x = Tensor(z)
            out = op(x)
            loss = T.sum_all(T.mul(out, w))
        sys.stdout.buffer.write(out.data.tobytes())
        sys.stdout.buffer.write(T.backward(tape, loss).wrt(x).tobytes())
    """
)


def test_pair_ops_at_364_rows_are_byte_identical_under_one_and_two_blas_threads():
    outputs = {}
    for threads in ("1", "2"):
        proc = _run_under_blas_threads(threads, ["-c", _PAIR_OPS_SCRIPT])
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[threads] = proc.stdout
    assert len(outputs["1"]) == 2 * 8 * (364 * 364 + 364 * 8)
    assert outputs["1"] == outputs["2"], "pair op values or VJPs depend on the BLAS thread count"
