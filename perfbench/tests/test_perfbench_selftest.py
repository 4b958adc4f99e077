"""Self-test of the benchmark harness on a tiny tree with a few steps.

    python3 -m pytest -q perfbench/tests
"""
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TINY = {
    "height": 2, "hidden_dim": 8, "out_dim": 4, "variant": "hypergcl",
    "steps": 6, "log_every": 3, "block_steps": 1,
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Two traced benchmark runs of the tiny workload, one seed."""
    bench.WORKLOADS["tiny"] = TINY
    try:
        cfg = bench.workload_config("tiny", 7)
        runs = []
        for _ in range(2):
            work = tmp_path_factory.mktemp("tiny")
            runs += bench.measure("tiny", cfg, work, 0.01, trace=True)
    finally:
        del bench.WORKLOADS["tiny"]
    return cfg, runs


def test_runs_pass_their_output_checks(tiny_runs):
    _, runs = tiny_runs
    assert [r["traced"] for r in runs] == [False, True] * 2
    assert all(r["ok"] for r in runs), [r["problems"] for r in runs]
    assert len({r["digest"] for r in runs}) == 1
    assert all(len(r["step_exits"]) == TINY["steps"] for r in runs)
    untraced = [r for r in runs if not r["traced"]]
    assert all(len(r["setup_probes"]) == bench.SETUP_PROBES for r in untraced)


def test_blocks_are_consecutive_and_disjoint():
    assert bench.block_times([0.0, 1.0, 3.0, 6.0, 10.0], 2) == [3.0, 7.0]
    assert bench.block_times([0.0, 1.0, 3.0], 1) == [1.0, 2.0]


def test_spans_nest_so_self_time_is_within_total(tiny_runs):
    _, runs = tiny_runs
    for r in runs:
        if not r["traced"]:
            continue
        assert r["trace"]["nest_violations"] == 0
        for name, row in r["trace"]["layers"].items():
            assert 0 <= row["self_ns"] <= row["total_ns"], name


def test_counters_repeat_exactly(tiny_runs):
    _, runs = tiny_runs
    traced = [r for r in runs if r["traced"]]
    assert len(traced) >= 2
    first = bench.counters(traced[0])
    assert all(bench.counters(r) == first for r in traced[1:])
    assert first["calls"]["tensor.backward"] == TINY["steps"]
    assert first["tape"][0] > 0


def test_wrapper_with_no_calls_fails_loudly(tiny_runs):
    _, runs = tiny_runs
    bench.WORKLOADS["tiny"] = TINY
    try:
        layers = bench.per_layer(runs, "tiny", 1.0)
        assert layers["linalg.cholesky.calls"][0] > 0
        traced = next(r for r in runs if r["traced"])
        saved = traced["trace"]["layers"].pop("linalg.cholesky")
        try:
            with pytest.raises(SystemExit, match="linalg.cholesky"):
                bench.per_layer(runs, "tiny", 1.0)
        finally:
            traced["trace"]["layers"]["linalg.cholesky"] = saved
    finally:
        del bench.WORKLOADS["tiny"]


def test_embedding_row_outside_ball_is_a_failure_not_a_timing(tiny_runs, tmp_path):
    cfg, _ = tiny_runs
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(bench.json.dumps(cfg))
    good, bad = tmp_path / "good", tmp_path / "bad"
    reports = [bench.spawn_child(cfg_path, d, False, 60.0) for d in (good, bad)]
    emb = bad / "embeddings.csv"
    lines = emb.read_text().splitlines()
    lines[0] = ",".join(["0.9"] * TINY["out_dim"])
    emb.write_text("\n".join(lines) + "\n")
    spec = dict(TINY)
    judged = [bench.judge(r, d, cfg, spec) for r, d in zip(reports, (good, bad))]
    for r in judged:
        r["traced"] = False
        r["setup_probes"] = []
    assert judged[0]["ok"]
    assert not judged[1]["ok"]
    assert any("outside the eps-margin ball" in p for p in judged[1]["problems"])
    timings = bench.end_to_end(judged, TINY["block_steps"])
    alone = bench.end_to_end(judged[:1], TINY["block_steps"])
    assert all(timings[name][0] == alone[name][0] for name in timings)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree121-hypergcl", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_run_py_prints():
    declared = bench.json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == bench.per_layer_names()
