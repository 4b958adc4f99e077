"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  The desk-scale benchmark is a balanced tree (branching 3, height 4,
121 nodes) with 16-dimensional ball embeddings; every run is seeded, so all
asserted numbers are exactly reproducible.
"""
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import ball_batch, bench, ks_statistic, pearson, spearman
from hypergcl import cli
from hypergcl import losses
from hypergcl import tensor as T
from hypergcl.density import isotropic_spec, integrate_density, radial_cdf, sample_ambient
from hypergcl.graphnet import AugmentationConfig, init_params, encode
from hypergcl.losses import LossWeights
from hypergcl.spectral import (
    CovarianceSummary,
    covariance_effective_rank,
    erank_bound_check,
    gaussian_kl_tensors,
)
from hypergcl.tensor import Tape, Tensor, finite_diff_check
from hypergcl.trainer import (
    BalancedTree,
    EncoderConfig,
    ExperimentConfig,
    OptimizerConfig,
    build_dataset,
    final_embedding,
    linear_eval,
    sweep,
    train,
)
from hypergcl.verify import geometry_suite, run_suite


BENCH = ExperimentConfig(
    variant="hypergcl",
    weights=LossWeights(lambda_u=3.0, t=2.0),
    encoder=EncoderConfig(hidden_dim=32, out_dim=16, init_scale=6.0),
    optimizer=OptimizerConfig(learning_rate=1e-2, steps=500),
    dataset=BalancedTree(3, 4, feature_noise=1.0),
    augment1=AugmentationConfig(0.2, 0.1, seed=1),
    augment2=AugmentationConfig(0.2, 0.1, seed=2),
    seed=0,
    log_every=10,
)

ALIGN_ONLY = replace(
    BENCH,
    variant="hyperbolic-align-only",
    optimizer=OptimizerConfig(learning_rate=2e-2, steps=800),
)


@pytest.fixture(scope="module")
def bench_runs():
    graph = build_dataset(BENCH.dataset, BENCH.seed)
    t0 = time.time()
    params_h, trace_h = train(BENCH, graph)
    params_a, trace_a = train(ALIGN_ONLY, graph)
    elapsed = time.time() - t0
    acc_h = linear_eval(
        final_embedding(BENCH, params_h, graph), graph.labels, graph.splits,
        curvature=BENCH.curvature,
    )
    acc_a = linear_eval(
        final_embedding(ALIGN_ONLY, params_a, graph), graph.labels, graph.splits,
        curvature=BENCH.curvature,
    )
    return {
        "trace_hypergcl": trace_h,
        "trace_align": trace_a,
        "acc_hypergcl": acc_h,
        "acc_align": acc_a,
        "seconds": elapsed,
    }


@pytest.fixture(scope="module")
def verify_all_timing():
    t0 = time.time()
    results = run_suite("all")
    return results, time.time() - t0


def test_criterion_1_geometry_suite(verify_all_timing):
    t0 = time.time()
    results = geometry_suite()
    elapsed = time.time() - t0
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS - geometry suite: {len(results)} properties at 1e4 samples in {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    worst = {}
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        z = ball_batch(rng, 8, 4, max_radius=0.8)
        zp = Tensor(ball_batch(rng, 8, 4, max_radius=0.8))
        t = float(rng.uniform(0.5, 3.0))

        def euclidean(x):
            align, uniform = losses.euclidean_align_uniform(x, zp, t)
            return T.add(align, uniform)

        checks = {
            "euclidean-align-uniform": (euclidean, rng.standard_normal((8, 4))),
            "hyperbolic-alignment": (lambda x: losses.alignment_hyperbolic(x, zp, 1.0), z),
            "naive-uniformity": (lambda x: losses.uniformity_hyperbolic_naive(x, t, 1.0), z),
            "tangent-isotropy": (lambda x: losses.isotropy_tangent(x, zp, 1.0), z),
        }
        for name, (fn, x0) in checks.items():
            err = finite_diff_check(fn, x0)
            worst[name] = max(worst.get(name, 0.0), err)

        # encoder through the smooth projection branch
        from hypergcl.graphnet import Graph

        n = 6
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.5
        g = Graph(n, np.column_stack([iu[keep], ju[keep]]), rng.standard_normal((n, 3)))
        params = init_params(3, 4, 2, seed=200 + trial, scale=0.5)
        eps = 1e-5
        z0 = encode(g, params, 1.0).data
        assert np.min(np.abs(np.linalg.norm(z0, axis=1) - (1 - eps))) > 1e-3
        w = rng.standard_normal((n, 2))

        def enc(theta):
            p = init_params(3, 4, 2, seed=200 + trial, scale=0.5)
            p.theta1 = theta
            return T.sum_all(T.mul(encode(g, p, 1.0), Tensor(w)))

        worst["encoder"] = max(worst.get("encoder", 0.0), finite_diff_check(enc, params.theta1.data))

    assert all(err < 1e-5 for err in worst.values()), worst
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    print(f"\nACCEPTANCE 2 PASS - gradient suite over 5 configs each: {detail}")


def test_criterion_3_density_integrals():
    t0 = time.time()
    errors = {}
    for sigma, c, d in ((0.3, 1.0, 1), (1.0, 1.0, 1), (0.7, 1.0, 2), (1.2, 0.6, 2)):
        integral = integrate_density(isotropic_spec(sigma, c, d))
        errors[(sigma, c, d)] = abs(integral - 1.0)
    elapsed = time.time() - t0
    assert all(err <= 1e-3 for err in errors.values()), errors
    assert elapsed < 30.0
    detail = ", ".join(f"({s},{c},{d}): {e:.2e}" for (s, c, d), e in errors.items())
    print(f"\nACCEPTANCE 3 PASS - integrals within 1e-3 in {elapsed:.1f}s: {detail}")


def test_criterion_4_monte_carlo_ks():
    spec = isotropic_spec(1.0, 1.0, 2)
    z = sample_ambient(100000, spec, seed=42)
    radii = np.sort(np.linalg.norm(z, axis=1))
    ks = ks_statistic(radii, radial_cdf(spec, radii))
    assert ks < 0.01
    print(f"\nACCEPTANCE 4 PASS - KS statistic {ks:.5f} < 0.01 at n=1e5 (sigma=1, c=1, d=2)")


def test_criterion_5_erank_bound_and_descent():
    rng = np.random.default_rng(500)
    worst_margin = np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        a = rng.standard_normal((d, d)) * (10.0 ** rng.uniform(-1.5, 0.8))
        sigma = a @ a.T + 1e-8 * np.eye(d)
        mu = rng.standard_normal(d) * rng.uniform(0.0, 2.0)
        chk = erank_bound_check(CovarianceSummary(mu, sigma))
        assert chk.holds, (chk, d)
        worst_margin = min(worst_margin, chk.rhs - chk.lhs)

    rhos = []
    for start in range(5):
        r2 = np.random.default_rng(600 + start)
        m = r2.standard_normal((6, 6))
        sigma = m @ m.T / 6.0 + 0.05 * np.eye(6)
        eranks = []
        for _ in range(100):
            with Tape() as tape:
                s = Tensor(sigma)
                d_val = gaussian_kl_tensors(Tensor(np.zeros(6)), s, jitter=0.0)
            g = T.backward(tape, d_val).wrt(s)
            sigma = sigma - 0.05 * (g + g.T) / 2.0
            eranks.append(covariance_effective_rank(sigma))
        rhos.append(spearman(np.arange(len(eranks)), eranks))
    assert all(rho > 0.9 for rho in rhos), rhos
    print(
        f"\nACCEPTANCE 5 PASS - bound held on 1000 random PD (min margin {worst_margin:.3f}); "
        f"descent Spearman rho min {min(rhos):.3f}"
    )


def test_criterion_6_collapse_reproduction(bench_runs):
    erank_align = bench_runs["trace_align"].last().erank_ambient
    erank_hyper = bench_runs["trace_hypergcl"].last().erank_ambient
    acc_gap = bench_runs["acc_hypergcl"] - bench_runs["acc_align"]
    assert erank_align <= 1.5
    assert erank_hyper >= 12.0
    assert acc_gap >= 0.05
    print(
        f"\nACCEPTANCE 6 PASS - align-only Erank {erank_align:.2f} <= 1.5; "
        f"hypergcl Erank {erank_hyper:.2f} >= 12; accuracy {bench_runs['acc_hypergcl']:.3f} vs "
        f"{bench_runs['acc_align']:.3f} (gap {100 * acc_gap:.1f} points >= 5)"
    )


def test_benchmark_erank_floor_holds_at_seed_0(bench_runs):
    # BENCH is perfbench's tree121-hypergcl config at seed 0, whose runs fail
    # below this floor.  This covers seed 0 only; the benchmark may draw others.
    assert cli.parse_config(bench.workload_config("tree121-hypergcl", 0))[0] == BENCH
    floor = bench.WORKLOADS["tree121-hypergcl"]["min_erank_tangent"]
    assert bench_runs["trace_hypergcl"].last().erank_tangent >= floor


def test_criterion_7_erank_correlation(bench_runs):
    rs = {}
    for name in ("trace_hypergcl", "trace_align"):
        trace = bench_runs[name]
        rs[name] = pearson(trace.column("erank_ambient"), trace.column("erank_tangent"))
    assert all(r > 0.99 for r in rs.values()), rs
    print(
        f"\nACCEPTANCE 7 PASS - ambient/tangent Erank Pearson r: "
        f"hypergcl {rs['trace_hypergcl']:.5f}, align-only {rs['trace_align']:.5f} (> 0.99)"
    )


def test_criterion_8_perturbation_sweeps():
    seeds = [0, 1, 2]
    mean_rows = sweep(BENCH, "gaussian_mean", [0.0, 0.5, 1.0], seeds=seeds)
    accs = [r["accuracy"] for r in mean_rows]
    assert accs[0] == max(accs) and accs[0] > accs[1] and accs[0] > accs[2], mean_rows

    iso_rows = sweep(BENCH, "gaussian_isotropy", [0.3, 0.5, 0.7], seeds=seeds)
    eranks = [r["erank_ambient"] for r in iso_rows]
    assert eranks[0] > eranks[1] > eranks[2], iso_rows
    print(
        f"\nACCEPTANCE 8 PASS - mean sweep accuracy peaks at 0 ({[round(a, 3) for a in accs]}); "
        f"isotropy sweep Erank strictly decreasing ({[round(e, 2) for e in eranks]})"
    )


def test_criterion_9_byte_identical_outputs(tmp_path):
    config = {
        "variant": "hypergcl",
        "loss": {"lambda_u": 3.0, "t": 2.0},
        "encoder": {"hidden_dim": 16, "out_dim": 8, "init_scale": 6.0},
        "optimizer": {"learning_rate": 0.01, "steps": 60},
        "dataset": {"kind": "balanced_tree", "branching": 2, "height": 3, "feature_noise": 0.5},
        "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    identical = []
    for fname in ("resolved_config.json", "trace.csv", "embeddings.csv", "params.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        # resolved_config embeds out_dir, which legitimately differs
        if fname == "resolved_config.json":
            a = a.replace(str(outs[0]).encode(), b"OUT")
            b = b.replace(str(outs[1]).encode(), b"OUT")
        assert a == b, fname
        identical.append(fname)

    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for p in (d1, d2):
        assert cli.main(["density", "--sigma", "0.7", "--curvature", "1.0", "--dim", "1", "--out", str(p)]) == 0
    assert d1.read_bytes() == d2.read_bytes()
    print(f"\nACCEPTANCE 9 PASS - byte-identical reruns for {identical} and the density CSV")


def test_criterion_10_runtime_budget(bench_runs, verify_all_timing):
    results, verify_seconds = verify_all_timing
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    total = verify_seconds + bench_runs["seconds"]
    assert total < 600.0
    print(
        f"\nACCEPTANCE 10 PASS - verify-all ({verify_seconds:.1f}s) + criterion-6 runs "
        f"({bench_runs['seconds']:.1f}s) = {total:.1f}s < 600s"
    )
