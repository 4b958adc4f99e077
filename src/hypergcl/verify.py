"""Runnable property suites mirroring each module's invariants.

Each suite returns a list of PropertyResult records; the CLI `verify`
subcommand renders them and fails the process if any property fails.  The
suites take no arguments: each draws from its own fixed seed (`_SEEDS`), so
a failure is reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density, geometry as geom, losses, spectral, tensor as T
from .graphnet import AugmentationConfig
from .tensor import SparseMatrix, Tape, Tensor, finite_diff_check

__all__ = ["PropertyResult", "SUITES", "run_suite", "geometry_suite", "autodiff_suite", "density_suite", "spectral_suite"]


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite, name, passed, detail) -> PropertyResult:
    return PropertyResult(suite, name, bool(passed), detail)


_SEEDS = {"geometry": 20240501, "autodiff": 20240502, "density": 20240503, "spectral": 20240504}
_SAMPLES = 10000  # random points per geometry identity


def _ball_batch(rng, n, d, c=1.0, max_radius=0.95) -> np.ndarray:
    """Uniform directions with radii spread over (0, max_radius/sqrt(c))."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radii = max_radius * rng.random((n, 1)) ** (1.0 / d) / np.sqrt(c)
    return x * radii


# ------------------------------------------------------------------ geometry

def geometry_suite() -> list:
    rng = np.random.default_rng(_SEEDS["geometry"])
    out = []
    c = 1.0
    d = 8

    u = _ball_batch(rng, _SAMPLES, d)
    v = _ball_batch(rng, _SAMPLES, d)
    w = _ball_batch(rng, _SAMPLES, d)

    s = geom.mobius_add_rows(Tensor(u), Tensor(v), c)
    back = geom.mobius_add_rows(Tensor(-u), s, c)
    err = float(np.max(np.abs(back.data - v)))
    out.append(_result("geometry", "mobius-left-cancellation", err < 1e-9, f"max err {err:.3e} over {_SAMPLES} pairs"))

    vt = rng.standard_normal((_SAMPLES, d)) * rng.uniform(0.0, 3.0, (_SAMPLES, 1)) / np.sqrt(d)
    z = geom.exp0_rows(Tensor(vt), c)
    rt = geom.log0_rows(z, c)
    err_fwd = float(np.max(np.abs(rt.data - vt)))
    zz = geom.log0_rows(Tensor(u), c)
    err_bwd = float(np.max(np.abs(geom.exp0_rows(zz, c).data - u)))
    out.append(
        _result(
            "geometry",
            "exp-log-roundtrip-origin",
            err_fwd < 1e-9 and err_bwd < 1e-9,
            f"log0(exp0) err {err_fwd:.3e}, exp0(log0) err {err_bwd:.3e}",
        )
    )

    dpq = geom.distance_rows(Tensor(u), Tensor(v), c).data
    dqp = geom.distance_rows(Tensor(v), Tensor(u), c).data
    sym = float(np.max(np.abs(dpq - dqp)))
    dself = geom.distance_rows(Tensor(u), Tensor(u), c).data
    ident = float(np.max(np.abs(dself)))
    out.append(
        _result(
            "geometry",
            "distance-symmetry-identity",
            sym < 1e-12 and ident == 0.0,
            f"max |D(p,q)-D(q,p)| {sym:.3e}, max D(p,p) {ident:.3e}",
        )
    )

    dpr = geom.distance_rows(Tensor(u), Tensor(w), c).data
    dqr = geom.distance_rows(Tensor(v), Tensor(w), c).data
    slack = float(np.max(dpr - (dpq + dqr)))
    out.append(
        _result(
            "geometry",
            "distance-triangle-inequality",
            slack <= 1e-12,
            f"max D(p,r)-D(p,q)-D(q,r) = {slack:.3e} over {_SAMPLES} triples",
        )
    )

    worst = 0.0
    for _ in range(5):
        p0 = _ball_batch(rng, 1, 3, max_radius=0.7)
        q0 = Tensor(_ball_batch(rng, 1, 3, max_radius=0.7))
        worst = max(
            worst,
            finite_diff_check(lambda t: T.mean_all(geom.distance_rows(t, q0, c)), p0),
        )
    out.append(_result("geometry", "distance-gradient-finite-diff", worst < 1e-5, f"max rel err {worst:.3e}"))

    p0 = np.array([[0.03, -0.02, 0.01]])
    q0 = np.array([[-0.01, 0.04, 0.02]])
    small_c = 1e-6
    dd = float(geom.distance_rows(Tensor(p0), Tensor(q0), small_c).data[0])
    ratio_err = abs(dd / (2.0 * np.linalg.norm(p0 - q0)) - 1.0)
    out.append(
        _result(
            "geometry",
            "euclidean-limit",
            ratio_err < 1e-6,
            f"|D/(2||p-q||) - 1| = {ratio_err:.3e} at c={small_c}",
        )
    )

    cap = (1.0 - geom.BALL_MARGIN) / np.sqrt(c)
    big = rng.standard_normal((_SAMPLES, d)) * 2.0
    proj = geom.project_rows(Tensor(big), c).data
    norms = np.linalg.norm(proj, axis=1)
    margin_ok = bool(np.max(norms) <= cap * (1.0 + 1e-14))
    twice = geom.project_rows(Tensor(proj), c).data
    idem = float(np.max(np.abs(twice - proj)))
    inside = big[np.linalg.norm(big, axis=1) <= cap]
    untouched = bool(np.array_equal(geom.project_rows(Tensor(inside), c).data, inside))
    out.append(
        _result(
            "geometry",
            "projection-margin-idempotence",
            margin_ok and idem < 1e-14 and untouched,
            f"max norm {np.max(norms):.12f} vs cap {cap:.12f}, reproject drift {idem:.3e}",
        )
    )
    return out


# ------------------------------------------------------------------ autodiff

def _scalarized_checks(rng) -> list:
    """One (name, fn, point) triple per differentiable op, reduced to scalars."""
    n, d = 4, 3
    a = rng.standard_normal((n, d))
    vec = rng.standard_normal(5)
    pos = rng.uniform(0.5, 2.0, 5)
    inner = rng.uniform(-0.8, 0.8, 5)
    sq = rng.standard_normal((3, 3))
    spd = sq @ sq.T + 3.0 * np.eye(3)
    wm = rng.standard_normal((n, d))
    wv = rng.standard_normal(5)
    w3 = rng.standard_normal((3, 3))
    wn = rng.standard_normal(n)
    other = rng.standard_normal((n, d))
    mat2 = rng.standard_normal((d, 2))
    w42 = rng.standard_normal((n, 2))
    svec = rng.uniform(0.5, 1.5, n)
    rvec = rng.standard_normal(d)
    idx = rng.integers(0, n, 6)
    wi = rng.standard_normal((6, d))
    rng.standard_normal((5, 5))  # unused; drawn so that the points after it stay fixed
    sp = SparseMatrix((n, n), [0, 1, 2, 3, 1], [1, 0, 3, 2, 2], [0.5, 0.5, 1.0, 1.0, 0.25])
    mask = rng.random(5) > 0.5
    big = rng.standard_normal((n, d)) * 3.0
    inside = _ball_batch(rng, n, d, max_radius=0.8)
    wpairs = rng.standard_normal((n * n, 1))

    def ws(x, w):
        return T.sum_all(T.mul(x, Tensor(w)))

    return [
        ("add", lambda x: ws(T.add(x, Tensor(other)), wm), a),
        ("sub", lambda x: ws(T.sub(x, Tensor(other)), wm), a),
        ("mul", lambda x: ws(T.mul(x, Tensor(other)), wm), a),
        ("vdiv", lambda x: ws(T.vdiv(x, Tensor(pos)), wv), vec),
        ("neg", lambda x: ws(T.neg(x), wm), a),
        ("smul-sadd", lambda x: ws(T.sadd(T.smul(x, 1.7), 0.3), wm), a),
        ("tanh", lambda x: ws(T.tanh(x), wv), vec),
        ("artanh", lambda x: ws(T.artanh(x), wv), inner),
        ("vrecip", lambda x: ws(T.vrecip(x), wv), pos),
        ("clip-interior", lambda x: ws(T.clip(x, -10.0, 10.0), wv), vec),
        ("where", lambda x: ws(T.where(mask, x, T.smul(x, 2.0)), wv), vec),
        ("prelu-x", lambda x: ws(T.prelu(x, Tensor(0.25)), wm), a),
        ("prelu-slope", lambda s: T.sum_all(T.mul(T.prelu(Tensor(a), s), Tensor(wm))), np.array(0.25)),
        ("sum", lambda x: T.sum_all(x), a),
        ("mean", lambda x: T.mean_all(x), a),
        ("log_mean_exp", lambda x: T.log_mean_exp(x, -2.0), wpairs),
        ("trace", lambda x: T.trace(x), sq),
        ("batch_mean", lambda x: T.sum_all(T.mul(T.batch_mean(x), Tensor(rvec))), a),
        ("rownorm2", lambda x: ws(T.rownorm2(x), wn), a),
        ("rownorm", lambda x: ws(T.rownorm(x), wn), a + 0.5),
        ("rowdot", lambda x: ws(T.rowdot(x, Tensor(other)), wn), a),
        ("rowscale-x", lambda x: ws(T.rowscale(x, Tensor(svec)), wm), a),
        ("rowscale-s", lambda s: T.sum_all(T.mul(T.rowscale(Tensor(a), s), Tensor(wm))), svec),
        ("sub_rowvec-v", lambda v: T.sum_all(T.mul(T.sub_rowvec(Tensor(a), v), Tensor(wm))), rvec),
        ("take_rows", lambda x: T.sum_all(T.mul(T.take_rows(x, idx), Tensor(wi))), a),
        ("cap-keep", lambda x: ws(T.cap_rownorms(x, 100.0), wm), a),
        ("cap-rescale", lambda x: ws(T.cap_rownorms(x, 0.5), wm), big),
        ("matmul-a", lambda x: T.sum_all(T.mul(T.matmul(x, Tensor(mat2)), Tensor(w42))), a),
        ("matmul-b", lambda y: T.sum_all(T.mul(T.matmul(Tensor(a), y), Tensor(w42))), mat2),
        ("transpose", lambda x: T.sum_all(T.mul(T.transpose(x), Tensor(wm.T))), a),
        ("dot", lambda x: T.dot(x, Tensor(wv)), vec),
        ("add_diag-logdet", lambda x: T.logdet(T.add_diag(x, 0.1)), spd),
        ("spmm", lambda x: ws(T.spmm(sp, x), wm), a),
        ("pair_sqdist", lambda x: ws(T.pair_sqdist(x), wpairs), a),
        ("ball_pair_distances", lambda x: ws(T.ball_pair_distances(x, 1.0), wpairs), inside),
    ]


def autodiff_suite() -> list:
    seed = _SEEDS["autodiff"]
    out = []
    worst_name, worst = "", 0.0
    for point_seed in range(10):
        rng = np.random.default_rng(seed + point_seed)
        for name, fn, x in _scalarized_checks(rng):
            err = finite_diff_check(fn, x)
            if err > worst:
                worst_name, worst = name, err
    out.append(
        _result(
            "autodiff",
            "per-op-gradient-checks",
            worst < 1e-5,
            f"worst rel err {worst:.3e} ({worst_name}) over 10 random points per op",
        )
    )

    def one_pass():
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((6, 4)))
        with Tape() as tape:
            z = geom.exp0_rows(x, 1.0)
            loss = losses.isotropy_tangent(z, z, 1.0)
        return T.backward(tape, loss).wrt(x)

    g1, g2 = one_pass(), one_pass()
    out.append(
        _result(
            "autodiff",
            "tape-replay-determinism",
            np.array_equal(g1, g2),
            "gradients bit-identical across replays",
        )
    )

    worst = 0.0
    rng = np.random.default_rng(seed + 77)
    for d in range(2, 9):
        m = rng.standard_normal((d, d))
        spd = m @ m.T + d * np.eye(d)
        with Tape() as tape:
            s = Tensor(spd)
            val = T.logdet(s)
        grad = T.backward(tape, val).wrt(s)
        inv = np.linalg.inv(spd)
        worst = max(worst, float(np.max(np.abs(grad - (inv + inv.T) / 2.0))))
    out.append(
        _result(
            "autodiff",
            "logdet-backward-is-inverse",
            worst < 1e-9,
            f"max deviation from symmetrized inverse {worst:.3e} (d = 2..8)",
        )
    )
    return out


# ------------------------------------------------------------------- density

def _ks_statistic(sorted_radii: np.ndarray, cdf_vals: np.ndarray) -> float:
    n = sorted_radii.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(hi - cdf_vals)), np.max(np.abs(cdf_vals - lo))))


def density_suite() -> list:
    out = []
    rng = np.random.default_rng(_SEEDS["density"])

    worst = 0.0
    for d in (1, 2, 3):
        spec = density.AmbientDensitySpec(
            rng.standard_normal(d) * 0.2, 0.8 * np.eye(d) + 0.05 * np.ones((d, d)), geom.Curvature(1.0)
        )
        y = rng.standard_normal((200, d)) * 0.8
        z = geom.exp0_rows(Tensor(y), 1.0).data
        lhs = density.ambient_density_grid(z, spec)
        r2 = np.sum(z * z, axis=1)
        g = np.arctanh(np.sqrt(r2)) / np.sqrt(r2)
        lam = 2.0 / (1.0 - r2)
        pn = np.exp(density._mvn_logpdf(y, spec))
        rhs = pn * 0.5 * lam * g ** (d - 1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(
        _result(
            "density",
            "pushforward-jacobian-identity",
            worst < 1e-9,
            f"max |p_Z(exp0(y)) - p_N(y) * detJ| = {worst:.3e}",
        )
    )

    for d, s in ((1, 11), (2, 42)):
        spec = density.isotropic_spec(1.0, 1.0, d)
        z = density.sample_ambient(100000, spec, seed=s)
        radii = np.sort(np.linalg.norm(z, axis=1))
        ks = _ks_statistic(radii, density.radial_cdf(spec, radii))
        out.append(
            _result(
                "density",
                f"monte-carlo-radial-ks-{d}d",
                ks < 0.01,
                f"KS statistic {ks:.5f} at n=100000",
            )
        )

    spec = density.isotropic_spec(0.8, 1.0, 2)
    vals = density.ambient_density_grid(np.array([[1.0, 0.0], [0.9, 0.9], [0.0, 1.0], [2.0, 0.0]]), spec).tolist()
    out.append(
        _result(
            "density",
            "boundary-guard-zero",
            all(v == 0.0 for v in vals),
            f"densities at/outside boundary: {vals}",
        )
    )

    integral = density.integrate_density(density.isotropic_spec(1.0, 1.0, 1))
    out.append(
        _result(
            "density",
            "unit-integral-1d",
            abs(integral - 1.0) < 1e-3,
            f"integral {integral:.6f}",
        )
    )
    return out


# ------------------------------------------------------------------ spectral

def spectral_suite() -> list:
    out = []
    rng = np.random.default_rng(_SEEDS["spectral"])

    m = rng.standard_normal((12, 6))
    base = spectral.effective_rank(m)
    worst = max(abs(spectral.effective_rank(alpha * m) - base) for alpha in (1e-3, 0.1, 10.0, 1e3))
    out.append(
        _result(
            "spectral",
            "erank-scale-invariance",
            worst < 1e-9,
            f"max |Erank(aM) - Erank(M)| = {worst:.3e}",
        )
    )

    min_kl = np.inf
    nonzero_ok = True
    for _ in range(10000):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d)) * rng.uniform(0.3, 1.5)
        sigma = a @ a.T + 1e-6 * np.eye(d)
        mu = rng.standard_normal(d) * rng.uniform(0.0, 1.0)
        kl = spectral.gaussian_kl(spectral.CovarianceSummary(mu, sigma))
        min_kl = min(min_kl, kl)
        if abs(np.max(np.abs(sigma - np.eye(d)))) > 0.1 and kl <= 1e-8:
            nonzero_ok = False
    ident = spectral.gaussian_kl(spectral.CovarianceSummary(np.zeros(4), np.eye(4)))
    out.append(
        _result(
            "spectral",
            "gaussian-kl-nonnegativity",
            min_kl >= -1e-12 and abs(ident) <= 1e-10 and nonzero_ok,
            f"min KL {min_kl:.3e} over 10^4 random PD pairs; KL(I,0) = {ident:.3e}",
        )
    )

    worst = 0.0
    for _ in range(3):
        y0 = rng.standard_normal((6, 3)) * 0.5

        def f(t):
            z = geom.exp0_rows(t, 1.0)
            _, sig = spectral.tangent_moments_tensors(z, 1.0)
            return T.trace(sig)

        worst = max(worst, finite_diff_check(f, y0))
    out.append(
        _result(
            "spectral",
            "moments-gradient-finite-diff",
            worst < 1e-5,
            f"max rel err {worst:.3e} for tr(Sigma) through log0",
        )
    )

    from .losses import LossWeights
    from .trainer import BalancedTree, EncoderConfig, ExperimentConfig, OptimizerConfig, train

    cfg = ExperimentConfig(
        variant="hypergcl",
        weights=LossWeights(lambda_u=3.0, t=2.0),
        encoder=EncoderConfig(hidden_dim=32, out_dim=16, init_scale=6.0),
        optimizer=OptimizerConfig(learning_rate=1e-2, steps=400),
        dataset=BalancedTree(branching=3, height=4, feature_noise=1.0),
        augment1=AugmentationConfig(edge_drop_prob=0.2, node_drop_prob=0.1, seed=1),
        augment2=AugmentationConfig(edge_drop_prob=0.2, node_drop_prob=0.1, seed=2),
        seed=0,
        log_every=10,
    )
    _, trace = train(cfg)
    amb = trace.column("erank_ambient")
    tan = trace.column("erank_tangent")
    r = float(np.corrcoef(amb, tan)[0, 1])
    out.append(
        _result(
            "spectral",
            "ambient-tangent-erank-correlation",
            r > 0.99,
            f"Pearson r = {r:.5f} over a {len(amb)}-record training trace",
        )
    )
    return out


SUITES = {
    "geometry": geometry_suite,
    "autodiff": autodiff_suite,
    "density": density_suite,
    "spectral": spectral_suite,
}


def run_suite(name: str) -> list:
    """Run one named suite or `all`; returns PropertyResult records."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'")
    return SUITES[name]()
