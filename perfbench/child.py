"""One `hypergcl train` run in a fresh interpreter, timed from outside the package.

    python3 perfbench/child.py --src SRC --config CFG --out DIR --report REPORT
        [--trace | --setup-only]

The start stamp is taken before `import hypergcl`.  Without --trace the only
wrappers sit on `cli.train`, stamping its entry and exit, so set-up (import,
config parse, dataset, output dir) and training are timed apart, and on
`Adam.step`.  With
--trace, the public functions of every layer on the train path are wrapped
at the names they are looked up through (a module that does
`from .linalg import cholesky` is patched at its own `cholesky`), and each
call records a span.  In both modes the exit of every `Adam.step` is
stamped (one clock read per step), so the runner can time blocks of steps.
With --setup-only the run stops at entry into `train`, so set-up alone is
timed.  The report is JSON; the exit code is the one `hypergcl.cli.main`
returned (0 after --setup-only).
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# span name -> [(module, attribute path)] where the callers look the function up.
WRAP_SITES = {
    "cli.parse_config": [("cli", "parse_config")],
    "trainer.build_dataset": [("cli", "build_dataset")],
    "trainer.train": [("cli", "train")],
    "cli.write": [("cli", "write_trace_csv"), ("cli", "write_matrix_csv"), ("cli", "_write_json")],
    "graphnet.augment": [("trainer", "augment")],
    "graphnet.encode": [("trainer", "encode")],
    "tensor.matmul": [("tensor", "matmul")],
    "tensor.spmm": [("tensor", "spmm")],
    "tensor.prelu": [("tensor", "prelu")],
    "tensor.take_rows": [("tensor", "take_rows")],
    "tensor.logdet": [("tensor", "logdet")],
    "tensor.backward": [("tensor", "backward")],
    "geometry.project_rows": [("geometry", "project_rows")],
    "geometry.log0_rows": [("geometry", "log0_rows")],
    "geometry.distance_rows": [("geometry", "distance_rows")],
    "geometry.mobius_add_rows": [("geometry", "mobius_add_rows")],
    "losses.total_loss_parts": [("losses", "total_loss_parts")],
    "losses.alignment_hyperbolic": [("losses", "alignment_hyperbolic")],
    "losses.isotropy_tangent": [("losses", "isotropy_tangent")],
    "losses.uniformity_hyperbolic_naive": [("losses", "uniformity_hyperbolic_naive")],
    "spectral.tangent_moments_tensors": [("spectral", "tangent_moments_tensors")],
    "spectral.gaussian_kl_tensors": [("spectral", "gaussian_kl_tensors")],
    "spectral.effective_rank": [("spectral", "effective_rank")],
    "linalg.jacobi_svd_values": [("spectral", "jacobi_svd_values")],
    "linalg.cholesky": [("tensor", "cholesky"), ("linalg", "cholesky")],
    "linalg.spd_inverse": [("tensor", "spd_inverse")],
    "trainer.Adam.step": [("trainer", "Adam.step")],
}


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.op_nodes = {}
        self.backward_calls = 0

    def wrap(self, name, fn):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def count_tape(self, backward):
        """Read the tape's node list when the backward sweep is entered."""

        def counted(tape, output):
            self.backward_calls += 1
            for node in tape.nodes:
                self.tape_nodes += 1
                self.tape_bytes += node.out.data.nbytes
                self.op_nodes[node.name] = self.op_nodes.get(node.name, 0) + 1
            return backward(tape, output)

        return counted

    def summary(self) -> dict:
        """Per-name calls, total and self time, plus nesting violations."""
        child_ns = [0] * len(self.spans)
        violations = 0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    violations += 1
                child_ns[parent] += end - start
        layers = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            row = layers.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - inner
        steps = max(self.backward_calls, 1)
        return {
            "layers": layers,
            "nest_violations": violations,
            "tape_nodes_per_step": self.tape_nodes / steps,
            "tape_bytes_per_step": self.tape_bytes / steps,
            "op_nodes_per_step": {k: v / steps for k, v in sorted(self.op_nodes.items())},
        }


class SetupDone(BaseException):
    """Raised at entry into train under --setup-only; no handler in the package catches it."""


def stamp_exits(fn, exits):
    """Wrap `fn` so that the clock is read when each call returns."""

    def stamped(*args, **kwargs):
        out = fn(*args, **kwargs)
        exits.append(time.perf_counter())
        return out

    return stamped


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer, modules, stamps) -> None:
    """Patch every wrap site; a site that no longer exists is an error."""
    for name, sites in WRAP_SITES.items():
        for mod_name, path in sites:
            try:
                owner, attr = _resolve(modules[mod_name], path)
                fn = getattr(owner, attr)
            except AttributeError:
                raise SystemExit(f"perfbench: wrap site {mod_name}.{path} for {name} is gone")
            if not callable(fn):
                raise SystemExit(f"perfbench: wrap site {mod_name}.{path} is not callable")
            wrapped = tracer.wrap(name, fn)
            # Tape counting sits outside the span, so its cost is not charged
            # to the layer it observes.
            if name == "tensor.backward":
                wrapped = tracer.count_tape(wrapped)
            if name == "trainer.train":
                wrapped = stamps(wrapped)
            setattr(owner, attr, wrapped)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory holding the hypergcl package")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="stop at entry into train")
    args = p.parse_args(argv)

    sys.path.insert(0, args.src)
    from hypergcl import cli, geometry, linalg, losses, spectral, tensor, trainer

    stamp = {}
    step_exits = []

    def stamps(fn):
        def stamped(*a, **kw):
            stamp["train_enter"] = time.perf_counter()
            if args.setup_only:
                raise SetupDone
            try:
                return fn(*a, **kw)
            finally:
                stamp["train_exit"] = time.perf_counter()

        return stamped

    tracer = None
    if args.trace:
        tracer = Tracer()
        modules = {
            "cli": cli,
            "trainer": trainer,
            "tensor": tensor,
            "geometry": geometry,
            "losses": losses,
            "spectral": spectral,
            "linalg": linalg,
        }
        install(tracer, modules, stamps)
    else:
        cli.train = stamps(cli.train)
    # Outside any span, so the stamp is not charged to Adam.step.
    trainer.Adam.step = stamp_exits(trainer.Adam.step, step_exits)

    try:
        rc = cli.main(["train", "--config", args.config, "--out", args.out])
    except SetupDone:
        rc = 0
    t_end = time.perf_counter()
    report = {
        "rc": rc,
        "start": T0,
        "end": t_end,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "step_exits": step_exits,
        **stamp,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
