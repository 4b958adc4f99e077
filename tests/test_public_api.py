"""The public surface: the README's Python API example and every exported name."""
import ast
import importlib
import inspect
import operator
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hypergcl


def _readme_python_api_block() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def _modules() -> list:
    return [hypergcl, *(importlib.import_module(f"hypergcl.{m.name}") for m in pkgutil.iter_modules(hypergcl.__path__))]


def test_readme_example_runs_and_every_export_resolves():
    # the example runs as written; each bare expression's value is kept by its source text
    source = _readme_python_api_block()
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            values[ast.get_source_segment(source, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert values["distance(p, q, c)"] == pytest.approx(2.0 * np.arctanh(0.8), abs=1e-12)
    assert abs(values["integrate_density(spec)"] - 1.0) <= 1e-3

    stale = [f"{m.__name__}.{name}" for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []


# Values that every caller set to one value are module constants (the ball
# margin, the isotropy jitter, the verify seeds and sample count, the
# density integral's cell count).  A parameter of one of these names is
# allowed only where callers pass more than one value.
RETIRED = ("eps", "jitter", "h", "samples", "seed", "resolution")
STILL_SETTABLE = {
    ("gaussian_kl_tensors", "jitter"),  # 0 gives the exact KL of the oracles and criterion 5
    ("finite_diff_check", "h"),  # the pair-op checks step by 1e-8 and 1e-6 near the cap
    # the seeds of a run and of the sampler
    *((name, "seed") for name in ("AugmentationConfig", "ExperimentConfig", "build_dataset", "init_params",
                                  "sample_ambient")),
}


def test_no_retired_value_is_a_parameter():
    found = set()
    for m in _modules():
        for name in getattr(m, "__all__", ()):
            obj = getattr(m, name)
            if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
                continue
            found.update((f"{m.__name__}.{name}", p) for p in inspect.signature(obj).parameters
                         if p in RETIRED and (name, p) not in STILL_SETTABLE)
    assert sorted(found) == []


def test_each_operation_has_one_spelling():
    # tape ops are called by name (`T.add`, `T.smul`, ...) and swept by `T.backward(tape, out)`
    from hypergcl import density, geometry, spectral, tensor

    a = tensor.Tensor(1.0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.matmul):
        for x, y in ((a, tensor.Tensor(2.0)), (a, 2.0), (2.0, a)):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        -a
    retired = ((tensor, "constant"), (tensor.Tape, "backward"), (tensor.SparseMatrix, "to_dense"),
               (geometry, "points_to_matrix"), (density, "ambient_density"))
    assert [f"{owner.__name__}.{name}" for owner, name in retired if hasattr(owner, name)] == []
    # the value API takes an (n, d) array, not a list of points
    c = geometry.Curvature(1.0)
    with pytest.raises(TypeError):
        spectral.tangent_moments([geometry.PoincarePoint([0.1, 0.0], c), geometry.PoincarePoint([0.0, 0.2], c)], c)
