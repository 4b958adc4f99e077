"""The public surface: the README's Python API example and every exported name."""
import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hypergcl


def _readme_python_api_block() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]


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

    submodules = [importlib.import_module(f"hypergcl.{m.name}") for m in pkgutil.iter_modules(hypergcl.__path__)]
    modules = [hypergcl, *submodules]
    stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []
