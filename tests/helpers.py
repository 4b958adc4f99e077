"""Shared test utilities: rank correlations, ball sampling, exact ball distances, the KS statistic, dense
references of sparse matrices and perfbench."""
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from hypergcl.verify import _ball_batch as ball_batch  # noqa: F401  (the one ball sampler)
from hypergcl.verify import _ks_statistic as ks_statistic  # noqa: F401  (the one KS statistic)


def pearson(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


def spearman(x, y) -> float:
    def ranks(v):
        return np.argsort(np.argsort(v))

    return pearson(ranks(np.asarray(x, float)), ranks(np.asarray(y, float)))


def dense(sp) -> np.ndarray:
    """Dense copy of a `SparseMatrix`, duplicate (row, col) entries summed in COO order by `np.add.at`."""
    out = np.zeros(sp.shape)
    np.add.at(out, (sp.rows, sp.cols), sp.vals)
    return out


def exact_ball_distance(x, y) -> float:
    """D(x, y) at c = 1 with Delta and a_x a_y in exact rational arithmetic, rounded once."""
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    delta = sum((p - q) ** 2 for p, q in zip(fx, fy))
    w = float(2 * delta / ((1 - sum(p * p for p in fx)) * (1 - sum(q * q for q in fy))))
    return math.log1p(w + math.sqrt(w * (w + 2.0)))


# perfbench/run.py, a script in a directory that is not a package
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
