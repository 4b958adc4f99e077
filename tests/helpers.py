"""Shared test utilities: rank correlations, ball sampling, the KS statistic and perfbench."""
import importlib.util
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


# perfbench/run.py, a script in a directory that is not a package
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
