"""Shared test utilities: rank correlations and ball sampling."""
import numpy as np

from hypergcl.verify import _ball_batch as ball_batch  # noqa: F401  (the one ball sampler)


def pearson(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


def spearman(x, y) -> float:
    def ranks(v):
        return np.argsort(np.argsort(v))

    return pearson(ranks(np.asarray(x, float)), ranks(np.asarray(y, float)))
