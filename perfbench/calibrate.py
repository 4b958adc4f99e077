"""Machine calibration: time a fixed pure-numpy reference kernel.

    python3 perfbench/calibrate.py

Prints one JSON object: the kernel's median time in ms (`ref_ms`) and the
Python, numpy and BLAS versions.  The kernel mixes the operations a train
step is made of (a dense matmul, a scatter-add like `spmm`, elementwise
transcendentals), so drift of a shared host shows next to the benchmark's
figures apart from any change in the program.
"""
import json
import platform
import statistics
import time

import numpy as np


def reference_kernel(a, rows, cols, vals):
    y = a @ a
    z = np.zeros_like(a)
    np.add.at(z, rows, vals[:, None] * y[cols])
    return float(np.sum(np.tanh(z)) + np.sum(np.arctanh(np.clip(z, -0.5, 0.5))))


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> None:
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((256, 256)) / 16.0
    rows = rng.integers(0, 256, size=2048)
    cols = rng.integers(0, 256, size=2048)
    vals = rng.random(2048)
    reference_kernel(a, rows, cols, vals)
    times = []
    for _ in range(31):
        t0 = time.perf_counter()
        reference_kernel(a, rows, cols, vals)
        times.append(time.perf_counter() - t0)
    print(
        json.dumps(
            {
                "ref_ms": 1000.0 * statistics.median(times),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": blas_name(),
            }
        )
    )


if __name__ == "__main__":
    main()
