"""A fixed reference task that gauges how fast the shared core runs right now.

The machine the benchmark runs on is shared: the same decode took up to
twice as long while other tenants were busy, in phases of seconds to
minutes, and in a slow phase even the fastest repeat of a short task is
slow. Each timed unit is therefore bracketed by this task, and its time
is measured in reference tasks (its seconds over the mean of the two
reference times next to it), then converted to seconds at
REFERENCE_SECONDS per task.

The task is small float64 numpy vector work with Python overhead, like
the toy model's per-position step. It is part of the benchmark and must
not change between the commits being compared.
"""
from __future__ import annotations

import time

import numpy as np

# Seconds the task takes on an undisturbed core of the machine the benchmark
# was defined on (2-vCPU x86-64 Xeon at 2.0 GHz, numpy 2.4 with OpenBLAS 0.3.31,
# one BLAS thread): the fastest runs seen there took 0.49 ms. The value only
# sets the scale of the reported times.
REFERENCE_SECONDS = 0.0005

_WEIGHTS = np.random.default_rng(12345).normal(size=(8, 64, 64))


def _task() -> np.ndarray:
    x = _WEIGHTS[0, 0].copy()
    for i in range(40):
        xn = x / np.sqrt(np.mean(x * x) + 1e-6)
        scores = _WEIGHTS[i % 8] @ xn
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        x = x + w @ _WEIGHTS[(i + 3) % 8]
    return x


def reference_seconds(repeats: int = 2) -> float:
    """Mean seconds of one reference task over `repeats` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        _task()
    return (time.perf_counter() - start) / repeats
