"""Host-speed probe: three fixed kernels timed around every measured run.

The benchmark's host is shared, and its speed drifts by a third or more over
tens of seconds, in process CPU time as much as in wall time. A run's time
alone therefore says as much about the neighbours as about the program. Each
measured child times these kernels just before and just after ``cli.run``, in
the same process; ``run.py`` scales the run's time by ``REFERENCE_S`` over
the kernels' time, which gives the run time at a fixed host speed.

The kernels stand for the kinds of work the package does: a pure-Python
float loop (the RK4 sine scans, the tau matrices), many numpy calls on short
vectors (per-pair transport and comparison code) and numpy arithmetic on a
1025x33 grid (the lattice and grid passes). None of them calls the package,
so a change to the package cannot move them. Each is sized to take about
``REFERENCE_S`` on the 2-vCPU Xeon where the benchmark was defined, so that
the scaled times read close to that host's seconds.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.08


def _python_loop() -> None:
    s = 0.0
    for i in range(740_000):
        s += (i % 7) * 0.5 - s * 1e-9


def _short_vectors() -> None:
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(15_000):
        b = np.sin(a) * 0.5 + a
        np.maximum(b, 0.3).sum()


_GRID = np.random.default_rng(0).random((2, 1025, 33))


def _grid_arithmetic() -> None:
    a, b = _GRID
    for _ in range(800):
        c = np.sqrt(a * b + 1.0)
        np.minimum(c[1:], c[:-1]).sum()


KERNELS = (_python_loop, _short_vectors, _grid_arithmetic)


def probe() -> list:
    """(wall, cpu) seconds of each kernel, in ``KERNELS`` order."""
    times = []
    for kernel in KERNELS:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        times.append((time.perf_counter() - wall, time.process_time() - cpu))
    return times


def host_seconds(before: list, after: list, clock: int) -> float:
    """Geometric mean over the kernels of their mean time in two probes.

    ``clock`` is 0 for wall and 1 for CPU seconds.
    """
    logs = [math.log((b[clock] + a[clock]) / 2.0) for b, a in zip(before, after)]
    return math.exp(sum(logs) / len(logs))
