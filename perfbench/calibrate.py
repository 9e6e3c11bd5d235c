"""Host-speed calibration: a fixed kernel timed between estimator steps.

On a shared host the same code runs at speeds up to ~1.8x apart, in
phases that last from seconds to minutes, so a run's wall-clock throughput
reads whichever phase it fell in.  A fixed kernel timed next to the work
slows down with it: over 41 rounds of ``long-highway`` the per-round wall
time spread 16.7% (quartile distance over the median) and the per-round
time rescaled by the kernel 3-4%.

The kernel is a few accelerated projected-gradient iterations on a fixed
120-variable box QP: small matrix-vector products, element-wise numpy and
Python scalar work, the same mix as the estimators.  It uses only numpy,
never the program, so a change to the program cannot move it.  Time is
rescaled to ``REF_S``, the kernel's typical time on the reference host:
a step that took ``t`` while the kernel took ``c`` counts ``t * REF_S / c``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 1.2e-3  # the kernel's typical time on the reference host
EVERY_S = 0.1   # step time between two samples of the kernel

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((120, 120))
_H = _A @ _A.T / 120 + np.eye(120)
_Q = _rng.standard_normal(120)
_LO, _HI = -np.ones(120), np.ones(120)


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    y = z = np.zeros(120)
    acc = 0.0
    for it in range(60):
        g = 2.0 * (_H @ y) + _Q
        z_new = np.clip(y - g / 50.0, _LO, _HI)
        acc += float(z_new @ z_new) * 0.5 + it * 0.25
        y = z_new + 0.3 * (z_new - z)
        z = z_new
    return time.perf_counter() - t0


def sample(reps: int = 5) -> float:
    """Median kernel time over ``reps`` runs, after one warm-up run."""
    kernel()
    return statistics.median(kernel() for _ in range(reps))


class Meter:
    """Step time, raw and rescaled, for one estimator run.

    ``add(t)`` takes one step's wall time.  Once ``due`` (every ``EVERY_S``
    of step time, and at the end of the run for the steps left over),
    ``sample()`` runs the kernel once and rescales the steps since the
    last sample by it.
    """

    def __init__(self):
        self.work_s = 0.0      # raw step time
        self.scaled_s = 0.0    # step time rescaled to REF_S
        self.kernel_s = 0.0    # time spent in the kernel itself
        self.samples = 0
        self.pending_s = 0.0

    def add(self, step_s: float) -> None:
        self.work_s += step_s
        self.pending_s += step_s

    @property
    def due(self) -> bool:
        return self.pending_s >= EVERY_S

    def sample(self) -> None:
        c = kernel()
        self.scaled_s += self.pending_s * REF_S / c
        self.kernel_s += c
        self.samples += 1
        self.pending_s = 0.0
