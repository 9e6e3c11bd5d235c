"""Sensor schedules, measurement synthesis and observability analysis.

Fixed sensors sit on a constant set of segments; mobile sensors hop to the
next non-instrumented mainline segment every ``rotation_period`` steps,
wrapping around and skipping fixed positions.  The observation selector
holds one (density, speed) row pair per listed segment, in the listed
order, a repeated segment included, and
``synthesize_measurements``, the one place a measurement is formed, adds
noise from the caller's generator to the rows it selects.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Topology

__all__ = [
    "SensorSchedule",
    "mobile_positions_at",
    "positions_at",
    "build_observation",
    "synthesize_measurements",
    "GramianResult",
    "observability_gramian",
]


@dataclass(frozen=True)
class SensorSchedule:
    """Fixed sensor segments plus rotating mobile sensors.

    ``rotation_period`` is in steps; ``None`` (or inf) keeps the mobile
    sensors parked at their initial positions.
    """

    fixed_segments: tuple[int, ...]
    mobile_count: int = 0
    rotation_period: float | None = None
    initial_positions: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fixed_segments", tuple(self.fixed_segments))
        object.__setattr__(self, "initial_positions", tuple(self.initial_positions))
        for s in self.fixed_segments + self.initial_positions:
            _check_segment(s)
        if len(set(self.fixed_segments)) != len(self.fixed_segments):
            raise ValueError("duplicate fixed sensor segment")
        if self.mobile_count != len(self.initial_positions):
            raise ValueError("mobile_count must match initial_positions")
        if len(set(self.initial_positions)) != len(self.initial_positions):
            raise ValueError("duplicate mobile start position")
        if self.rotation_period is not None and not math.isinf(self.rotation_period):
            if int(self.rotation_period) != self.rotation_period or self.rotation_period < 1:
                raise ValueError("rotation_period must be a positive whole number of steps")
        for s in self.initial_positions:
            if s in self.fixed_segments:
                raise ValueError(f"mobile start {s} collides with a fixed sensor")


def _check_segment(s) -> None:
    """Refuse a segment id that is not an integer (``bool`` included)."""
    if isinstance(s, bool) or not isinstance(s, numbers.Integral):
        raise ValueError(f"sensor segment {s!r} is not an integer")


@lru_cache(maxsize=32)
def _layout(sched: SensorSchedule, topo: Topology):
    """``(slots, starts, fixed, period)``: the free mainline slots, each
    mobile sensor's start index among them, the sorted fixed segments and
    the steps between hops (0 for parked sensors), built once per
    (schedule, topology).  A step's layout is then an index shift."""
    slots = [s for s in range(1, topo.n_mainline + 1)
             if s not in sched.fixed_segments]
    for s in sched.initial_positions:
        if s not in slots:
            raise ValueError(f"mobile start {s} is not a free mainline segment")
    starts = tuple(slots.index(s) for s in sched.initial_positions)
    period = sched.rotation_period
    period = 0 if period is None or math.isinf(period) else int(period)
    return tuple(slots), starts, sorted(sched.fixed_segments), period


def mobile_positions_at(sched: SensorSchedule, topo: Topology, k: int) -> list[int]:
    """Mobile sensor segments at step k (k = 0 is the first measurement).

    Every ``rotation_period`` steps each sensor advances to the next free
    mainline segment, wrapping past the end and skipping fixed positions.
    """
    return positions_at(sched, topo, k)[:sched.mobile_count]


def positions_at(sched: SensorSchedule, topo: Topology, k: int) -> list[int]:
    """All measured segments at step k: mobile positions then fixed ones."""
    slots, starts, fixed, period = _layout(sched, topo)
    shift = k // period if period else 0
    return [slots[(i + shift) % len(slots)] for i in starts] + fixed


def build_observation(measured, topo: Topology) -> np.ndarray:
    """Row selector with one (density, speed) row pair per listed segment.

    The pairs follow the listed order, and a segment listed twice is read
    twice; an id that is not an integer is refused, not truncated.
    ``SensorSchedule`` refuses repeated sensors and
    ``positions_at`` never repeats a segment, so a schedule's selector
    reads each measured segment once.
    """
    C = np.zeros((2 * len(measured), topo.n_x))
    for r, s in enumerate(measured):
        _check_segment(s)
        if not 1 <= s <= topo.n_segments:
            raise ValueError(f"segment id {s} out of range 1..{topo.n_segments}")
        C[2 * r, 2 * (s - 1)] = 1.0
        C[2 * r + 1, 2 * (s - 1) + 1] = 1.0
    return C


def synthesize_measurements(obs, C, std: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Noisy measurement ``C obs + nu`` of what the sensors read.

    ``obs`` holds the (density, speed) pair of every segment: a truth's
    observed row (``TruthResult.obs[k]``) or ``measure_h`` of a state.
    ``nu`` is zero-mean i.i.d. uniform noise on
    ``[-std*sqrt(3), std*sqrt(3)]``, so its variance equals ``std**2``;
    density and speed rows share the same std.  It is drawn from ``rng``,
    so one generator passed at every step gives one continuous noise
    stream.  A std of 0 draws nothing.
    """
    if not (math.isfinite(std) and std >= 0):
        raise ValueError(f"noise std must be a finite number >= 0, got {std}")
    C = np.asarray(C, dtype=float)
    y = C @ obs
    if std == 0.0:
        return y
    half = std * math.sqrt(3.0)
    return y + rng.uniform(-half, half, C.shape[0])


@dataclass
class GramianResult:
    """Truncated observability Gramian and its diagnostics."""

    W: np.ndarray
    min_eigenvalue: float
    spectral_radius: float
    stable: bool
    diverged: bool


def observability_gramian(A_tilde, C_tilde, terms: int = 200) -> GramianResult:
    """Truncated sum of (A^T)^m C^T C A^m for m = 0..terms-1.

    The spectral radius of A_tilde is reported; an unstable A_tilde or a
    growing tail marks the result as diverged.
    """
    A = np.asarray(A_tilde, dtype=float)
    C = np.asarray(C_tilde, dtype=float)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    rad = float(np.max(np.abs(np.linalg.eigvals(A))))
    M = C.T @ C
    W = M.copy()
    tail = []
    for _ in range(terms - 1):
        M = A.T @ M @ A
        W += M
        tail.append(float(np.linalg.norm(M)))
    W = 0.5 * (W + W.T)
    diverged = False
    if len(tail) >= 10:
        last, prev = tail[-1], tail[-10]
        diverged = last > prev and last > 1e-14
    stable = rad < 1.0 + 1e-9
    if not stable:
        diverged = True
    min_eig = float(np.linalg.eigvalsh(W)[0])
    return GramianResult(W, min_eig, rad, stable, diverged)
