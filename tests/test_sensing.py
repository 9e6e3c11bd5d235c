"""Sensor schedules, observation selectors, noise synthesis and the
truncated observability Gramian."""
import math
from dataclasses import replace

import numpy as np
import pytest

from arzest.model import OffRamp, OnRamp, Topology, equilibrium_state, measure_h
from arzest.scenarios import default_schedule, paper_topology
from arzest.sensing import (
    GramianResult,
    SensorSchedule,
    build_observation,
    mobile_positions_at,
    observability_gramian,
    positions_at,
    synthesize_measurements,
)

FIXED = (9, 10, 11, 12)


def _default_schedule(period=15):
    return SensorSchedule(fixed_segments=FIXED, mobile_count=3,
                          rotation_period=period,
                          initial_positions=(1, 3, 7))


def test_rotation_hops_to_next_free_segment(topo):
    sched = _default_schedule()
    # Free mainline slots are 1..8 (segment 9 carries a fixed sensor).
    assert mobile_positions_at(sched, topo, 0) == [1, 3, 7]
    assert mobile_positions_at(sched, topo, 14) == [1, 3, 7]
    assert mobile_positions_at(sched, topo, 15) == [2, 4, 8]
    assert mobile_positions_at(sched, topo, 29) == [2, 4, 8]
    # The third sensor wraps past slot 8 back to slot 1.
    assert mobile_positions_at(sched, topo, 30) == [3, 5, 1]


def test_rotation_period_one(topo):
    sched = _default_schedule(period=1)
    assert mobile_positions_at(sched, topo, 0) == [1, 3, 7]
    assert mobile_positions_at(sched, topo, 1) == [2, 4, 8]


@pytest.mark.parametrize("period", [None, math.inf])
def test_parked_mobiles(period, topo):
    sched = _default_schedule(period=period)
    for k in (0, 15, 1000):
        assert mobile_positions_at(sched, topo, k) == [1, 3, 7]


def test_positions_include_sorted_fixed(topo):
    sched = SensorSchedule(fixed_segments=(12, 9, 11, 10), mobile_count=3,
                           rotation_period=15, initial_positions=(1, 3, 7))
    assert positions_at(sched, topo, 0) == [1, 3, 7, 9, 10, 11, 12]


def test_schedule_validation():
    with pytest.raises(ValueError):
        SensorSchedule(fixed_segments=(9, 9))
    with pytest.raises(ValueError):
        SensorSchedule(fixed_segments=FIXED, mobile_count=2,
                       initial_positions=(1,))
    with pytest.raises(ValueError):
        SensorSchedule(fixed_segments=FIXED, mobile_count=2,
                       rotation_period=15, initial_positions=(1, 1))
    with pytest.raises(ValueError):
        SensorSchedule(fixed_segments=FIXED, mobile_count=1,
                       rotation_period=0, initial_positions=(1,))
    with pytest.raises(ValueError):
        SensorSchedule(fixed_segments=FIXED, mobile_count=1,
                       rotation_period=2.5, initial_positions=(1,))
    with pytest.raises(ValueError):
        SensorSchedule(fixed_segments=FIXED, mobile_count=1,
                       rotation_period=15, initial_positions=(9,))
    with pytest.raises(ValueError, match="2.5"):
        SensorSchedule(fixed_segments=(2.5,))


def test_mobile_start_must_be_free_mainline(topo):
    # The ramp segment (10) exists but is not a mainline rotation slot.
    sched = SensorSchedule(fixed_segments=(9, 11, 12), mobile_count=1,
                           rotation_period=15, initial_positions=(10,))
    with pytest.raises(ValueError):
        mobile_positions_at(sched, topo, 0)


def _positions_recomputed(sched, topo, k):
    """The layout at step k, rebuilt from the schedule alone."""
    slots = [s for s in range(1, topo.n_mainline + 1)
             if s not in sched.fixed_segments]
    period = sched.rotation_period
    shift = 0 if period is None or math.isinf(period) else k // int(period)
    return ([slots[(slots.index(s) + shift) % len(slots)]
             for s in sched.initial_positions] + sorted(sched.fixed_segments))


def _long_highway_schedule():
    topo = Topology(30, (OnRamp(8), OnRamp(20)),
                    (OffRamp(12, 0.15), OffRamp(25, 0.15)))
    sched = replace(default_schedule(topo), mobile_count=5,
                    initial_positions=(2, 8, 14, 20, 26))
    return sched, topo


@pytest.mark.parametrize("case", ["reference", "long-highway"])
def test_positions_at_equals_the_per_step_layout(case):
    """Over three full rotation cycles the cached layout shifts exactly as
    a per-step rebuild of the free slots and sorted fixed segments."""
    if case == "reference":
        topo = paper_topology()
        sched = default_schedule(topo)
    else:
        sched, topo = _long_highway_schedule()
    n_free = topo.n_mainline - sum(1 <= s <= topo.n_mainline
                                   for s in sched.fixed_segments)
    for k in range(3 * n_free * int(sched.rotation_period)):
        want = _positions_recomputed(sched, topo, k)
        assert positions_at(sched, topo, k) == want
        assert mobile_positions_at(sched, topo, k) == want[:sched.mobile_count]


def test_positions_at_refuses_a_start_outside_the_free_slots(topo):
    sched = SensorSchedule(fixed_segments=(9, 11, 12), mobile_count=1,
                           rotation_period=15, initial_positions=(10,))
    for _ in range(2):
        with pytest.raises(ValueError, match="mobile start 10 is not a free"):
            positions_at(sched, topo, 0)


def test_build_observation_rows(topo):
    C = build_observation([2, 10], topo)
    assert C.shape == (4, topo.n_x)
    assert C[0, 2] == 1.0 and C[1, 3] == 1.0
    assert C[2, 18] == 1.0 and C[3, 19] == 1.0
    assert np.sum(C) == 4.0


def test_build_observation_reads_a_repeated_segment_twice(topo):
    """One row pair per listed segment: segment 3 listed twice gives its
    pair twice, and the other rows are those of ``[3, 5]``."""
    C = build_observation([3, 3, 5], topo)
    assert C.shape == (6, topo.n_x)
    np.testing.assert_array_equal(C[2:4], C[0:2])
    np.testing.assert_array_equal(C[[0, 1, 4, 5]], build_observation([3, 5], topo))
    assert C[0, 4] == 1.0 and C[1, 5] == 1.0


def test_build_observation_range_check(topo):
    with pytest.raises(ValueError):
        build_observation([0], topo)
    with pytest.raises(ValueError):
        build_observation([13], topo)
    with pytest.raises(ValueError, match="2.5"):
        build_observation([2.5], topo)


def test_noise_model_validation(topo, params):
    """A negative or non-finite std is refused before anything is drawn."""
    obs = measure_h(equilibrium_state(topo, params, 40.0), params)
    C = build_observation([1, 5], topo)
    for std in (-1.0, math.inf, math.nan):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="noise std"):
            synthesize_measurements(obs, C, std, rng)
        assert rng.uniform() == np.random.default_rng(0).uniform()


def test_noise_statistics(topo, params):
    """Residual spread matches the requested std; support is std*sqrt(3)."""
    obs = measure_h(equilibrium_state(topo, params, 40.0), params)
    C = build_observation(list(range(1, 13)), topo)
    clean = C @ obs
    rng = np.random.default_rng(12)
    res = np.concatenate([
        synthesize_measurements(obs, C, 2.5, rng) - clean
        for _ in range(4000)
    ])
    assert abs(res.std() - 2.5) / 2.5 < 0.01
    assert abs(res.mean()) < 0.05
    assert np.max(np.abs(res)) <= 2.5 * math.sqrt(3.0) + 1e-12


def test_zero_noise_is_exact(topo, params):
    """Std 0 gives the selected rows exactly and leaves the stream alone."""
    obs = measure_h(equilibrium_state(topo, params, 40.0), params)
    C = build_observation([1, 5], topo)
    rng = np.random.default_rng(7)
    y = synthesize_measurements(obs, C, 0.0, rng)
    np.testing.assert_array_equal(y, C @ obs)
    assert rng.uniform() == np.random.default_rng(7).uniform()


def test_noise_stream_continuity(topo, params):
    """A persistent generator advances across calls: equal generators give
    equal draws, and the next call on one of them gives new ones."""
    obs = measure_h(equilibrium_state(topo, params, 40.0), params)
    C = build_observation([1, 5], topo)
    rng = np.random.default_rng(5)
    a = synthesize_measurements(obs, C, 3.0, rng)
    b = synthesize_measurements(obs, C, 3.0, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    c = synthesize_measurements(obs, C, 3.0, rng)
    assert not np.array_equal(c, a)


def test_gramian_diagonal_oracle():
    """Geometric sums: W = diag(1/(1-0.25), 1/(1-0.64)) for A=diag(.5,.8)."""
    A = np.diag([0.5, 0.8])
    out = observability_gramian(A, np.eye(2), terms=400)
    assert isinstance(out, GramianResult)
    np.testing.assert_allclose(np.diag(out.W), [4.0 / 3.0, 1.0 / 0.36],
                               rtol=1e-12)
    np.testing.assert_allclose(out.W[0, 1], 0.0, atol=1e-15)
    assert abs(out.min_eigenvalue - 4.0 / 3.0) < 1e-9
    assert abs(out.spectral_radius - 0.8) < 1e-12
    assert out.stable and not out.diverged


def test_gramian_single_term_is_ctc():
    C = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = observability_gramian(np.diag([0.5, 0.8]), C, terms=1)
    np.testing.assert_allclose(out.W, C.T @ C)


def test_gramian_unobservable_direction():
    A = np.diag([0.5, 0.8])
    out = observability_gramian(A, np.array([[1.0, 0.0]]), terms=400)
    assert out.min_eigenvalue < 1e-12
    assert out.W[1, 1] == 0.0


def test_gramian_flags_unstable():
    out = observability_gramian(np.diag([1.2, 0.5]), np.eye(2), terms=50)
    assert not out.stable
    assert out.diverged
    assert abs(out.spectral_radius - 1.2) < 1e-12


def test_gramian_terms_validation():
    with pytest.raises(ValueError):
        observability_gramian(np.eye(2), np.eye(2), terms=0)
