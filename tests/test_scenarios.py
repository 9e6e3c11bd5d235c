"""Twin-experiment machinery: truth generation, scoring, estimation runs
and the four sweep drivers."""
import faulthandler
import math
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_properties import cases

import arzest.scenarios as scenarios
from arzest import mhe
from arzest.kalman import EstimatorError
from arzest.model import (
    ModelParams,
    StepDiagnostics,
    Topology,
    measure_h,
    pack_inputs,
    step,
)
from arzest.scenarios import (
    EstimatorSpec,
    JamSpec,
    Scenario,
    constant_inputs,
    default_scenario,
    generate_truth,
    moving_average,
    paper_params,
    paper_topology,
    rmse,
    run_estimation,
    sweep_noise,
    sweep_rotation,
    sweep_sensor_count,
    sweep_spacing,
    write_sweep_csv,
)
from arzest.sensing import (
    SensorSchedule,
    build_observation,
    positions_at,
    synthesize_measurements,
)


def _small(t_f=30, noise_std=1.0, estimators=(EstimatorSpec("ekf"),),
           seeds=(0,)):
    sc = default_scenario(t_f=t_f, noise_std=noise_std, estimators=estimators)
    return Scenario(**{**sc.__dict__, "seeds": seeds})


def test_default_truth_jam_forms_and_clears():
    sc = default_scenario(t_f=500)
    truth = generate_truth(sc)
    assert truth.traj.shape == (501, sc.topo.n_x)
    assert truth.clamp_events == 0
    rho6 = truth.traj[:, 2 * (6 - 1)]
    pre = rho6[99]
    assert rho6[150] > 1.5 * pre          # queue grows upstream of the jam
    assert abs(rho6[-1] - pre) < 0.1 * pre  # and clears well before the end
    assert np.all(np.isfinite(truth.traj))


def test_default_scenario_drops_short_jam():
    assert default_scenario(t_f=500).jam is not None
    assert default_scenario(t_f=200).jam is None


def test_truth_starts_from_x_init():
    sc = default_scenario(t_f=500)
    x_init = generate_truth(sc).traj[40]
    sc2 = Scenario(**{**sc.__dict__, "x_init": x_init, "t_f": 10,
                      "inputs": sc.inputs[:10], "jam": None})
    truth = generate_truth(sc2)
    np.testing.assert_array_equal(truth.traj[0], x_init)


def test_scenario_validation():
    sc = default_scenario(t_f=50)
    with pytest.raises(ValueError):
        Scenario(**{**sc.__dict__, "inputs": sc.inputs[:20]})
    with pytest.raises(ValueError):
        Scenario(**{**sc.__dict__, "jam": JamSpec(segment=7, start=0, end=80)})
    with pytest.raises(ValueError):
        Scenario(**{**sc.__dict__, "jam": JamSpec(segment=44, start=0, end=10)})
    with pytest.raises(ValueError):
        JamSpec(segment=7, start=0, end=10, scale=0.0)
    with pytest.raises(ValueError):
        JamSpec(segment=7, start=5, end=2)
    with pytest.raises(ValueError):
        EstimatorSpec("pf")
    for std in (-5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="noise_std"):
            Scenario(**{**sc.__dict__, "noise_std": std})
    with pytest.raises(ValueError, match="noise_std"):
        default_scenario(20, -5.0)
    for seeds in ((), (0, -1), (0.5,)):
        with pytest.raises(ValueError, match="seeds"):
            Scenario(**{**sc.__dict__, "seeds": seeds})
    with pytest.raises(ValueError, match="warmup_steps"):
        Scenario(**{**sc.__dict__, "warmup_steps": -3})
    # A state of the wrong shape, a negative density, a non-finite entry
    # and a density above rho_m.
    x = generate_truth(sc).traj[0]
    for bad in (x[:-1], np.r_[-1.0, x[1:]], np.r_[x[:-1], np.nan],
                np.r_[x[:-2], sc.params.rho_m + 1.0, x[-1]]):
        with pytest.raises(ValueError, match="x_init"):
            Scenario(**{**sc.__dict__, "x_init": bad})
    # Layouts that only the topology can refuse: a segment past the last
    # one, and a mobile start on a ramp.
    for sched in (SensorSchedule(fixed_segments=(99,)),
                  SensorSchedule(fixed_segments=(1,), mobile_count=1,
                                 initial_positions=(12,))):
        with pytest.raises(ValueError, match="sensor schedule"):
            Scenario(**{**sc.__dict__, "schedule": sched})


def test_sweep_noise_refuses_bad_std_before_any_cell(monkeypatch):
    ran = []
    monkeypatch.setattr(scenarios, "generate_truth",
                        lambda sc: ran.append("truth"))
    monkeypatch.setattr(scenarios, "_averaged_row",
                        lambda *args: ran.append("cell"))
    with pytest.raises(ValueError, match="noise_std"):
        sweep_noise(_small(t_f=5), stds=(1.0, -1.0), jobs=2)
    assert ran == []


def _jam_case(noise_std=0.0):
    """40 steps with a slowdown on cell 7 during [10, 30) and one connected
    vehicle parked on it."""
    sc = default_scenario(t_f=40, noise_std=noise_std,
                          estimators=(EstimatorSpec("ekf"),))
    sched = SensorSchedule(fixed_segments=(9, 10, 11, 12), mobile_count=1,
                           initial_positions=(7,))
    return Scenario(**{**sc.__dict__, "schedule": sched, "seeds": (0,),
                       "jam": JamSpec(segment=7, start=10, end=30,
                                      scale=0.3)})


def _record_measurements(monkeypatch) -> list:
    """Capture the (y, C) pair every estimator step receives."""
    seen = []
    make_real = scenarios.make_estimator

    def make(*args):
        est = make_real(*args)
        step_real = est.step

        def spy(u, y, C):
            seen.append((np.array(y), np.array(C)))
            return step_real(u, y, C)

        est.step = spy
        return est

    monkeypatch.setattr(scenarios, "make_estimator", make)
    return seen


def test_sensor_on_jam_segment_reads_slowed_speed(monkeypatch):
    sc = _jam_case()
    truth = generate_truth(sc)
    seen = _record_measurements(monkeypatch)
    run_estimation(sc, truth, sc.estimators[0], seed=0)
    assert len(seen) == sc.t_f

    p = sc.params
    v7 = 2 * (7 - 1) + 1
    slowed = 0
    for k, (y, C) in enumerate(seen, start=1):
        h = measure_h(truth.traj[k], p)
        rho, psi = truth.traj[k, v7 - 1], truth.traj[k, v7]
        free = psi / rho - p.v_f * (rho / p.rho_m) ** p.gamma
        row = int(np.flatnonzero(C[:, v7])[0])
        if sc.jam.start <= k < sc.jam.end:
            assert y[row] == pytest.approx(0.3 * free, rel=1e-12)
            slowed += 1
        else:
            assert y[row] == h[v7]
        # Densities and every other segment read exactly as the map gives.
        others = np.arange(C.shape[0]) != row
        np.testing.assert_array_equal(y[others], (C @ h)[others])
    assert slowed == sc.jam.end - sc.jam.start


def test_run_estimation_measures_through_one_path(monkeypatch):
    """Every step's measurement is ``synthesize_measurements`` of the
    truth's observed row, drawn in turn from the run's noise stream, over
    a window with jam steps."""
    sc = _jam_case(noise_std=5.0)
    truth = generate_truth(sc)
    seen = _record_measurements(monkeypatch)
    seed = 3
    run_estimation(sc, truth, sc.estimators[0], seed)
    assert len(seen) == sc.t_f
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    for k, (y, C) in enumerate(seen, start=1):
        np.testing.assert_array_equal(
            C, build_observation(positions_at(sc.schedule, sc.topo, k - 1),
                                 sc.topo))
        want = synthesize_measurements(truth.obs[k], C, sc.noise_std, rng)
        assert y.tobytes() == want.tobytes()


def test_run_estimation_builds_each_layout_once(monkeypatch):
    """A run builds one selector per sensor layout it meets, read-only, and
    hands every step the selector of its layout."""
    sc = default_scenario(t_f=40, estimators=(EstimatorSpec("ekf"),))
    truth = generate_truth(sc)
    built, seen = [], []

    def counting(measured, topo):
        built.append(tuple(measured))
        return build_observation(measured, topo)

    def make(*args):
        est = make_real(*args)
        step_real = est.step

        def spy(u, y, C):
            seen.append(C)
            return step_real(u, y, C)

        est.step = spy
        return est

    make_real = scenarios.make_estimator
    monkeypatch.setattr(scenarios, "build_observation", counting)
    monkeypatch.setattr(scenarios, "make_estimator", make)
    run_estimation(sc, truth, sc.estimators[0], seed=0)
    layouts = [tuple(positions_at(sc.schedule, sc.topo, k))
               for k in range(sc.t_f)]
    assert built == list(dict.fromkeys(layouts))
    assert len(built) == 3  # the connected vehicles hop every 15 steps
    for C, layout in zip(seen, layouts):
        assert not C.flags.writeable
        np.testing.assert_array_equal(C, build_observation(layout, sc.topo))


def test_truth_trajectory_ignores_what_sensors_read():
    """The observed rows leave the simulated trajectory untouched: it is
    the plain step loop with the jam scaling inside its window."""
    sc = _jam_case()
    truth = generate_truth(sc)
    x = truth.traj[0]
    jam_sc = np.ones(sc.topo.n_segments)
    jam_sc[6] = 0.3
    diag = StepDiagnostics()
    for k in range(sc.t_f):
        active = sc.jam.start <= k < sc.jam.end
        x = step(x, sc.inputs[k], sc.topo, sc.params,
                 ds_scale=jam_sc if active else None, diag=diag)
        assert truth.traj[k + 1].tobytes() == x.tobytes()
    assert truth.clamp_events == diag.clamped
    np.testing.assert_array_equal(truth.obs[:, 0::2], truth.traj[:, 0::2])


def test_speed_score_uses_observed_speeds():
    """An estimate whose speeds match the sensors scores no speed error;
    the measurement map of the truth would penalise it inside the jam."""
    sc = _jam_case()
    truth = generate_truth(sc)
    p = sc.params
    est = truth.traj.copy()
    rho = est[:, 0::2]
    est[:, 1::2] = rho * (truth.obs[:, 1::2]
                          + p.v_f * (rho / p.rho_m) ** p.gamma)
    r_rho, r_v = rmse(truth.traj, est, p, truth_obs=truth.obs)
    assert r_rho == 0.0 and r_v < 1e-9
    assert rmse(truth.traj, est, p)[1] > 1.0
    with pytest.raises(ValueError):
        rmse(truth.traj, est, p, truth_obs=truth.obs[1:])

    res = run_estimation(sc, truth, sc.estimators[0], seed=0)
    assert (res.rmse_rho, res.rmse_v) == rmse(truth.traj, res.est, p,
                                              truth_obs=truth.obs)


def test_constant_inputs_shape():
    topo = paper_topology()
    U = constant_inputs(topo, 12, 8800.0, 102.0, 30.0, (600.0,), (102.0,),
                        (20.0, 20.0))
    assert U.shape == (12, topo.n_u)
    np.testing.assert_array_equal(
        U[0], pack_inputs(topo, 8800.0, 102.0, 30.0, (600.0,), (102.0,),
                          (20.0, 20.0)))
    assert np.all(U == U[0])


def test_rmse_hand_computed():
    """Recompute both scores with explicit loops on a one-cell network."""
    params = ModelParams(v_f=102.0, rho_m=345.0, tau=20.0, gamma=1.75,
                         T=1.0 / 3600.0, l=0.1)
    topo = Topology(n_mainline=1)
    truth = np.array([[50.0, 50.0 * 80.0],
                      [60.0, 60.0 * 70.0],
                      [40.0, 40.0 * 90.0]])
    est = truth + np.array([[0.0, 0.0], [3.0, 100.0], [-2.0, -140.0]])
    got_rho, got_v = rmse(truth, est, params)

    d_rho, d_v = [], []
    for k in (1, 2):
        d_rho.append(est[k, 0] - truth[k, 0])
        d_v.append(measure_h(est[k], params)[1] - measure_h(truth[k], params)[1])
    want_rho = np.sqrt(np.mean(np.square(d_rho)))
    want_v = np.sqrt(np.mean(np.square(d_v)))
    assert abs(got_rho - want_rho) < 1e-12
    assert abs(got_v - want_v) < 1e-12
    del topo


def test_rmse_shape_mismatch():
    params = paper_params()
    with pytest.raises(ValueError):
        rmse(np.zeros((3, 2)), np.zeros((4, 2)), params)


def test_moving_average_oracle():
    np.testing.assert_allclose(moving_average([1.0, 2.0, 3.0, 4.0], 2),
                               [1.0, 1.5, 2.5, 3.5])
    np.testing.assert_allclose(moving_average([5.0, 7.0, 9.0], 1),
                               [5.0, 7.0, 9.0])
    X = np.array([[1.0, 10.0], [3.0, 20.0], [5.0, 60.0]])
    np.testing.assert_allclose(moving_average(X, 3),
                               [[1.0, 10.0], [2.0, 15.0], [3.0, 30.0]])
    with pytest.raises(ValueError):
        moving_average([1.0], 0)


def test_moving_average_matches_row_loop():
    """Bit-identical to the trailing mean computed row by row."""
    rng = np.random.default_rng(0)
    for shape in ((501, 24), (7,), (3, 5)):
        arr = rng.uniform(-100.0, 400.0, shape)
        csum = np.cumsum(arr, axis=0)
        for window in (1, 2, 5, 600):
            want = np.empty_like(arr)
            for k in range(arr.shape[0]):
                if k < window:
                    want[k] = csum[k] / (k + 1)
                else:
                    want[k] = (csum[k] - csum[k - window]) / window
            got = moving_average(arr, window)
            assert got.shape == arr.shape
            assert got.tobytes() == want.tobytes()


def test_run_estimation_deterministic_per_seed():
    sc = _small(t_f=25)
    truth = generate_truth(sc)
    a = run_estimation(sc, truth, sc.estimators[0], seed=3)
    b = run_estimation(sc, truth, sc.estimators[0], seed=3)
    c = run_estimation(sc, truth, sc.estimators[0], seed=4)
    np.testing.assert_array_equal(a.est, b.est)
    assert a.rmse_rho == b.rmse_rho and a.rmse_v == b.rmse_v
    assert not np.array_equal(a.est, c.est)


def test_run_estimation_clean_flags_and_bounds():
    sc = _small(t_f=25)
    truth = generate_truth(sc)
    res = run_estimation(sc, truth, sc.estimators[0], seed=0)
    assert res.within_bounds
    assert res.flags == ""
    assert res.est.shape == truth.traj.shape
    assert res.mean_step_time_s > 0
    assert res.max_step_time_s >= res.mean_step_time_s


def test_sweep_sensor_count_rows():
    sc = _small(t_f=20, estimators=(EstimatorSpec("ekf"),
                                    EstimatorSpec("ukf")))
    rows = sweep_sensor_count(sc, counts=(0, 2))
    assert len(rows) == 4
    assert [r["knob"] for r in rows] == [0, 0, 2, 2]
    assert {r["estimator"] for r in rows} == {"ekf", "ukf"}
    assert all(r["sweep"] == "sensors" for r in rows)
    assert all(r["scenario_id"] == "default" for r in rows)
    with pytest.raises(ValueError):
        sweep_sensor_count(sc, counts=(9,))


def test_sweep_rotation_rows():
    sc = _small(t_f=20)
    rows = sweep_rotation(sc, periods=(1, None, math.inf))
    assert [r["knob"] for r in rows] == [1, "inf", "inf"]
    assert all(r["sweep"] == "rotation" for r in rows)
    assert rows[2] == {**rows[1],
                       "mean_step_time_s": rows[2]["mean_step_time_s"]}


def test_sweep_spacing_rows_default_to_mhe():
    sc = _small(t_f=12, estimators=())
    rows = sweep_spacing(sc, configs=((1, 2, 3), (1, 4, 7)), periods=(None,))
    assert [r["knob"] for r in rows] == ["1-2-3@inf", "1-4-7@inf"]
    assert all(r["estimator"] == "mhe" for r in rows)


def test_sweep_noise_rows_and_monotone_effect():
    sc = _small(t_f=25, seeds=(0, 1))
    rows = sweep_noise(sc, stds=(0.0, 40.0))
    assert [r["knob"] for r in rows] == [0.0, 40.0]
    assert rows[1]["rmse_rho"] > rows[0]["rmse_rho"]


def test_sweep_jobs_match_sequential():
    """Pooled rows equal serial ones exactly.  The second case is the
    noise-sweep inputs (80-step reference twin, jam on cell 7 from step 5)
    with the MHE, whose noise-40 QPs take Newton iterations, and the UKF and
    EnKF."""
    ekf = _small(t_f=20, seeds=(0, 1))
    sweep = replace(default_scenario(80, 40.0, tuple(
        EstimatorSpec(k) for k in ("mhe", "ukf", "enkf"))),
        jam=JamSpec(segment=7, start=5, end=80))
    for sc, stds in ((ekf, (0.0, 10.0)), (sweep, (40.0, 0.0))):
        truth = generate_truth(sc)
        seq = sweep_noise(sc, stds=stds, truth=truth, jobs=1)
        par = sweep_noise(sc, stds=stds, truth=truth, jobs=2)
        assert len(seq) == len(par) == len(stds) * len(sc.estimators)
        for a, b in zip(seq, par):
            assert a["rmse_rho"] == b["rmse_rho"]
            assert a["rmse_v"] == b["rmse_v"]
            assert a["knob"] == b["knob"] and a["estimator"] == b["estimator"]


def test_pooled_sweep_on_equal_copies_of_the_network():
    """Equal copies of the network and parameters, unpickled with their
    stored hashes, hit the per-network caches of the originals: the
    pooled sweep over the copies gives the serial rows of the originals."""
    sc = _small(t_f=20, seeds=(0, 1))
    hash(sc.topo), hash(sc.params)
    topo, params = pickle.loads(pickle.dumps((sc.topo, sc.params)))
    truth = generate_truth(sc)
    seq = sweep_noise(sc, stds=(0.0, 10.0), truth=truth, jobs=1)
    par = sweep_noise(replace(sc, topo=topo, params=params),
                      stds=(0.0, 10.0), truth=truth, jobs=2)
    assert ([(r["knob"], r["rmse_rho"], r["rmse_v"]) for r in seq]
            == [(r["knob"], r["rmse_rho"], r["rmse_v"]) for r in par])


def test_pooled_sweep_shares_cells_with_the_caller(monkeypatch):
    def fake_row(sc, sweep, knob, spec, truth, cell):
        time.sleep(0.05)
        return {"knob": knob, "pid": os.getpid()}

    # Forked workers inherit the patched module attribute.
    monkeypatch.setattr(scenarios, "_averaged_row", fake_row)
    sc = _small(t_f=5)
    rows = sweep_noise(sc, stds=tuple(range(8)), truth=generate_truth(sc),
                       jobs=2)
    assert [r["knob"] for r in rows] == list(range(8))
    pids = {r["pid"] for r in rows}
    assert os.getpid() in pids and len(pids) == 2


@pytest.fixture
def deadline():
    """End the test run with a traceback dump if a sweep hangs."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _wait_for(condition, seconds=10.0) -> None:
    """Poll ``condition`` until it holds or ``seconds`` have passed."""
    end = time.monotonic() + seconds
    while not condition() and time.monotonic() < end:
        time.sleep(0.005)


def _logged_rows(monkeypatch, tmp_path, before):
    """Patch ``_averaged_row`` with a fake that calls ``before(knob, log)``
    and then logs a ``knob pid`` line per cell run; return the log's
    path."""
    log = tmp_path / "cells.log"

    def fake_row(sc, sweep, knob, spec, truth, cell):
        before(knob, log)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{knob} {os.getpid()}\n")
        return {"knob": knob}

    monkeypatch.setattr(scenarios, "_averaged_row", fake_row)
    return log


def _cells_run(log) -> list[tuple[int, int]]:
    if not log.exists():
        return []
    return [tuple(map(int, line.split()))
            for line in log.read_text(encoding="utf-8").splitlines()]


def _ended_claims(monkeypatch, tmp_path):
    """Make ``_end_claims`` touch a file once the claims are ended, in
    whichever process ends them; return the file's path."""
    ended, real_end = tmp_path / "claims-ended", scenarios._end_claims

    def end(claims):
        real_end(claims)
        ended.touch()

    monkeypatch.setattr(scenarios, "_end_claims", end)
    return ended


@pytest.mark.parametrize("slow", [0, 7])
def test_pooled_sweep_gives_a_slow_cell_its_own_process(monkeypatch,
                                                        tmp_path, deadline,
                                                        slow):
    """The slow cell, first or last in the list, runs until the seven
    others have run; every other cell waits until it has started.  No
    cell is queued ahead for the process that runs it, so the other
    process runs all the rest, whichever end the slow cell sits at."""
    started = tmp_path / "slow-cell-started"

    def before(knob, log):
        if knob == slow:
            started.touch()
            _wait_for(lambda: len(_cells_run(log)) == 7)
        else:
            _wait_for(started.exists)

    log = _logged_rows(monkeypatch, tmp_path, before)
    sc = _small(t_f=5)
    rows = sweep_noise(sc, stds=tuple(range(8)), truth=generate_truth(sc),
                       jobs=2)
    assert [r["knob"] for r in rows] == list(range(8))
    ran = _cells_run(log)
    assert sorted(knob for knob, _ in ran) == list(range(8))
    slow_pid = dict(ran)[slow]
    assert [knob for knob, pid in ran if pid == slow_pid] == [slow]
    assert multiprocessing.active_children() == []


def test_pooled_sweep_runs_every_cell_once(monkeypatch, tmp_path, deadline):
    """More processes than cores claim 48 short cells from the shared
    claims; a lost update would run a cell twice."""
    log = _logged_rows(monkeypatch, tmp_path,
                       lambda knob, log: time.sleep(0.002))
    sc = _small(t_f=5)
    rows = sweep_noise(sc, stds=tuple(range(48)), truth=generate_truth(sc),
                       jobs=4)
    assert [r["knob"] for r in rows] == list(range(48))
    assert sorted(knob for knob, _ in _cells_run(log)) == list(range(48))
    assert multiprocessing.active_children() == []


def test_pooled_sweep_raises_a_workers_error(monkeypatch, tmp_path,
                                            deadline):
    """A worker's cell runs the real UKF on a 2-cell network (n_x 4), which
    it refuses; the caller, whose own first cell lasts until the claims
    have ended, raises the same error and claims no cell after it."""
    real_row, caller, ran = scenarios._averaged_row, os.getpid(), []
    ended = _ended_claims(monkeypatch, tmp_path)

    def row(sc, sweep, knob, spec, truth, cell):
        if os.getpid() != caller:
            return real_row(sc, sweep, knob, spec, truth, cell)
        ran.append(knob)
        _wait_for(ended.exists)
        return {"knob": knob}

    monkeypatch.setattr(scenarios, "_averaged_row", row)
    params, topo = paper_params(), Topology(2)
    sc = Scenario("two-cell", params, topo, 5,
                  constant_inputs(topo, 5, 2000.0, params.v_f, 30.0),
                  SensorSchedule(fixed_segments=(2,)), 1.0, seeds=(0,),
                  estimators=(EstimatorSpec("ukf"),), warmup_steps=5)
    with pytest.raises(EstimatorError, match="kappa > -n_x"):
        sweep_noise(sc, stds=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), jobs=2)
    assert ran == [5.0]  # its own first cell, from the back
    assert multiprocessing.active_children() == []


def test_pooled_sweep_raises_when_a_worker_dies(monkeypatch, tmp_path,
                                                deadline):
    """The worker's first cell kills it.  The caller's first cell lasts
    until the dead worker has ended the claims; the sweep then raises
    without the caller running the cells that are left."""
    caller, ran = os.getpid(), []
    ended = _ended_claims(monkeypatch, tmp_path)

    def row(sc, sweep, knob, spec, truth, cell):
        if os.getpid() != caller:
            os._exit(1)
        ran.append(knob)
        _wait_for(ended.exists)
        return {"knob": knob}

    monkeypatch.setattr(scenarios, "_averaged_row", row)
    sc = _small(t_f=5)
    with pytest.raises(BrokenProcessPool):
        sweep_noise(sc, stds=tuple(range(8)), truth=generate_truth(sc),
                    jobs=2)
    assert ran == [7]
    assert multiprocessing.active_children() == []


def test_write_sweep_csv(tmp_path):
    rows = [{
        "scenario_id": "default", "sweep": "noise", "estimator": "ekf",
        "knob": 5.0, "rmse_rho": 1.23456789123, "rmse_v": 0.5,
        "mean_step_time_s": 0.00123, "flags": "",
    }]
    path = tmp_path / "out.csv"
    write_sweep_csv(rows, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("scenario_id,sweep,estimator,knob,"
                        "rmse_rho,rmse_v,mean_step_time_s,flags")
    assert lines[1] == "default,noise,ekf,5.0,1.23456789,0.5,0.00123,"


@pytest.mark.parametrize("kind", ["ekf", "ukf", "enkf", "mhe"])
def test_run_without_any_sensor_stays_finite_and_in_the_box(kind):
    """A run with no sensor takes every step through the estimator's
    general update, with no measurement rows."""
    sc = replace(default_scenario(60),
                 schedule=SensorSchedule(fixed_segments=()))
    res = run_estimation(sc, generate_truth(sc), EstimatorSpec(kind), seed=0)
    assert np.isfinite(res.est).all()
    assert res.within_bounds
    assert res.flags == ""  # no jitter events, no qp_fail, no bounds flag


@st.composite
def random_twins(draw, t_f=20):
    """A twin over ``t_f`` steps on the network, parameters and (constant)
    input of a ``test_properties.cases`` draw, at noise 0, 1 or 40, with a
    last-cell sensor or none.  A warmup of only ``t_f`` steps leaves the
    truth in its transient, where some MHE window solves stay unconverged
    and are flagged."""
    topo, params, _, U, _ = draw(cases(rows=1))
    fixed = (topo.n_mainline,) if draw(st.booleans()) else ()
    return Scenario("random", params, topo, t_f, np.tile(U[0], (t_f, 1)),
                    SensorSchedule(fixed_segments=fixed),
                    draw(st.sampled_from((0.0, 1.0, 40.0))), seeds=(0,),
                    warmup_steps=t_f)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(random_twins())
def test_estimators_on_random_networks(sc):
    """All four estimators on random twins: every estimate is finite and in
    the box, nothing raises but a named ``EstimatorError`` (among them the
    UKF's refusal of n_x + kappa <= 0), and the MHE's ``qp_fail`` flag
    counts exactly its unconverged window solves."""
    truth = generate_truth(sc)
    unconverged = 0

    def recording(qp, tol_kkt, max_iter):
        nonlocal unconverged
        z, info = solve(qp, tol_kkt, max_iter)
        unconverged += not info.converged
        return z, info

    solve = mhe.solve_box_qp
    for kind in ("ekf", "ukf", "enkf", "mhe"):
        try:
            with mock.patch.object(mhe, "solve_box_qp", recording):
                res = run_estimation(sc, truth, EstimatorSpec(kind), seed=0)
        except EstimatorError:
            continue
        assert np.isfinite(res.est).all(), kind
        assert res.within_bounds, kind
        if kind == "mhe":
            flags = dict(f.split("=") for f in res.flags.split(";")
                         if "=" in f)
            assert int(flags.get("qp_fail", 0)) == unconverged
