"""Twin-experiment scenarios: truth generation, estimation runs and sweeps.

A scenario bundles the network, its boundary inputs, an optional local
slowdown window (the "jam"), a sensor schedule, a noise level and the
estimators to compare.  Truth trajectories come from the nonlinear model;
estimators see noisy measurements of them plus the true boundary inputs.

What a sensor reads is the truth's observed rows (``TruthResult.obs``):
density, and the speed at which vehicles actually travel.  On a slowed
segment during the jam that speed is the slowed one, ``scale * (w - p(rho))``;
the estimators' own measurement map knows nothing of the jam.  The speed
score and the truth CSV read the same rows.
"""
from __future__ import annotations

import csv
import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .kalman import _KINDS, EstimatorConfig, KalmanRunner
from .mhe import MheConfig, MheSession
from .model import (
    ModelParams,
    OffRamp,
    OnRamp,
    StepDiagnostics,
    Topology,
    _check_settings,
    _check_value,
    _read_only,
    equilibrium_state,
    measure_h,
    pack_inputs,
    speeds_from_state,
    state_bounds,
    step,
)
from .sensing import (
    SensorSchedule,
    build_observation,
    positions_at,
    synthesize_measurements,
)

__all__ = [
    "JamSpec",
    "EstimatorSpec",
    "Scenario",
    "paper_params",
    "paper_topology",
    "default_schedule",
    "default_scenario",
    "constant_inputs",
    "TruthResult",
    "generate_truth",
    "make_estimator",
    "RunResult",
    "run_estimation",
    "rmse",
    "moving_average",
    "FILL_ORDER",
    "sweep_sensor_count",
    "sweep_rotation",
    "sweep_spacing",
    "sweep_noise",
    "write_sweep_csv",
]

# The reference feed: mainline demand (veh/h) and exit density (veh/km),
# then each on-ramp's demand (veh/h) and each off-ramp's exit density.
_FEED = (8800.0, 30.0, 600.0, 20.0)

# Mainline segments the default connected vehicles start on.
_MOBILE_STARTS = (1, 3, 7)

# Order in which extra fixed mainline sensors are placed in the sensor-count
# sweep.
FILL_ORDER = (1, 3, 7, 5, 2, 4, 6, 8)


@dataclass(frozen=True)
class JamSpec:
    """Local slowdown: during steps [start, end) the named segment's demand
    and supply are scaled by ``scale`` (its whole diagram slows down).

    A diagram scaled by s carries ``s * rho * V``, so a sensor on the slowed
    segment reads the speed ``s * (w - p(rho))`` at every state k with
    ``start <= k < end`` and the unscaled speed outside that window.
    """

    segment: int
    start: int
    end: int
    scale: float = 0.3

    def __post_init__(self):
        _check_settings(self, ValueError, ("segment", "start", "end"), ())
        if not 0 < self.scale <= 1:
            raise ValueError("jam scale must lie in (0, 1]")
        if self.start < 0 or self.end < self.start:
            raise ValueError("jam window must satisfy 0 <= start <= end")


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator kind ('ekf', 'ukf', 'enkf' or 'mhe') plus its tuning."""

    kind: str
    kalman: EstimatorConfig = field(default_factory=EstimatorConfig)
    mhe: MheConfig = field(default_factory=MheConfig)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator {self.kind!r}; choose from "
                             f"{', '.join(_KINDS)}")


@dataclass(frozen=True)
class Scenario:
    """One twin experiment, checked when built.

    - ``scenario_id``: the name that the scenario's sweep rows carry.
    - ``params``, ``topo``: the model and the network.
    - ``t_f``: the number of steps; the truth has states 0..t_f.
    - ``inputs``: (t_f, n_u), in ``pack_inputs`` layout; row k drives the
      step from state k to state k + 1.
    - ``schedule``: the sensors; its layout at schedule step k - 1 reads
      state k.
    - ``noise_std``: the measurement noise's standard deviation, >= 0, in
      veh/km on density rows and km/h on speed rows.
    - ``seeds``: the nonnegative integer seeds that a sweep averages over.
    - ``estimators``: the specs that a sweep compares.
    - ``jam``: the local slowdown, or None.
    - ``warmup_steps``: the constant-input steps, >= 0, that take a
      20 veh/km equilibrium to the start state when ``x_init`` is None.
    - ``x_init``: (n_x,), the start state, inside ``state_bounds``; or None.
    """

    scenario_id: str
    params: ModelParams
    topo: Topology
    t_f: int
    inputs: np.ndarray  # (t_f, n_u); row k drives step k -> k+1
    schedule: SensorSchedule
    noise_std: float
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    estimators: tuple[EstimatorSpec, ...] = ()
    jam: JamSpec | None = None
    warmup_steps: int = 300
    x_init: np.ndarray | None = None

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        if inputs.shape != (self.t_f, self.topo.n_u):
            raise ValueError(
                f"inputs must have shape ({self.t_f}, {self.topo.n_u})")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for s in self.seeds:
            _check_value("seeds", s, True, ValueError)
        _check_settings(self, ValueError, ("warmup_steps",), ("noise_std",))
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("seeds must be a non-empty list of integers "
                             f">= 0, got {list(self.seeds)}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be an integer >= 0, got "
                             f"{self.warmup_steps!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be a finite number >= 0, "
                             f"got {self.noise_std}")
        if self.x_init is not None:
            x = np.asarray(self.x_init, dtype=float)
            if x.shape != (self.topo.n_x,):
                raise ValueError(f"x_init must have shape ({self.topo.n_x},), "
                                 f"got {x.shape}")
            lo, hi = state_bounds(self.topo, self.params)
            if not np.all((lo <= x) & (x <= hi)):  # NaN fails too
                raise ValueError("x_init must be finite and inside "
                                 "state_bounds")
        if self.jam is not None:
            if not 1 <= self.jam.segment <= self.topo.n_segments:
                raise ValueError("jam segment out of range")
            if self.jam.end > self.t_f:
                raise ValueError("jam window exceeds scenario duration")
        # Every later step's layout comes from the same free slots, so the
        # first one checks the schedule against the topology.
        try:
            build_observation(positions_at(self.schedule, self.topo, 0),
                              self.topo)
        except ValueError as exc:
            raise ValueError(f"sensor schedule: {exc}") from exc


def paper_params() -> ModelParams:
    """Reference highway parameters (1 s steps on 100 m cells)."""
    return ModelParams(v_f=102.0, rho_m=345.0, tau=20.0, gamma=1.75,
                       T=1.0 / 3600.0, l=0.1)


def paper_topology() -> Topology:
    """Nine mainline cells, an on-ramp into cell 6, off-ramps at 3 and 8."""
    return Topology(
        n_mainline=9,
        on_ramps=(OnRamp(merge_into=6),),
        off_ramps=(OffRamp(diverge_from=3, alpha=0.2),
                   OffRamp(diverge_from=8, alpha=0.2)),
    )


def _min_fixed(topo: Topology) -> tuple[int, ...]:
    """Minimum fixed sensor set: the last mainline cell and every ramp."""
    fixed = [topo.n_mainline]
    fixed += [topo.onramp_segment(j + 1) for j in range(topo.n_onramps)]
    fixed += [topo.offramp_segment(l + 1) for l in range(topo.n_offramps)]
    return tuple(fixed)


def _mobile_schedule(topo: Topology, starts, period) -> SensorSchedule:
    """Minimum fixed set plus connected vehicles starting on ``starts`` and
    hopping every ``period`` steps (None or inf parks them)."""
    return SensorSchedule(fixed_segments=_min_fixed(topo),
                          mobile_count=len(starts), rotation_period=period,
                          initial_positions=tuple(starts))


def default_schedule(topo: Topology) -> SensorSchedule:
    """Minimum fixed set (last mainline cell + all ramps) plus three
    connected vehicles starting on ``_MOBILE_STARTS`` and hopping every
    15 steps."""
    return _mobile_schedule(topo, _MOBILE_STARTS, 15)


def constant_inputs(topo: Topology, t_f: int, d_in: float, w_in: float,
                    rho_out: float, ramp_demand=(), ramp_w=(),
                    offramp_rho_out=()) -> np.ndarray:
    """Tile one input vector over the whole run."""
    u = pack_inputs(topo, d_in, w_in, rho_out, ramp_demand, ramp_w,
                    offramp_rho_out)
    return np.tile(u, (t_f, 1))


def default_scenario(t_f: int = 500, noise_std: float = 1.0,
                     estimators: tuple[EstimatorSpec, ...] = (),
                     scenario_id: str = "default") -> Scenario:
    """Reference twin experiment: steady feed at about 70% of capacity with
    a 200-step slowdown on cell 7."""
    params = paper_params()
    topo = paper_topology()
    d_in, rho_out, ramp_d, off_rho = _FEED
    inputs = constant_inputs(
        topo, t_f,
        d_in=d_in, w_in=params.v_f, rho_out=rho_out,
        ramp_demand=(ramp_d,), ramp_w=(params.v_f,),
        offramp_rho_out=(off_rho, off_rho),
    )
    jam = JamSpec(segment=7, start=100, end=300)
    if jam.end > t_f:
        jam = None
    return Scenario(
        scenario_id=scenario_id,
        params=params, topo=topo, t_f=t_f, inputs=inputs,
        schedule=default_schedule(topo), noise_std=noise_std,
        estimators=estimators, jam=jam,
    )


@dataclass
class TruthResult:
    """Truth trajectory plus what sensors observe of it.

    ``obs`` row k holds the (density, speed) pair of every segment at
    state k as a sensor reads it: ``measure_h`` of the state, with the
    speed of a slowed segment scaled while the jam is active on step k.
    """

    traj: np.ndarray  # (t_f + 1, n_x)
    clamp_events: int
    obs: np.ndarray  # (t_f + 1, n_x)


def _jam_scales(sc: Scenario) -> np.ndarray | None:
    if sc.jam is None:
        return None
    scales = np.ones(sc.topo.n_segments)
    scales[sc.jam.segment - 1] = sc.jam.scale
    return scales


def generate_truth(sc: Scenario) -> TruthResult:
    """Simulate the scenario's truth trajectory and its observed rows.

    Starts from ``x_init`` when given, otherwise from the steady state
    reached after ``warmup_steps`` constant-input steps.  The jam scaling
    applies only inside its step window, to the step from state k and to
    what sensors read at state k alike.  The observed rows are one
    ``measure_h`` call on the whole trajectory, jam window scaled after.
    """
    params, topo = sc.params, sc.topo
    if sc.x_init is not None:
        x = np.asarray(sc.x_init, dtype=float).copy()
    else:
        x = equilibrium_state(topo, params, 20.0)
        u0 = sc.inputs[0]
        for _ in range(sc.warmup_steps):
            x = step(x, u0, topo, params)
    diag = StepDiagnostics()
    jam_sc = _jam_scales(sc)
    traj = np.empty((sc.t_f + 1, topo.n_x))
    traj[0] = x
    for k in range(sc.t_f):
        active = (jam_sc is not None and sc.jam.start <= k < sc.jam.end)
        x = step(x, sc.inputs[k], topo, params,
                 ds_scale=jam_sc if active else None, diag=diag)
        traj[k + 1] = x
    obs = measure_h(traj, params)
    if jam_sc is not None:
        obs[sc.jam.start:sc.jam.end, 1::2] *= jam_sc
    return TruthResult(traj=traj, clamp_events=diag.clamped, obs=obs)


def make_estimator(spec: EstimatorSpec, x0, topo: Topology,
                   params: ModelParams, rng: np.random.Generator):
    """Instantiate a stateful estimator with the common step interface."""
    if spec.kind == "mhe":
        return MheSession(x0, spec.mhe, topo, params)
    return KalmanRunner(spec.kind, x0, spec.kalman, topo, params, rng)


@dataclass
class RunResult:
    """One estimator pass of ``run_estimation``.

    - ``estimator``: the estimator kind.
    - ``est``: (t_f + 1, n_x), the estimates; row 0 is the given start.
    - ``rmse_rho``, ``rmse_v``: density RMSE in veh/km and speed RMSE in
      km/h over states 1..t_f (``rmse``).
    - ``mean_step_time_s``: the mean wall time of one estimator step, in s.
    - ``within_bounds``: True when every entry of rows 1..t_f lies inside
      ``state_bounds`` to within 1e-12; a NaN entry lies outside.
    - ``flags``: ``name=n`` for each nonzero count of the estimator's
      ``events``, then ``bounds`` unless ``within_bounds``, joined by
      ``;``; empty for a clean run.
    """

    estimator: str
    est: np.ndarray  # (t_f + 1, n_x)
    rmse_rho: float
    rmse_v: float
    mean_step_time_s: float
    within_bounds: bool
    flags: str


def rmse(truth_traj, est_traj, params: ModelParams,
         truth_obs=None) -> tuple[float, float]:
    """Density and speed RMSE averaged over all segments and steps 1..t_f.

    Estimated speeds come from the measurement map.  True speeds are the
    speed rows of ``truth_obs`` (``TruthResult.obs``, what the sensors
    see) when given, otherwise the measurement map of ``truth_traj``; the
    two agree on jam-free trajectories.  The relative-flow states
    themselves are not scored.
    """
    truth_traj = np.asarray(truth_traj, dtype=float)
    est_traj = np.asarray(est_traj, dtype=float)
    if truth_traj.shape != est_traj.shape:
        raise ValueError("trajectory shapes differ")
    tt = truth_traj[1:]
    ee = est_traj[1:]
    d_rho = ee[:, 0::2] - tt[:, 0::2]
    if truth_obs is not None:
        truth_obs = np.asarray(truth_obs, dtype=float)
        if truth_obs.shape != truth_traj.shape:
            raise ValueError("observed rows and trajectory shapes differ")
        v_t = truth_obs[1:, 1::2]
    else:
        v_t = speeds_from_state(tt, params)
    v_e = speeds_from_state(ee, params)
    d_v = v_e - v_t
    return (float(np.sqrt(np.mean(d_rho ** 2))),
            float(np.sqrt(np.mean(d_v ** 2))))


def moving_average(series, window: int) -> np.ndarray:
    """Trailing moving average along axis 0 with a ramp-in at the start."""
    if window < 1:
        raise ValueError("window must be at least 1")
    arr = np.asarray(series, dtype=float)
    csum = np.cumsum(arr, axis=0)
    w = min(window, arr.shape[0])
    ramp = np.arange(1, w + 1).reshape((w,) + (1,) * (arr.ndim - 1))
    return np.concatenate([csum[:w] / ramp, (csum[w:] - csum[:-w]) / w])


def run_estimation(sc: Scenario, truth: TruthResult, spec: EstimatorSpec,
                   seed: int) -> RunResult:
    """One estimator pass over a truth trajectory with seeded noise.

    The result's ``flags`` name each nonzero count of the estimator's
    ``events`` as ``name=n``, then ``bounds`` if an estimate left the
    physical box, joined by ``;``."""
    params, topo = sc.params, sc.topo
    root = np.random.SeedSequence(seed)
    noise_ss, est_ss = root.spawn(2)
    rng_noise = np.random.default_rng(noise_ss)
    rng_est = np.random.default_rng(est_ss)

    x0 = truth.traj[0].copy()
    estimator = make_estimator(spec, x0, topo, params, rng_est)
    est = np.empty_like(truth.traj)
    est[0] = x0
    times = []
    selectors = {}  # one read-only selector per sensor layout
    for k in range(1, sc.t_f + 1):
        measured = tuple(positions_at(sc.schedule, topo, k - 1))
        C = selectors.get(measured)
        if C is None:
            C = selectors[measured] = _read_only(
                build_observation(measured, topo))
        y = synthesize_measurements(truth.obs[k], C, sc.noise_std, rng_noise)
        t0 = _time.perf_counter()
        x_hat = estimator.step(sc.inputs[k - 1], y, C)
        times.append(_time.perf_counter() - t0)
        est[k] = x_hat
    # The first row is the given start, which the flag leaves out.
    lo, hi = state_bounds(topo, params)
    within = bool(np.all((lo - 1e-12 <= est[1:]) & (est[1:] <= hi + 1e-12)))
    r_rho, r_v = rmse(truth.traj, est, params, truth_obs=truth.obs)
    flags = [f"{name}={n}" for name, n in estimator.events.items() if n]
    if not within:
        flags.append("bounds")
    return RunResult(
        estimator=spec.kind, est=est, rmse_rho=r_rho, rmse_v=r_v,
        mean_step_time_s=float(np.mean(times)),
        within_bounds=within, flags=";".join(flags),
    )


def _averaged_row(sc: Scenario, sweep: str, knob, spec: EstimatorSpec,
                  truth: TruthResult, scenario: Scenario) -> dict:
    """Run one sweep cell over every seed and average the metrics."""
    rr, rv, ts, flags = [], [], [], []
    for seed in scenario.seeds:
        res = run_estimation(scenario, truth, spec, seed)
        rr.append(res.rmse_rho)
        rv.append(res.rmse_v)
        ts.append(res.mean_step_time_s)
        if res.flags:
            flags.append(res.flags)
    return {
        "scenario_id": sc.scenario_id,
        "sweep": sweep,
        "estimator": spec.kind,
        "knob": knob,
        "rmse_rho": float(np.mean(rr)),
        "rmse_v": float(np.mean(rv)),
        "mean_step_time_s": float(np.mean(ts)),
        "flags": "|".join(flags),
    }


def _claim_cells(tasks, claims, from_back=False) -> list[tuple[int, dict]]:
    """Run unclaimed cells of ``tasks`` until none is left, and return the
    (index, row) pairs this process ran.  ``claims`` is the shared pair
    (lo, hi) that bounds the unclaimed cells: workers take the cell at
    ``lo``, the caller (``from_back``) the one below ``hi``.  A cell that
    raises ends every process's claims, as the first failing cell ends a
    serial sweep."""
    done = []
    while True:
        with claims.get_lock():
            if claims[0] >= claims[1]:
                return done
            if from_back:
                claims[1] -= 1
                i = claims[1]
            else:
                i = claims[0]
                claims[0] += 1
        try:
            done.append((i, _averaged_row(*tasks[i])))
        except BaseException:
            _end_claims(claims)
            raise


def _end_claims(claims) -> None:
    with claims.get_lock():
        claims[0] = claims[1]


_inherited = None  # a forked sweep worker's (tasks, claims)


def _inherit(tasks, claims) -> None:
    global _inherited
    _inherited = tasks, claims


def _drain() -> list[tuple[int, dict]]:
    return _claim_cells(*_inherited)


def _sweep(sc: Scenario, name: str, cells, truth: TruthResult | None,
           jobs: int, specs=None) -> list[dict]:
    """Run each (knob, cell scenario) pair of a sweep with every estimator
    spec (``sc.estimators`` unless given), optionally across ``jobs``
    processes; the truth is generated from ``sc`` when not given.

    With ``jobs`` > 1 this process is one of them and forks ``jobs - 1``
    workers, so it needs the ``fork`` start method (POSIX; fork after
    numpy has loaded its BLAS is not safe on macOS).  The workers claim
    cells one at a time from the front of the list and this process from
    the back, under one lock, until the two meet: an idle process always
    takes the next cell at its end (greedy list scheduling, Graham 1969).
    Nothing is handed out ahead, since a pool that queues cells for its
    workers lets one worker hold cells that an idle caller cannot take
    back.  Claiming from both ends keeps a slow cell at either end of the
    list from being claimed last; ascending knobs put theirs at the end.
    Once any worker's drain ends, by running out of cells, by an error
    or by the worker's death, no more cells are claimed.  The workers
    inherit the cells at the fork, so no cell is pickled.  Rows come back
    in cell order, so the output does not depend on which process ran a
    cell.
    """
    truth = truth if truth is not None else generate_truth(sc)
    specs = sc.estimators if specs is None else specs
    tasks = [(sc, name, knob, spec, truth, cell)
             for knob, cell in cells for spec in specs]
    if jobs <= 1 or len(tasks) <= 1:
        return [_averaged_row(*t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    fork = multiprocessing.get_context("fork")
    claims = fork.Array("i", (0, len(tasks)))
    workers = min(jobs, len(tasks)) - 1
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_inherit,
                             initargs=(tasks, claims)) as ex:
        drains = [ex.submit(_drain) for _ in range(workers)]
        for f in drains:
            f.add_done_callback(lambda _: _end_claims(claims))
        rows = dict(_claim_cells(tasks, claims, from_back=True))
        for f in drains:
            rows.update(f.result())
    return [rows[i] for i in range(len(tasks))]


def _period_knob(period):
    return "inf" if period in (None, math.inf) else period


def sweep_sensor_count(sc: Scenario, counts=(0, 1, 2, 3, 4, 5, 6, 7, 8),
                       truth: TruthResult | None = None,
                       jobs: int = 1) -> list[dict]:
    """Add fixed mainline sensors one at a time in the canonical order."""
    cells = []
    for c in counts:
        if c > len(FILL_ORDER):
            raise ValueError(f"at most {len(FILL_ORDER)} extra sensors")
        sched = SensorSchedule(fixed_segments=_min_fixed(sc.topo)
                               + FILL_ORDER[:c])
        cells.append((c, replace(sc, schedule=sched)))
    return _sweep(sc, "sensors", cells, truth, jobs)


def sweep_rotation(sc: Scenario, periods=(1, 5, 15, 60, None),
                   truth: TruthResult | None = None,
                   jobs: int = 1) -> list[dict]:
    """Vary how often the mobile sensors hop (None parks them)."""
    starts = _MOBILE_STARTS
    cells = [(_period_knob(p),
              replace(sc, schedule=_mobile_schedule(sc.topo, starts, p)))
             for p in periods]
    return _sweep(sc, "rotation", cells, truth, jobs)


def sweep_spacing(sc: Scenario, configs=((1, 2, 3), (1, 3, 5), (1, 4, 7)),
                  periods=(1, 15, None),
                  truth: TruthResult | None = None,
                  jobs: int = 1) -> list[dict]:
    """Mobile-sensor spacing sweep (moving-horizon estimator only)."""
    specs = [s for s in sc.estimators if s.kind == "mhe"]
    if not specs:
        specs = [EstimatorSpec("mhe")]
    cells = [("-".join(str(s) for s in starts) + f"@{_period_knob(p)}",
              replace(sc, schedule=_mobile_schedule(sc.topo, starts, p)))
             for starts in configs for p in periods]
    return _sweep(sc, "spacing", cells, truth, jobs, specs)


def sweep_noise(sc: Scenario, stds=(0.0, 1.0, 5.0, 10.0, 20.0, 40.0),
                truth: TruthResult | None = None,
                jobs: int = 1) -> list[dict]:
    """Vary the measurement noise level, averaging over the seed list."""
    cells = [(s, replace(sc, noise_std=float(s))) for s in stds]
    return _sweep(sc, "noise", cells, truth, jobs)


# The sweep CSV's columns, each with the format of its values (None: as the
# csv module writes them).
_SWEEP_COLUMNS = {"scenario_id": None, "sweep": None, "estimator": None,
                  "knob": None, "rmse_rho": ".9g", "rmse_v": ".9g",
                  "mean_step_time_s": ".9g", "flags": None}


def write_sweep_csv(rows: list[dict], path: str) -> None:
    """Write sweep rows as UTF-8 CSV with 9-significant-digit floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(_SWEEP_COLUMNS)
        for r in rows:
            w.writerow([r[c] if f is None else format(r[c], f)
                        for c, f in _SWEEP_COLUMNS.items()])
