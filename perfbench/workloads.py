"""Workload definitions: the scenarios each workload runs and one round of it.

A round is a fixed set of estimator runs.  Every run of the benchmark
attempts whole rounds, so the share of failed steps is the same in every
run whatever its length.  All inputs are built through the public
``arzest`` API; the seed only picks the measurement noise and the
ensemble draws.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import arzest as az

ESTIMATORS = ("mhe", "ekf", "ukf", "enkf")

# noise-sweep keeps the seed-0 noise draws whatever the run's seed: its
# MHE run at noise 40 has QP solves that stop at the iteration cap (a known
# fault), and a failing step is kept only on inputs that do not depend on
# the seed, so the failed share is exactly the same in every run.
SWEEP_SEED = 0
SWEEP_STDS = (40.0, 0.0)  # the slow noise-40 MHE cell is handed out first
ENKF_DRAWS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    estimators: tuple[str, ...]
    pooled: bool  # runs through sweep_noise's worker pool


WORKLOADS = {w.name: w for w in (
    Workload("ref-mhe", ("mhe",), pooled=False),
    Workload("ref-filters", ("ekf", "ukf", "enkf"), pooled=False),
    Workload("long-highway", ESTIMATORS, pooled=False),
    Workload("noise-sweep", ESTIMATORS, pooled=True),
)}


def _specs(kinds) -> tuple[az.EstimatorSpec, ...]:
    return tuple(az.EstimatorSpec(k) for k in kinds)


def reference_scenario(kinds=ESTIMATORS, tiny: bool = False) -> az.Scenario:
    """The paper's 9-cell twin: 500 steps, jam on cell 7 over [100, 300).

    The tiny version keeps 80 steps with the jam from step 5, so that the
    open-loop prediction already misses it."""
    if tiny:
        return replace(az.default_scenario(80, 1.0, _specs(kinds)),
                       jam=az.JamSpec(segment=7, start=5, end=80))
    return az.default_scenario(500, 1.0, _specs(kinds))


def long_highway_scenario(tiny: bool = False) -> az.Scenario:
    """30 mainline cells, two on- and two off-ramps (n_x = 68), a mid-line
    jam on cell 15, fixed sensors at the end and on every ramp, and five
    connected vehicles hopping every 15 steps."""
    params = az.paper_params()
    topo = az.Topology(
        n_mainline=30,
        on_ramps=(az.OnRamp(merge_into=8), az.OnRamp(merge_into=20)),
        off_ramps=(az.OffRamp(diverge_from=12, alpha=0.15),
                   az.OffRamp(diverge_from=25, alpha=0.15)),
    )
    t_f = 30 if tiny else 50
    inputs = az.constant_inputs(
        topo, t_f, d_in=7500.0, w_in=params.v_f, rho_out=30.0,
        ramp_demand=(500.0, 500.0), ramp_w=(params.v_f, params.v_f),
        offramp_rho_out=(20.0, 20.0))
    fixed = [topo.n_mainline]
    fixed += [topo.onramp_segment(j + 1) for j in range(topo.n_onramps)]
    fixed += [topo.offramp_segment(j + 1) for j in range(topo.n_offramps)]
    sched = az.SensorSchedule(fixed_segments=tuple(fixed), mobile_count=5,
                              rotation_period=15,
                              initial_positions=(2, 8, 14, 20, 26))
    jam = az.JamSpec(segment=15, start=5, end=t_f, scale=0.3)
    return az.Scenario("long-highway", params, topo, t_f, inputs, sched,
                       noise_std=1.0, estimators=_specs(ESTIMATORS), jam=jam)


def sweep_scenario() -> az.Scenario:
    """The 80-step variant of the reference twin (jam from step 5, as in the
    tiny reference), with the sweep's fixed noise seed.  A round takes
    about 10 s, so a run holds several."""
    sc = reference_scenario(ESTIMATORS, tiny=True)
    return replace(sc, scenario_id="noise-sweep", seeds=(SWEEP_SEED,))


def build_scenario(workload: str, tiny: bool = False) -> az.Scenario:
    if workload in ("ref-mhe", "ref-filters"):
        return reference_scenario(WORKLOADS[workload].estimators, tiny)
    if workload == "long-highway":
        return long_highway_scenario(tiny)
    if workload == "noise-sweep":
        return sweep_scenario()
    raise ValueError(f"unknown workload {workload!r}")


def sweep_jobs() -> int:
    """One worker per core this process may run on."""
    return len(os.sched_getaffinity(0))


def round_runs(sc: az.Scenario, seed: int) -> list[tuple[az.EstimatorSpec, int]]:
    """The (estimator, seed) runs of one serial round.  The ensemble
    filter's accuracy moves with its draws far more than the others' (on
    long-highway its density RMSE ranged 20-27 over five seeds), so a
    round averages it over ENKF_DRAWS seeds of its own."""
    runs = []
    for spec in sc.estimators:
        n = ENKF_DRAWS if spec.kind == "enkf" else 1
        runs += [(spec, n * seed + i) for i in range(n)]
    return runs


def runs_per_round(sc: az.Scenario, workload: str) -> int:
    if WORKLOADS[workload].pooled:
        return len(sc.estimators) * len(SWEEP_STDS) * len(sc.seeds)
    return len(round_runs(sc, 0))
