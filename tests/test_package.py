"""The package surface: what ``import arzest`` exports and needs."""
import os
import subprocess
import sys
import textwrap
from collections import Counter

import numpy as np

import arzest
from arzest import model
from arzest.kalman import (
    EstimatorConfig,
    ekf_step,
    enkf_step,
    init_state,
    ukf_step,
)
from arzest.mhe import MheConfig, MheSession
from arzest.model import (
    equilibrium_state,
    measure_h,
    pack_inputs,
    step_batch,
)
from arzest.sensing import build_observation

# Every name the package exported before ``__all__`` was built from the
# module lists; none of them may disappear.
EXPORTED = """
    EPS_RHO BlowupError FluxSet ModelError ModelParams OffRamp OnRamp
    StepDiagnostics Topology build_update_matrices compute_fluxes demand
    equilibrium_speed equilibrium_state flux_diverge flux_merge
    flux_one_to_one measure_h nonlinear_f pack_inputs pressure
    pressure_gradient sigma_crit speeds_from_state state_bounds
    state_scale step supply LinearizedMeasurement LinearizedModel
    jacobian_fu jacobian_fx linearize_measurement linearize_model
    measurement_jacobian GramianResult SensorSchedule build_observation
    mobile_positions_at observability_gramian positions_at
    synthesize_measurements EstimatorConfig EstimatorError
    EstimatorState KalmanRunner ekf_step enkf_step init_state
    project_to_bounds ukf_step HorizonBuffer HorizonEntry MheConfig
    MheSession QPProblem SolveInfo assemble_qp operating_point
    predict_arrival solve_box_qp FILL_ORDER EstimatorSpec JamSpec
    RunResult Scenario TruthResult constant_inputs default_scenario
    default_schedule generate_truth make_estimator moving_average
    paper_params paper_topology rmse run_estimation sweep_noise
    sweep_rotation sweep_sensor_count sweep_spacing write_sweep_csv
    __version__
""".split()


def test_package_keeps_every_exported_name():
    assert set(EXPORTED) <= set(arzest.__all__)
    assert len(set(arzest.__all__)) == len(arzest.__all__)
    for name in arzest.__all__:
        assert hasattr(arzest, name), name


def test_every_estimator_runs_without_scipy():
    """The runtime is numpy only: with scipy unimportable, 20 steps of
    each estimator run to the end."""
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from arzest import (EstimatorSpec, default_scenario, generate_truth,
                            run_estimation)
        sc = default_scenario(20, 1.0)
        truth = generate_truth(sc)
        for kind in ("ekf", "ukf", "enkf", "mhe"):
            res = run_estimation(sc, truth, EstimatorSpec(kind), seed=0)
            assert res.est.shape == (21, sc.topo.n_x) and res.within_bounds
            print(kind)
    """)
    src = os.path.dirname(os.path.dirname(arzest.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ekf", "ukf", "enkf", "mhe"]


def test_estimator_steps_skip_numpy_python_wrappers(topo, params):
    """Setting up and stepping every estimator once, and one
    ``step_batch`` call, enter none of numpy's Python-level ``clip``,
    ``mean``, ``linalg.norm``, ``errstate.__enter__`` or ``full_like`` from
    the package's own code, and the network and parameters hash their
    fields once each, however often the per-network caches look them up.
    Calls are counted under ``sys.setprofile``, so the test repeats
    exactly."""
    banned = {"clip", "_clip", "mean", "_mean", "norm", "__enter__",
              "full_like"}
    numpy_dir = os.path.dirname(np.__file__)
    package_dir = os.path.dirname(arzest.__file__)
    entered, field_hashes = [], Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is model._hash_fields.__code__:
            field_hashes[id(frame.f_locals["obj"])] += 1
        elif code.co_name in banned and code.co_filename.startswith(numpy_dir):
            caller = frame.f_back
            # Skip numpy's dispatch layer (a Python wrapper before 1.25).
            while caller.f_code.co_filename.endswith("overrides.py"):
                caller = caller.f_back
            if caller.f_code.co_filename.startswith(package_dir):
                entered.append((code.co_name, caller.f_code.co_name))

    x0 = equilibrium_state(topo, params, 40.0)
    u = pack_inputs(topo, 3000.0, params.v_f, 40.0, (600.0,), (params.v_f,),
                    (40.0, 40.0))
    C = build_observation((2, 5, 9), topo)
    y = C @ measure_h(x0, params)
    cfg = EstimatorConfig()
    rng = np.random.default_rng(0)
    pop = np.stack([x0 * 0.9, x0, x0 * 1.1])
    sys.setprofile(profile)
    try:
        states = {kind: init_state(x0, cfg, topo, params, kind, rng)
                  for kind in ("ekf", "ukf", "enkf")}
        session = MheSession(x0, MheConfig(), topo, params)
        ekf_step(states["ekf"], u, y, C, cfg, topo, params)
        ukf_step(states["ukf"], u, y, C, cfg, topo, params)
        enkf_step(states["enkf"], u, y, C, cfg, topo, params, rng)
        session.step(u, y, C)
        step_batch(pop, u, topo, params)
    finally:
        sys.setprofile(None)
    assert entered == []
    assert field_hashes == {id(topo): 1, id(params): 1}
