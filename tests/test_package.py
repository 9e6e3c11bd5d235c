"""The package surface: what ``import arzest`` exports and needs."""
import os
import subprocess
import sys
import textwrap

import arzest

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
