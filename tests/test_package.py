"""The package surface: what ``import arzest`` exports."""
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
