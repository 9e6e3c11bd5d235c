"""Command line interface: config parsing, CSV/JSON outputs, exit codes."""
import csv
import json

import pytest

import arzest.cli as cli
import arzest.scenarios as scenarios
from arzest.model import BlowupError


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _small_cfg(tmp_path, **extra):
    doc = {"duration_s": 20, "estimators": ["ekf"], "seeds": [0]}
    doc.update(extra)
    return _write_config(tmp_path, doc)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_simulate_csv_shape(tmp_path):
    out = tmp_path / "truth.csv"
    rc = cli.main(["simulate", "--config", _small_cfg(tmp_path),
                   "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 22  # header + steps 0..20
    assert rows[0][:4] == ["step", "time_s", "rho_1", "v_1"]
    assert len(rows[0]) == 2 + 2 * 12
    assert rows[1][0] == "0" and rows[1][1] == "0"
    assert rows[21][0] == "20" and rows[21][1] == "20"


def test_simulate_stdout(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", _small_cfg(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 22
    assert lines[0].startswith("step,time_s,rho_1")


def test_simulate_smooth_is_trailing_mean(tmp_path):
    cfg = _small_cfg(tmp_path,
                     jam={"segment": 7, "start": 2, "end": 15, "scale": 0.3})
    raw_p, sm_p = tmp_path / "raw.csv", tmp_path / "sm.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(raw_p)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--smooth", "5",
                     "--out", str(sm_p)]) == 0
    raw = _read_csv(raw_p)
    sm = _read_csv(sm_p)
    col = raw[0].index("rho_7")
    vals = [float(r[col]) for r in raw[1:]]
    assert float(sm[1][col]) == pytest.approx(vals[0], rel=1e-8)
    want = sum(vals[6:11]) / 5.0
    assert float(sm[11][col]) == pytest.approx(want, rel=1e-8)
    assert vals[6:11] != [vals[10]] * 5  # the jam actually moved the series


def test_simulate_speed_is_what_sensors_read(tmp_path):
    """The truth CSV's v_7 is the speed the sensors see: slowed inside the
    jam window."""
    from arzest.scenarios import generate_truth
    doc = {"duration_s": 20,
           "jam": {"segment": 7, "start": 2, "end": 15, "scale": 0.3}}
    out = tmp_path / "truth.csv"
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    col = rows[0].index("v_7")
    sc, _ = cli.build_scenario(doc)
    truth = generate_truth(sc)
    for k in range(sc.t_f + 1):
        assert rows[k + 1][col] == f"{truth.obs[k, 13]:.9g}"
    p = sc.params
    rho, psi = truth.traj[5, 12], truth.traj[5, 13]
    free = psi / rho - p.v_f * (rho / p.rho_m) ** p.gamma
    assert float(rows[6][col]) == pytest.approx(0.3 * free, rel=1e-8)


def test_estimate_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "est.csv"
    rc = cli.main(["estimate", "--config", _small_cfg(tmp_path),
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["estimator"] == "ekf"
    assert summary["seed"] == 3
    assert summary["within_bounds"] is True
    assert summary["rmse_rho"] > 0 and summary["rmse_v"] > 0
    assert summary["mean_step_time_s"] > 0
    assert summary["flags"] == ""
    assert len(_read_csv(out)) == 22


def test_estimate_override_estimator(tmp_path, capsys):
    rc = cli.main(["estimate", "--config", _small_cfg(tmp_path),
                   "--estimator", "ukf"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["estimator"] == "ukf"


def test_estimate_seed_reproducible(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["estimate", "--config", cfg, "--seed", "7",
                     "--out", str(a)]) == 0
    assert cli.main(["estimate", "--config", cfg, "--seed", "7",
                     "--out", str(b)]) == 0
    assert cli.main(["estimate", "--config", cfg, "--seed", "8",
                     "--out", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_sweep_noise_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", _small_cfg(tmp_path),
                   "--sweep", "noise", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["scenario_id", "sweep", "estimator", "knob",
                       "rmse_rho", "rmse_v", "mean_step_time_s", "flags"]
    assert len(rows) == 7  # six default noise levels, one estimator
    assert all(r[1] == "noise" and r[2] == "ekf" for r in rows[1:])


def test_gramian_default_layout_observable(capsys):
    rc = cli.main(["gramian"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["positions"] == [1, 3, 7, 9, 10, 11, 12]
    assert rep["observable"] is True
    assert rep["min_eigenvalue"] > rep["threshold"]
    assert rep["sum_converged"] is True
    assert 0 < rep["spectral_radius"] < 1 + 1e-9


def test_gramian_single_term_not_observable(capsys):
    # One term sees only 14 measurement rows in a 24-state space.
    rc = cli.main(["gramian", "--terms", "1"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["observable"] is False
    assert rep["min_eigenvalue"] < rep["threshold"]


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"paramz": {}})
    rc = cli.main(["simulate", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "paramz" in err


def test_unknown_nested_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"params": {"vf": 90.0}})
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "params" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"duration_s": 20,,}', encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_bad_estimator_name(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"estimators": ["xkf"]})
    assert cli.main(["estimate", "--config", cfg]) == 2
    assert "xkf" in capsys.readouterr().err


def test_invalid_param_value(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"params": {"free_flow_kmh": -5}})
    assert cli.main(["simulate", "--config", cfg]) == 2
    capsys.readouterr()


def test_cfl_violation_rejected(tmp_path, capsys):
    # 102 km/h over one second travels farther than a 10 m cell.
    cfg = _write_config(tmp_path, {"params": {"cell_m": 10.0}})
    assert cli.main(["simulate", "--config", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc, field", [
    ({"duration_s": float("inf")}, "configuration.duration_s"),
    ({"noise": {"std": float("inf")}}, "noise.std"),
    ({"noise": {"std": float("nan")}}, "noise.std"),
    ({"inputs": {"ramp_demand_veh_h": [float("inf")]}},
     "inputs.ramp_demand_veh_h[0]"),
])
def test_non_finite_numbers_rejected(tmp_path, capsys, doc, field):
    # json writes and reads these as the non-standard Infinity and NaN.
    cfg = _write_config(tmp_path, doc)
    for cmd in ("simulate", "estimate"):
        assert cli.main([cmd, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a finite number" in err


@pytest.mark.parametrize("sensors, cause", [
    ({"fixed": [99]}, "segment id 99 out of range"),
    ({"fixed": [1], "mobile": [12]}, "mobile start 12"),
])
def test_sensor_layout_checked_against_topology(tmp_path, capsys, sensors,
                                                cause):
    cfg = _write_config(tmp_path, {"sensors": sensors})
    for cmd in ("simulate", "estimate"):
        assert cli.main([cmd, "--config", cfg,
                         "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "sensor schedule" in err and cause in err


def test_runtime_blowup_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "generate_truth",
        lambda sc: (_ for _ in ()).throw(BlowupError(0, float("nan"))))
    rc = cli.main(["simulate", "--config", _small_cfg(tmp_path)])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_smooth_and_jobs_validation(tmp_path, capsys):
    assert cli.main(["simulate", "--config", _small_cfg(tmp_path),
                     "--smooth", "0"]) == 2
    assert cli.main(["sweep", "--config", _small_cfg(tmp_path),
                     "--sweep", "noise", "--out", str(tmp_path / "x.csv"),
                     "--jobs", "0"]) == 2
    capsys.readouterr()


def test_jobs_above_one_need_fork(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert cli.main(["sweep", "--config", _small_cfg(tmp_path),
                     "--sweep", "noise", "--out", str(tmp_path / "x.csv"),
                     "--jobs", "2"]) == 2
    assert "fork start method" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("doc, field", [
    ({"duration_s": 10 ** 400}, "configuration.duration_s"),
    ({"inputs": {"ramp_demand_veh_h": [600.0, 10 ** 400]}},
     "inputs.ramp_demand_veh_h[1]"),
])
def test_integers_too_large_for_a_float_rejected(tmp_path, capsys, doc,
                                                 field):
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert f"{field} must be a finite number" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    assert cli.main(["estimate", "--config", _small_cfg(tmp_path),
                     "--seed", "-1"]) == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [[-1], []])
def test_config_seeds_must_be_non_negative_and_non_empty(tmp_path, capsys,
                                                         monkeypatch, seeds):
    monkeypatch.setattr(scenarios, "generate_truth",
                        lambda sc: pytest.fail("truth generated"))
    cfg = _write_config(tmp_path, {"duration_s": 5, "estimators": ["ekf"],
                                   "seeds": seeds})
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", cfg, "--sweep", "noise",
                     "--out", str(out)]) == 2
    assert "seeds must be" in capsys.readouterr().err
    assert not out.exists()


def test_gramian_terms_must_be_positive(capsys):
    assert cli.main(["gramian", "--terms", "0"]) == 2
    assert "--terms must be a positive integer" in capsys.readouterr().err


def _ramp_topology(**off):
    return {"mainline": 12, "on_ramps": [4],
            "off_ramps": [{"from": 9, "split": 0.1, **off}]}


def test_topology_section_builds_the_network(tmp_path, capsys):
    cfg = _small_cfg(tmp_path, topology=_ramp_topology())
    for cmd in ("simulate", "estimate"):
        out = tmp_path / f"{cmd}.csv"
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 22
        assert {len(r) for r in rows} == {2 + 28}  # 14 segments
    capsys.readouterr()


@pytest.mark.parametrize("topology, cause", [
    (_ramp_topology(split=1.5), "off-ramp split alpha 1.5"),
    ({"mainline": 12, "on_ramps": [10], "off_ramps": [{"from": 9}]},
     "two ramps share mainline boundary 9"),
    ({"mainline": 0}, "topology.mainline must be a positive integer"),
    ({"mainline": True}, "topology.mainline must be a positive integer"),
    ({"mainline": 12, "off_ramps": {"from": 9}},
     "topology.off_ramps must be a list"),
    ({"mainline": 12, "off_ramps": [9]},
     "topology.off_ramps entries must be objects"),
    (_ramp_topology(to=3), "unknown key(s) in topology.off_ramps[0]: to"),
])
def test_bad_topology_section_rejected(tmp_path, capsys, topology, cause):
    cfg = _write_config(tmp_path, {"topology": topology})
    for cmd in ("simulate", "estimate"):
        assert cli.main([cmd, "--config", cfg]) == 2
        assert cause in capsys.readouterr().err


@pytest.mark.parametrize("mainline", [5, 7])
def test_default_schedule_that_does_not_fit_asks_for_sensors(tmp_path,
                                                            capsys, mainline):
    cfg = _write_config(tmp_path, {"topology": {"mainline": mainline}})
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "default sensor schedule (mobile starts 1, 3, 7" in err
    assert f"does not fit a {mainline}-cell mainline" in err
    assert "give a sensors section" in err
