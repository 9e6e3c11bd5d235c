"""Command line interface: config parsing, CSV/JSON outputs, exit codes."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arzest
import arzest.cli as cli
import arzest.scenarios as scenarios
from arzest.kalman import _KINDS
from arzest.model import BlowupError


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _small_cfg(tmp_path, **extra):
    doc = {"duration_s": 20, "estimators": ["ekf"], "seeds": [0]}
    doc.update(extra)
    return _write_config(tmp_path, doc)


def _cli_env():
    """The environment for running ``python -m arzest.cli`` on this tree."""
    src = os.path.dirname(os.path.dirname(arzest.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


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


def test_gramian_default_layout_observable(tmp_path, capsys):
    rc = cli.main(["gramian"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["positions"] == [1, 3, 7, 9, 10, 11, 12]
    assert rep["observable"] is True
    assert rep["min_eigenvalue"] > rep["threshold"]
    assert rep["sum_converged"] is True
    assert 0 < rep["spectral_radius"] < 1 + 1e-9
    # The report reads only the warmed first state, so a 200000-step
    # duration gives the same report without simulating those steps
    # (about 17 s on a 2-vCPU Xeon when the whole run was simulated).
    cfg = _write_config(tmp_path, {"duration_s": 200000})
    start = time.perf_counter()
    assert cli.main(["gramian", "--config", cfg]) == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().out) == rep


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
    for name in ("xkf", "kf"):
        cfg = _write_config(tmp_path, {"estimators": [name]})
        assert cli.main(["estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert repr(name) in err and "choose from ekf, ukf, enkf, mhe" in err


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


@pytest.mark.parametrize("command", [["simulate"], ["estimate"],
                                     ["sweep", "--sweep", "noise"]],
                         ids=["simulate", "estimate", "sweep"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_out_exits_before_the_run(tmp_path, capsys, monkeypatch,
                                             command, where):
    """An --out that cannot be opened for writing is a usage error found
    before anything is simulated, and the message names the path."""
    def no_run(sc):
        raise AssertionError("the run started")
    monkeypatch.setattr(cli, "generate_truth", no_run)
    monkeypatch.setattr(scenarios, "generate_truth", no_run)
    out = str(tmp_path / "no" / "x.csv" if where == "missing-dir" else tmp_path)
    rc = cli.main([*command, "--config", _small_cfg(tmp_path), "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot write --out {out}" in err and "Traceback" not in err


@pytest.mark.parametrize("command, read", [(["simulate"], 1),
                                           (["gramian"], 0)],
                         ids=["simulate-head-1", "gramian"])
def test_closed_output_pipe_exits_3_without_a_traceback(command, read):
    """As ``arzest simulate | head -1`` does: the reader closes stdout after
    ``read`` lines.  The write that fails, in the run or in the flush of a
    short report, ends the process with exit 3 and one stderr line, and no
    second failure at exit."""
    proc = subprocess.Popen([sys.executable, "-m", "arzest.cli", *command],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_cli_env())
    for _ in range(read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 3, err
    assert err.splitlines() == ["runtime error: [Errno 32] Broken pipe"]


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
    ({"mainline": 10 ** 400},
     f"topology.mainline must be at most {cli.MAX_MAINLINE} cells"),
    ({"mainline": cli.MAX_MAINLINE + 1},
     f"topology.mainline must be at most {cli.MAX_MAINLINE} cells"),
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


def test_default_schedule_message_names_the_owners_starts(tmp_path, capsys,
                                                          monkeypatch):
    """The message reads the default starts from ``scenarios``, which
    owns them, rather than spelling them out."""
    monkeypatch.setattr(scenarios, "_MOBILE_STARTS", (2, 4, 6))
    cfg = _write_config(tmp_path, {"topology": {"mainline": 5}})
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "default sensor schedule (mobile starts 2, 4, 6 plus" in err


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    # Raised, never allocated: a host that overcommits memory may grant a
    # huge request and then kill the process.
    def no_memory(sc):
        raise MemoryError("Unable to allocate 50.9 TiB for an array")
    monkeypatch.setattr(cli, "generate_truth", no_memory)
    rc = cli.main(["simulate", "--config", _small_cfg(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "out of memory" in err and "50.9 TiB" in err


def test_empty_config_is_the_reference_scenario():
    """Every default of the document is the reference twin's, apart from
    the documented differences: no jam, the MHE alone and the id."""
    sc, step_s = cli.build_scenario({})
    ref = scenarios.default_scenario()
    assert step_s == 1.0
    same = ("params", "topo", "t_f", "schedule", "noise_std", "seeds",
            "warmup_steps", "x_init")
    for name in same:
        assert getattr(sc, name) == getattr(ref, name), name
    assert sc.inputs.shape == ref.inputs.shape
    assert sc.inputs.tobytes() == ref.inputs.tobytes()
    assert ref.jam is not None and sc.jam is None
    assert sc.estimators == (scenarios.EstimatorSpec("mhe"),)
    assert sc.scenario_id == "config"
    compared = set(same) | {"inputs", "jam", "estimators", "scenario_id"}
    assert {f.name for f in dataclasses.fields(sc)} == compared


@pytest.mark.parametrize("doc, cause", [
    ({"topology": []}, "topology must be an object or null"),
    ({"sensors": 3}, "sensors must be an object or null"),
    ({"jam": "none"}, "jam must be an object or null"),
    ({"noise": None}, "noise must be an object"),
    ({"inputs": {"ramp_w_kmh": [90.0, 90.0]}},
     "inputs.ramp_w_kmh must match the on-ramp count"),
    ({"inputs": {"offramp_rho_out_veh_km": [20.0]}},
     "inputs.offramp_rho_out_veh_km must match the off-ramp count"),
    ({"seeds": [0, 1.5]}, "seeds must be a list of integers"),
    ({"params": {"gamma": 0}}, "params.gamma must be > 0.0"),
    ({"inputs": {"demand_veh_h": -1}}, "inputs.demand_veh_h must be >= 0.0"),
    ({"jam": {"segment": 7, "end": True}},
     "jam.start and jam.end must be integers"),
    ({"jam": {"segment": 7.5}}, "jam.segment must be an integer"),
    ({"topology": {"off_ramps": [{"from": 2.5}]}},
     "topology.off_ramps[].from must be an integer"),
    ([], "configuration root must be a JSON object"),
])
def test_config_errors_name_their_key(doc, cause):
    with pytest.raises(cli.ConfigError, match=re.escape(cause)):
        cli.build_scenario(doc)


_OVERFLOW = {"params": {"gamma": 100, "max_density_veh_km": 1e6},
             "duration_s": 5}
_UNDERFLOW = {"params": {"gamma": 2000, "max_density_veh_km": 0.5},
              "duration_s": 5}
_ROTATION = {"duration_s": 10,
             "jam": {"segment": 6, "start": 4, "end": 9, "scale": 1},
             "noise": {"std": 1e6}, "estimators": ["mhe", "enkf"]}


@pytest.mark.parametrize("doc, args, code, cause", [
    (_OVERFLOW, ["estimate"], 2, "rho_m ** gamma overflows a float"),
    (_OVERFLOW, ["gramian"], 2, "rho_m ** gamma overflows a float"),
    (_UNDERFLOW, ["simulate"], 2, "rho_m ** gamma underflows a float"),
    (_UNDERFLOW, ["estimate"], 2, "rho_m ** gamma underflows a float"),
    (_UNDERFLOW, ["gramian"], 2, "rho_m ** gamma underflows a float"),
    ({"duration_s": 60, "inputs": {"w_in_kmh": 0}},
     ["estimate", "--estimator", "ekf"], 3,
     "innovation covariance of 14 measurements is singular"),
    ({"duration_s": 60, "inputs": {"w_in_kmh": 1e9}},
     ["estimate", "--estimator", "mhe"], 3, "met a singular pivot block"),
    (_ROTATION, ["sweep", "--sweep", "rotation"], 3,
     "met a singular pivot block"),
    (_ROTATION, ["sweep", "--sweep", "rotation", "--jobs", "2"], 3,
     "met a singular pivot block"),
    ({"duration_s": 10, "topology": {"mainline": 4},
      "sensors": {"fixed": [4]}}, ["sweep", "--sweep", "sensors"], 2,
     "the sensors sweep: sensor schedule: segment id 7 out of range 1..4"),
], ids=["overflow-estimate", "overflow-gramian", "underflow-simulate",
        "underflow-estimate", "underflow-gramian", "ekf-singular",
        "mhe-singular", "sweep", "sweep-jobs-2", "sweep-sensors-misfit"])
def test_numerical_failures_exit_with_their_cause(tmp_path, doc, args, code,
                                                  cause):
    """Parameters whose pressure term overflows or underflows are a config
    error, and a singular Kalman innovation covariance or MHE window solve
    is a runtime error: each exits with its code and names its cause, with
    no traceback, also when the error crosses the sweep's worker pool.  So
    does a sweep cell whose sensors do not fit the network: on a 4-cell
    mainline the sensors sweep's third extra sensor is on cell 7."""
    if args[0] == "sweep":
        args = args + ["--out", str(tmp_path / "rows.csv")]
    done = subprocess.run(
        [sys.executable, "-m", "arzest.cli", args[0], "--config",
         _write_config(tmp_path, doc), *args[1:]],
        capture_output=True, text=True, timeout=120, env=_cli_env())
    assert done.returncode == code, done.stderr
    assert cause in done.stderr
    assert "Traceback" not in done.stderr


# Values that no config key accepts, or accepts only at an extreme.
_ODD = (0, -1, -1e-300, 1e300, 10 ** 400, True, None, "1", [], {})


def _or_odd(strategy, odd=_ODD):
    """A value from ``strategy``, or about one time in ten an odd one.
    (Hypothesis draws the simplest integer, 0, more often than the rest.)"""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(odd) if i == 9 else strategy)


def _value(*good, odd=_ODD):
    return _or_odd(st.sampled_from(good), odd)


def _ints(lo, hi):
    return _or_odd(st.lists(st.integers(lo, hi), max_size=3))


def _section(keys, required=(), odd=_ODD):
    """An object with each key of ``keys`` drawn or left out (``required``
    ones always drawn), or an odd value in its place."""
    return _or_odd(st.fixed_dictionaries(
        {k: keys[k] for k in required},
        optional={k: v for k, v in keys.items() if k not in required}), odd)


# At most 8 mainline cells, one seed and two estimators.  The duration and
# the step keep a run at 20 steps or fewer: an odd one is refused or
# leaves no step.  A mainline above ``cli.MAX_MAINLINE`` is refused before
# its network is built; a 400-digit one is a fixed example below.
_CONFIGS = st.fixed_dictionaries({
    "topology": _section({
        "mainline": _value(8, 3, 1, odd=(0, -1, 1e300, True, None, "1")),
        "on_ramps": _ints(1, 8),
        "off_ramps": _or_odd(st.lists(_section(
            {"from": _value(4, 1, 8), "split": _value(0.2, 0.0, 1.0, 1.5)},
            required=("from",)), max_size=2)),
    }, required=("mainline",), odd=([], 0, "1")),
    "seeds": _or_odd(st.lists(st.integers(0, 3), min_size=1, max_size=1),
                     odd=([-1], [], ["0"], 0)),
    "estimators": _or_odd(st.lists(st.sampled_from(_KINDS), min_size=1,
                                   max_size=2), odd=([], ["kf"], "ekf")),
    "duration_s": _value(1, 5, 12.0, 20, 1e-9),
}, optional={
    "params": _section({
        "free_flow_kmh": _value(102.0, 60, 1e-3),
        "max_density_veh_km": _value(345.0, 0.5, 1e6),
        "relax_steps": _value(20, 1.0001, 1e9),
        "gamma": _value(1.75, 0.01, 100, 2000),
        "step_s": _value(1, 2.0, 1e300),
        "cell_m": _value(100, 60, 1e4),
    }),
    "inputs": _section({
        "demand_veh_h": _value(0, 3000.0, 8800, 1e9),
        "w_in_kmh": _value(0, 102.0, 1e9),
        "rho_out_veh_km": _value(0, 30.0, 1e6),
        "ramp_demand_veh_h": _value([600.0], [0, 1e9]),
        "ramp_w_kmh": _value([102.0], [0]),
        "offramp_rho_out_veh_km": _value([20.0], [20, 0], [1e6]),
    }),
    "jam": _section({
        "segment": _value(1, 4, 8, 13), "start": _value(0, 2),
        "end": _value(5, 20), "scale": _value(0.3, 0.0, 1.0, 2.0),
    }, odd=(None, 0, [])),
    "sensors": _section({
        "fixed": _ints(0, 9), "mobile": _ints(0, 9),
        "rotation_period": _value(1, 5, "inf", "x"),
    }, odd=(None, 0, [])),
    "noise": _section({"std": _value(0, 1.0, 40, 1e6)}),
    "scenario_id": _value("fuzz"),
})
_CONFIGS = st.tuples(_CONFIGS, st.integers(0, 19)).map(
    lambda pair: {**pair[0], "typo": 1} if pair[1] == 19 else pair[0])

_OPTIONS = {
    "estimate": [[]] + [["--estimator", k] for k in _KINDS],
    "sweep": [["--sweep", name] for name in cli._SWEEPS],
    "simulate": [[], ["--smooth", "3"]],
    "gramian": [["--terms", "20"]],
}
_COMMANDS = st.sampled_from(tuple(_OPTIONS)).flatmap(
    lambda cmd: st.sampled_from(_OPTIONS[cmd]).map(lambda opt: [cmd, *opt]))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(doc=_CONFIGS, args=_COMMANDS)
@example(doc=_OVERFLOW, args=["estimate"])
@example(doc=_OVERFLOW, args=["gramian"])
@example(doc=_UNDERFLOW, args=["simulate"])
@example(doc={"duration_s": 60, "inputs": {"w_in_kmh": 0}},
         args=["estimate", "--estimator", "ekf"])
@example(doc={"duration_s": 60, "inputs": {"w_in_kmh": 1e9}},
         args=["estimate", "--estimator", "mhe"])
# The rotation sweep's singular window solve is its MHE seed 4's.
@example(doc={**_ROTATION, "seeds": [4]},
         args=["sweep", "--sweep", "rotation"])
@example(doc={"topology": {"mainline": 10 ** 400}}, args=["estimate"])
def test_config_fuzz_exits_with_a_documented_code(doc, args):
    """Any config document and subcommand ends in exit 0, 2 or 3, nothing
    raises out of ``cli.main``, and a successful ``estimate`` reports finite
    errors."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [args[0], "--config", os.path.join(tmp, "cfg.json"), *args[1:]]
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if args[0] == "sweep":
            argv += ["--out", os.path.join(tmp, "rows.csv")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0 and args[0] == "estimate":
        summary = json.loads(out.getvalue())
        assert math.isfinite(summary["rmse_rho"])
        assert math.isfinite(summary["rmse_v"])
