"""sha256 prefixes of the program's outputs, to show that a change keeps
them byte-identical.  Run it on two checkouts and ``diff`` the listings:

    PYTHONPATH=src python tools/output_digests.py [t_f] > digests.txt

Every run takes ``t_f`` steps (default 500); a group of runs is digested
as the sha256 of its runs' digests.  The CLI's outputs are digested for a
config that sets only the duration and for one that sets every section,
without their timing fields.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np

import arzest as az
from arzest import cli, scenarios

KINDS = ("ekf", "ukf", "enkf", "mhe")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:16]


def _long_highway(t_f: int) -> az.Scenario:
    """30 mainline cells, two ramps of each kind, a jam on cell 15."""
    params = az.paper_params()
    topo = az.Topology(30, (az.OnRamp(8), az.OnRamp(20)),
                       (az.OffRamp(12, 0.15), az.OffRamp(25, 0.15)))
    inputs = az.constant_inputs(topo, t_f, 7500.0, params.v_f, 30.0,
                                (500.0, 500.0), (params.v_f,) * 2, (20.0, 20.0))
    sched = replace(az.default_schedule(topo), mobile_count=5,
                    initial_positions=(2, 8, 14, 20, 26))
    return az.Scenario("long-highway", params, topo, t_f, inputs, sched, 1.0,
                       jam=az.JamSpec(15, min(5, t_f), t_f))


def _every_section(t_f: int) -> dict:
    """A config that sets every section and key, away from each default:
    2 s steps on 150 m cells, eleven mainline cells and two ramps of each
    kind."""
    return {
        "scenario_id": "every-section",
        "params": {"free_flow_kmh": 96.0, "max_density_veh_km": 330.0,
                   "relax_steps": 25.0, "gamma": 1.5, "step_s": 2.0,
                   "cell_m": 150.0},
        "topology": {"mainline": 11, "on_ramps": [4, 8],
                     "off_ramps": [{"from": 6, "split": 0.15}, {"from": 9}]},
        "inputs": {"demand_veh_h": 7200.0, "w_in_kmh": 90.0,
                   "rho_out_veh_km": 25.0,
                   "ramp_demand_veh_h": [400.0, 500.0],
                   "ramp_w_kmh": [85.0, 96.0],
                   "offramp_rho_out_veh_km": [15.0, 18.0]},
        "jam": {"segment": 5, "start": min(3, t_f), "end": t_f, "scale": 0.5},
        "sensors": {"fixed": [11, 12, 13, 14, 15], "mobile": [2, 7],
                    "rotation_period": 10},
        "noise": {"std": 2.0},
        "estimators": ["ukf", "mhe"],
        "duration_s": 2.0 * t_f,
        "seeds": [1],
    }


def _cli(*argv) -> str:
    """Run the CLI and return what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        if cli.main([*map(str, argv)]) != 0:
            raise RuntimeError(f"arzest {' '.join(map(str, argv))} failed")
    return out.getvalue()


def _untimed(text: str) -> str:
    """A JSON summary or sweep CSV without its timing field or column."""
    if text.startswith("{"):
        summary = json.loads(text)
        del summary["mean_step_time_s"]
        return json.dumps(summary)
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("mean_step_time_s")
    return repr([r[:col] + r[col + 1:] for r in rows])


def _run(sc, truth, kind: str, seed: int) -> str:
    r = az.run_estimation(sc, truth, az.EstimatorSpec(kind), seed)
    return _sha(r.est, r.rmse_rho, r.rmse_v, r.flags, r.within_bounds)


def digests(t_f: int = 500) -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, res = pathlib.Path(tmp, "config.json"), pathlib.Path(tmp, "e.csv")
        cfg.write_text(json.dumps({"duration_s": t_f}), encoding="utf-8")
        for kind in KINDS:
            _cli("estimate", "--config", cfg, "--estimator", kind, "--seed", 0,
                 "--out", res)
            out[f"cli estimate {kind}"] = hashlib.sha256(
                res.read_bytes()).hexdigest()[:16]
        cfg.write_text(json.dumps(_every_section(t_f)), encoding="utf-8")
        _cli("simulate", "--config", cfg, "--smooth", 3, "--out", res)
        out["cli simulate config"] = _sha(res.read_bytes())
        summary = _cli("estimate", "--config", cfg, "--seed", 2, "--out", res)
        out["cli estimate config"] = _sha(res.read_bytes(), _untimed(summary))
        out["cli gramian config"] = _sha(_cli("gramian", "--config", cfg))
        _cli("sweep", "--config", cfg, "--sweep", "rotation", "--out", res)
        out["cli sweep config"] = _sha(_untimed(res.read_text("utf-8")))
    ref = az.default_scenario(t_f)
    sweep = replace(ref, jam=az.JamSpec(7, min(5, t_f), t_f))
    long = _long_highway(t_f)
    truths = {}
    for name, sc in (("reference", ref), ("long-highway", long),
                     ("noise-sweep", sweep)):
        truths[name] = truth = az.generate_truth(sc)
        out[f"truth {name}"] = _sha(truth.traj, truth.obs)
    # Serial and pooled rows of one sweep, without the timing column.
    sweep = replace(sweep, seeds=(0,),
                    estimators=tuple(az.EstimatorSpec(k) for k in KINDS))
    for jobs in (1, 2):
        rows = az.sweep_noise(sweep, stds=(40.0, 0.0), jobs=jobs)
        out[f"sweep noise-sweep jobs {jobs}"] = _sha(*(
            [(k, v) for k, v in r.items() if k != "mean_step_time_s"]
            for r in rows))
    # n_x 68: the band blocks and the stencil at three times the state.
    for kind in KINDS:
        out[f"run long-highway {kind}"] = _run(long, truths["long-highway"],
                                               kind, 0)
    truth = truths["reference"]
    for noise in (1.0, 40.0):
        for kind in KINDS:
            out[f"run noise {noise:g} {kind}"] = _sha(*(
                _run(replace(ref, noise_std=noise), truth, kind, seed)
                for seed in range(5)))
    blind = replace(ref, schedule=az.SensorSchedule(fixed_segments=()))
    for kind in KINDS:
        out[f"run no sensors {kind}"] = _run(blind, truth, kind, 0)
    # No sensor reports at schedule steps t_f//3 to 2*t_f//3 - 1.
    positions_at = scenarios.positions_at

    def gap(schedule, topo, t):
        if t_f // 3 <= t < 2 * t_f // 3:
            return []
        return positions_at(schedule, topo, t)

    with mock.patch.object(scenarios, "positions_at", gap):
        for kind in KINDS:
            out[f"run blind stretch {kind}"] = _run(ref, truth, kind, 0)
    return out


if __name__ == "__main__":
    for key, value in digests(*map(int, sys.argv[1:2])).items():
        print(f"{key:24s} {value}")
