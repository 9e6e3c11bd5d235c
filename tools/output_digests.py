"""sha256 prefixes of the program's outputs, to show that a change keeps
them byte-identical.  Run it on two checkouts and ``diff`` the listings:

    PYTHONPATH=src python tools/output_digests.py [t_f] > digests.txt

Every run takes ``t_f`` steps (default 500); a group of runs is digested
as the sha256 of its runs' digests.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from dataclasses import replace

import numpy as np

import arzest as az
from arzest import cli

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


def _run(sc, truth, kind: str, seed: int) -> str:
    r = az.run_estimation(sc, truth, az.EstimatorSpec(kind), seed)
    return _sha(r.est, r.rmse_rho, r.rmse_v, r.flags, r.within_bounds)


def digests(t_f: int = 500) -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, csv = pathlib.Path(tmp, "config.json"), pathlib.Path(tmp, "e.csv")
        cfg.write_text(json.dumps({"duration_s": t_f}), encoding="utf-8")
        for kind in KINDS:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["estimate", "--config", str(cfg), "--estimator",
                          kind, "--seed", "0", "--out", str(csv)])
            out[f"cli estimate {kind}"] = hashlib.sha256(
                csv.read_bytes()).hexdigest()[:16]
    ref = az.default_scenario(t_f)
    sweep = replace(ref, jam=az.JamSpec(7, min(5, t_f), t_f))
    for name, sc in (("reference", ref), ("long-highway", _long_highway(t_f)),
                     ("noise-sweep", sweep)):
        truth = az.generate_truth(sc)
        out[f"truth {name}"] = _sha(truth.traj, truth.obs)
    # Serial and pooled rows of one sweep, without the timing column.
    sweep = replace(sweep, seeds=(0,),
                    estimators=tuple(az.EstimatorSpec(k) for k in KINDS))
    for jobs in (1, 2):
        rows = az.sweep_noise(sweep, stds=(40.0, 0.0), jobs=jobs)
        out[f"sweep noise-sweep jobs {jobs}"] = _sha(*(
            [(k, v) for k, v in r.items() if k != "mean_step_time_s"]
            for r in rows))
    truth = az.generate_truth(ref)
    for noise in (1.0, 40.0):
        for kind in KINDS:
            out[f"run noise {noise:g} {kind}"] = _sha(*(
                _run(replace(ref, noise_std=noise), truth, kind, seed)
                for seed in range(5)))
    blind = replace(ref, schedule=az.SensorSchedule(fixed_segments=()))
    for kind in KINDS:
        out[f"run no sensors {kind}"] = _run(blind, truth, kind, 0)
    return out


if __name__ == "__main__":
    for key, value in digests(*map(int, sys.argv[1:2])).items():
        print(f"{key:24s} {value}")
