"""Command line front end.

Subcommands:

* ``simulate``  write the truth trajectory of a scenario as CSV (the
  density and speed a sensor on each segment reads)
* ``estimate``  run one estimator against synthetic measurements; writes
  the estimate trajectory as CSV and a JSON summary to stdout
* ``sweep``     run one of the four study sweeps and write its CSV
* ``gramian``   report the observability check for the configured sensors

Configuration is a JSON document (``--config``); every section is optional
and falls back to ``scenarios.default_scenario`` (500 s, the MHE, seeds 0-4)
with one exception: without a ``jam`` section there is no slowdown, where
the reference twin slows cell 7 during steps 100-300.  Physical quantities
in the file use seconds and metres (``step_s``, ``cell_m``, ``duration_s``);
internally everything runs in hours and kilometres.  Unknown keys anywhere
in the document and non-finite numbers are rejected so typos fail loudly.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from .kalman import EstimatorError
from .linearize import linearize_measurement, linearize_model
from .model import (
    BlowupError,
    ModelError,
    ModelParams,
    OffRamp,
    OnRamp,
    Topology,
    measure_h,
    state_scale,
)
from .scenarios import (
    EstimatorSpec,
    JamSpec,
    Scenario,
    constant_inputs,
    default_schedule,
    generate_truth,
    moving_average,
    run_estimation,
    sweep_noise,
    sweep_rotation,
    sweep_sensor_count,
    sweep_spacing,
    write_sweep_csv,
)
from .sensing import (
    SensorSchedule,
    build_observation,
    observability_gramian,
    positions_at,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

GRAMIAN_EIG_THRESHOLD = 1e-9

ESTIMATOR_KINDS = ("ekf", "ukf", "enkf", "mhe")


class ConfigError(Exception):
    """Invalid configuration document."""


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(extra))}")


def _finite(val) -> float | None:
    """A JSON number as a float, or None when it is not finite: infinite,
    NaN, or an integer too large for a float."""
    try:
        val = float(val)
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


def _num(obj, key, where, default=None, minimum=None, strict_min=False):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}.{key} is required")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    val = _finite(val)
    if val is None:
        raise ConfigError(f"{where}.{key} must be a finite number")
    if minimum is not None:
        if strict_min and not val > minimum:
            raise ConfigError(f"{where}.{key} must be > {minimum}")
        if not strict_min and not val >= minimum:
            raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return val


def _int_list(val, where):
    if not isinstance(val, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in val):
        raise ConfigError(f"{where} must be a list of integers")
    return [int(v) for v in val]


def _num_list(val, where):
    if not isinstance(val, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            for v in val):
        raise ConfigError(f"{where} must be a list of numbers")
    out = [_finite(v) for v in val]
    for i, v in enumerate(out):
        if v is None:
            raise ConfigError(f"{where}[{i}] must be a finite number")
    return out


def _build_params(doc: dict) -> tuple[ModelParams, float]:
    sec = doc.get("params", {})
    if not isinstance(sec, dict):
        raise ConfigError("params must be an object")
    _reject_unknown(sec, {"free_flow_kmh", "max_density_veh_km",
                          "relax_steps", "gamma", "step_s", "cell_m"},
                    "params")
    step_s = _num(sec, "step_s", "params", default=1.0, minimum=0.0,
                  strict_min=True)
    cell_m = _num(sec, "cell_m", "params", default=100.0, minimum=0.0,
                  strict_min=True)
    params = ModelParams(
        v_f=_num(sec, "free_flow_kmh", "params", default=102.0,
                 minimum=0.0, strict_min=True),
        rho_m=_num(sec, "max_density_veh_km", "params", default=345.0,
                   minimum=0.0, strict_min=True),
        tau=_num(sec, "relax_steps", "params", default=20.0),
        gamma=_num(sec, "gamma", "params", default=1.75, minimum=0.0,
                   strict_min=True),
        T=step_s / 3600.0,
        l=cell_m / 1000.0,
    )
    return params, step_s


def _build_topology(doc: dict) -> Topology:
    sec = doc.get("topology", None)
    if sec is None:
        from .scenarios import paper_topology
        return paper_topology()
    if not isinstance(sec, dict):
        raise ConfigError("topology must be an object")
    _reject_unknown(sec, {"mainline", "on_ramps", "off_ramps"}, "topology")
    n_main = sec.get("mainline", 9)
    if isinstance(n_main, bool) or not isinstance(n_main, int) or n_main < 1:
        raise ConfigError("topology.mainline must be a positive integer")
    on = _int_list(sec.get("on_ramps", []), "topology.on_ramps")
    off_spec = sec.get("off_ramps", [])
    if not isinstance(off_spec, list):
        raise ConfigError("topology.off_ramps must be a list")
    offs = []
    for i, o in enumerate(off_spec):
        if not isinstance(o, dict):
            raise ConfigError("topology.off_ramps entries must be objects")
        _reject_unknown(o, {"from", "split"}, f"topology.off_ramps[{i}]")
        seg = o.get("from")
        if isinstance(seg, bool) or not isinstance(seg, int):
            raise ConfigError("topology.off_ramps[].from must be an integer")
        split = _num(o, "split", f"topology.off_ramps[{i}]", default=0.2)
        offs.append(OffRamp(diverge_from=seg, alpha=split))
    return Topology(n_mainline=n_main,
                    on_ramps=tuple(OnRamp(merge_into=m) for m in on),
                    off_ramps=tuple(offs))


def _build_inputs(doc: dict, topo: Topology, params: ModelParams,
                  t_f: int) -> np.ndarray:
    sec = doc.get("inputs", {})
    if not isinstance(sec, dict):
        raise ConfigError("inputs must be an object")
    _reject_unknown(sec, {"demand_veh_h", "w_in_kmh", "rho_out_veh_km",
                          "ramp_demand_veh_h", "ramp_w_kmh",
                          "offramp_rho_out_veh_km"}, "inputs")
    n_on, n_off = topo.n_onramps, topo.n_offramps
    ramp_d = _num_list(sec.get("ramp_demand_veh_h", [600.0] * n_on),
                       "inputs.ramp_demand_veh_h")
    ramp_w = _num_list(sec.get("ramp_w_kmh", [params.v_f] * n_on),
                       "inputs.ramp_w_kmh")
    off_rho = _num_list(sec.get("offramp_rho_out_veh_km", [20.0] * n_off),
                        "inputs.offramp_rho_out_veh_km")
    if len(ramp_d) != n_on or len(ramp_w) != n_on:
        raise ConfigError("ramp input lists must match the on-ramp count")
    if len(off_rho) != n_off:
        raise ConfigError(
            "offramp_rho_out_veh_km must match the off-ramp count")
    return constant_inputs(
        topo, t_f,
        d_in=_num(sec, "demand_veh_h", "inputs", default=8800.0,
                  minimum=0.0),
        w_in=_num(sec, "w_in_kmh", "inputs", default=params.v_f,
                  minimum=0.0),
        rho_out=_num(sec, "rho_out_veh_km", "inputs", default=30.0,
                     minimum=0.0),
        ramp_demand=ramp_d, ramp_w=ramp_w, offramp_rho_out=off_rho,
    )


def _build_jam(doc: dict) -> JamSpec | None:
    sec = doc.get("jam", None)
    if sec is None:
        return None
    if not isinstance(sec, dict):
        raise ConfigError("jam must be an object or null")
    _reject_unknown(sec, {"segment", "start", "end", "scale"}, "jam")
    seg = sec.get("segment")
    if isinstance(seg, bool) or not isinstance(seg, int):
        raise ConfigError("jam.segment must be an integer")
    start = sec.get("start", 0)
    end = sec.get("end")
    if (isinstance(start, bool) or not isinstance(start, int)
            or isinstance(end, bool) or not isinstance(end, int)):
        raise ConfigError("jam.start and jam.end must be integers")
    return JamSpec(segment=seg, start=start, end=end,
                   scale=_num(sec, "scale", "jam", default=0.3))


def _build_schedule(doc: dict, topo: Topology) -> SensorSchedule:
    sec = doc.get("sensors", None)
    if sec is None:
        try:
            sched = default_schedule(topo)
            positions_at(sched, topo, 0)
        except ValueError:
            raise ConfigError(
                "the default sensor schedule (mobile starts 1, 3, 7 plus the "
                f"minimum fixed set) does not fit a {topo.n_mainline}-cell "
                "mainline; give a sensors section") from None
        return sched
    if not isinstance(sec, dict):
        raise ConfigError("sensors must be an object")
    _reject_unknown(sec, {"fixed", "mobile", "rotation_period"}, "sensors")
    fixed = _int_list(sec.get("fixed", []), "sensors.fixed")
    mobile = _int_list(sec.get("mobile", []), "sensors.mobile")
    period = sec.get("rotation_period", None)
    if period in (None, "inf"):
        period = None
    elif isinstance(period, bool) or not isinstance(period, int):
        raise ConfigError(
            "sensors.rotation_period must be an integer, null or \"inf\"")
    return SensorSchedule(fixed_segments=tuple(fixed),
                          mobile_count=len(mobile),
                          rotation_period=period,
                          initial_positions=tuple(mobile))


def build_scenario(doc: dict) -> tuple[Scenario, float]:
    """Turn a validated JSON document into a scenario.

    Returns the scenario and the step length in seconds (for CSV time
    columns).  A ``ModelError`` or ``ValueError`` of the build becomes a
    ``ConfigError`` with its message.
    """
    try:
        if not isinstance(doc, dict):
            raise ConfigError("configuration root must be a JSON object")
        _reject_unknown(doc, {"scenario_id", "params", "topology", "inputs",
                              "jam", "sensors", "noise", "estimators",
                              "duration_s", "seeds"}, "configuration")
        params, step_s = _build_params(doc)
        topo = _build_topology(doc)
        duration_s = _num(doc, "duration_s", "configuration", default=500.0,
                          minimum=0.0, strict_min=True)
        t_f = int(round(duration_s / step_s))
        if t_f < 1:
            raise ConfigError("duration_s must cover at least one step")
        inputs = _build_inputs(doc, topo, params, t_f)
        jam = _build_jam(doc)

        noise_sec = doc.get("noise", {})
        if not isinstance(noise_sec, dict):
            raise ConfigError("noise must be an object")
        _reject_unknown(noise_sec, {"std"}, "noise")
        noise_std = _num(noise_sec, "std", "noise", default=1.0, minimum=0.0)

        est_names = doc.get("estimators", ["mhe"])
        if not isinstance(est_names, list) or not est_names:
            raise ConfigError("estimators must be a non-empty list")
        specs = []
        for name in est_names:
            if name not in ESTIMATOR_KINDS:
                raise ConfigError(f"unknown estimator {name!r}; choose from "
                                  f"{', '.join(ESTIMATOR_KINDS)}")
            specs.append(EstimatorSpec(name))

        seeds = tuple(_int_list(doc.get("seeds", [0, 1, 2, 3, 4]), "seeds"))

        sid = doc.get("scenario_id", "config")
        if not isinstance(sid, str):
            raise ConfigError("scenario_id must be a string")

        sc = Scenario(
            scenario_id=sid, params=params, topo=topo, t_f=t_f,
            inputs=inputs, schedule=_build_schedule(doc, topo),
            noise_std=noise_std, seeds=seeds, estimators=tuple(specs),
            jam=jam,
        )
        return sc, step_s
    except (ModelError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc


def _write_trajectory(out, values: np.ndarray, step_s: float,
                      smooth: int | None) -> None:
    """CSV with one row per step: density and speed for every segment.

    ``values`` holds one (density, speed) row pair per segment and step.
    """
    n_seg = values.shape[1] // 2
    if smooth is not None:
        values = moving_average(values, smooth)
    w = csv.writer(out)
    header = ["step", "time_s"]
    for i in range(1, n_seg + 1):
        header += [f"rho_{i}", f"v_{i}"]
    w.writerow(header)
    for k in range(values.shape[0]):
        row = [str(k), f"{k * step_s:.9g}"]
        row += [f"{v:.9g}" for v in values[k]]
        w.writerow(row)


def _open_out(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def cmd_simulate(args) -> int:
    sc, step_s = build_scenario(_load_config(args.config))
    truth = generate_truth(sc)
    with _open_out(args.out) as out:
        _write_trajectory(out, truth.obs, step_s, args.smooth)
    return EXIT_OK


def cmd_estimate(args) -> int:
    sc, step_s = build_scenario(_load_config(args.config))
    if args.estimator is not None:
        spec = EstimatorSpec(args.estimator)
    else:
        spec = sc.estimators[0]
    truth = generate_truth(sc)
    res = run_estimation(sc, truth, spec, args.seed)
    if args.out is not None:
        with _open_out(args.out) as fh:
            _write_trajectory(fh, measure_h(res.est, sc.params),
                              step_s, args.smooth)
    summary = {
        "scenario_id": sc.scenario_id,
        "estimator": spec.kind,
        "seed": args.seed,
        "rmse_rho": res.rmse_rho,
        "rmse_v": res.rmse_v,
        "mean_step_time_s": res.mean_step_time_s,
        "within_bounds": res.within_bounds,
        "flags": res.flags,
    }
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc, _ = build_scenario(_load_config(args.config))
    runner = {
        "sensors": sweep_sensor_count,
        "rotation": sweep_rotation,
        "spacing": sweep_spacing,
        "noise": sweep_noise,
    }[args.sweep]
    rows = runner(sc, jobs=args.jobs)
    write_sweep_csv(rows, args.out)
    return EXIT_OK


def cmd_gramian(args) -> int:
    sc, _ = build_scenario(_load_config(args.config))
    truth = generate_truth(sc)
    x0 = truth.traj[0]
    u0 = sc.inputs[0]
    lin = linearize_model(x0, u0, sc.topo, sc.params)
    positions = positions_at(sc.schedule, sc.topo, 0)
    C_sel = build_observation(positions, sc.topo)
    lm = linearize_measurement(x0, C_sel, sc.params)
    d = state_scale(sc.topo, sc.params)
    A_s = lin.A_tilde * (d[None, :] / d[:, None])
    C_s = lm.C_tilde * d[None, :]
    res = observability_gramian(A_s, C_s, terms=args.terms)
    report = {
        "positions": sorted(positions),
        "min_eigenvalue": res.min_eigenvalue,
        "spectral_radius": res.spectral_radius,
        "sum_converged": not res.diverged,
        "threshold": GRAMIAN_EIG_THRESHOLD,
        "observable": bool(not res.diverged
                           and res.min_eigenvalue > GRAMIAN_EIG_THRESHOLD),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arzest",
        description="Highway traffic state estimation toolbox.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=False, smooth=False):
        p.add_argument("--config", metavar="FILE", default=None,
                       help="JSON scenario file (defaults built in)")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="noise seed (default 0)")
        if smooth:
            p.add_argument("--smooth", type=int, default=None,
                           metavar="W",
                           help="trailing moving-average window for the "
                                "CSV value columns")

    p = sub.add_parser("simulate", help="write the truth trajectory CSV")
    common(p, smooth=True)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="output CSV (stdout when omitted)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate",
                       help="run one estimator, print a JSON summary")
    common(p, seed=True, smooth=True)
    p.add_argument("--estimator", choices=ESTIMATOR_KINDS, default=None,
                   help="override the config's first estimator")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the estimate trajectory CSV here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="run a study sweep, write its CSV")
    common(p)
    p.add_argument("--sweep", required=True,
                   choices=("sensors", "rotation", "spacing", "noise"))
    p.add_argument("--out", metavar="FILE", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes for sweep cells, this one included "
                        "(default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gramian",
                       help="observability report for the sensor layout")
    common(p)
    p.add_argument("--terms", type=int, default=200,
                   help="number of terms in the observability sum")
    p.set_defaults(func=cmd_gramian)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for name, least, kind in (("smooth", 1, "a positive"),
                              ("jobs", 1, "a positive"),
                              ("seed", 0, "a non-negative"),
                              ("terms", 1, "a positive")):
        value = getattr(args, name, None)
        if value is not None and value < least:
            print(f"error: --{name} must be {kind} integer", file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as exc:
        print(f"runtime error: simulation diverged ({exc})", file=sys.stderr)
        return EXIT_RUNTIME
    except (ModelError, EstimatorError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
