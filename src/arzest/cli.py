"""Command line front end.

Subcommands:

* ``simulate``  write the truth trajectory of a scenario as CSV (the
  density and speed a sensor on each segment reads)
* ``estimate``  run one estimator against synthetic measurements; writes
  the estimate trajectory as CSV and a JSON summary to stdout
* ``sweep``     run one of the four study sweeps and write its CSV
* ``gramian``   report the observability check for the configured sensors

Configuration is a JSON document (``--config``).  Every section is
optional; a value left out is the reference twin's, read from its owner in
``scenarios``: the model parameters from ``paper_params``, the mainline and
off-ramp split from ``paper_topology``, the feed, duration, noise and seeds
from ``default_scenario``, the sensors from ``default_schedule`` and the
jam scale from ``JamSpec``.  An empty document is thus the reference twin,
except that it runs the MHE alone, its id is ``config`` and, without a
``jam`` section, nothing slows down.  Physical quantities in the file use
seconds and metres (``step_s``, ``cell_m``, ``duration_s``); internally
everything runs in hours and kilometres.  Unknown keys anywhere in the
document and non-finite numbers are rejected so typos fail loudly.

Exit codes: 0 success, 2 usage or configuration error (an unwritable
``--out`` among them, found before the run), 3 runtime failure (a failed
write of the output among them, such as to a pipe its reader closed).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import multiprocessing
import os
import sys
from dataclasses import replace

import numpy as np

from . import scenarios
from .kalman import _KINDS, EstimatorError
from .linearize import linearize_measurement, linearize_model
from .model import (
    BlowupError,
    ModelError,
    ModelParams,
    OffRamp,
    OnRamp,
    Topology,
    _box_and_scale,
    measure_h,
)
from .scenarios import (
    _FEED,
    EstimatorSpec,
    JamSpec,
    Scenario,
    constant_inputs,
    default_scenario,
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

# The filters keep a dense n_x x n_x float64 state covariance, two states
# per cell: at this many mainline cells it already takes 0.8 GB.
MAX_MAINLINE = 5000

_SWEEPS = {"sensors": sweep_sensor_count, "rotation": sweep_rotation,
           "spacing": sweep_spacing, "noise": sweep_noise}


class ConfigError(Exception):
    """Invalid configuration document."""


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(extra))}")


def _section(doc: dict, key: str, allowed, nullable=False) -> dict | None:
    """``doc[key]``, an object with no key outside ``allowed``.  An absent
    section reads as ``{}``; a ``nullable`` one reads as None when it is
    absent or null."""
    if nullable and doc.get(key) is None:
        return None
    sec = doc.get(key, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{key} must be an object"
                          + (" or null" if nullable else ""))
    _reject_unknown(sec, allowed, key)
    return sec


def _is_int(val) -> bool:
    """A JSON integer (``true`` and ``false`` are not)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _is_num(val) -> bool:
    return _is_int(val) or isinstance(val, float)


def _finite(val, where: str) -> float:
    """A JSON number as a float; infinite, NaN and integers too large for a
    float are refused."""
    try:
        val = float(val)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{where} must be a finite number")
    return val


def _num(obj: dict, key: str, where: str, default: float,
         bound: str | None = None) -> float:
    """``obj[key]`` as a finite float, ``default`` when absent.  ``bound``
    ``">"`` or ``">="`` compares it with zero."""
    if key not in obj:
        return default
    if not _is_num(obj[key]):
        raise ConfigError(f"{where}.{key} must be a number")
    val = _finite(obj[key], f"{where}.{key}")
    if bound is not None and not (val > 0 if bound == ">" else val >= 0):
        raise ConfigError(f"{where}.{key} must be {bound} 0.0")
    return val


def _list(val, where: str, ints=False) -> list:
    """A JSON list of integers, or else of finite numbers as floats."""
    if not isinstance(val, list) or not all(
            map(_is_int if ints else _is_num, val)):
        raise ConfigError(f"{where} must be a list of "
                          + ("integers" if ints else "numbers"))
    if ints:
        return list(val)
    return [_finite(v, f"{where}[{i}]") for i, v in enumerate(val)]


def _build_params(doc: dict, ref: ModelParams) -> tuple[ModelParams, float]:
    sec = _section(doc, "params", {"free_flow_kmh", "max_density_veh_km",
                                   "relax_steps", "gamma", "step_s",
                                   "cell_m"})
    step_s = _num(sec, "step_s", "params", ref.T * 3600.0, ">")
    cell_m = _num(sec, "cell_m", "params", ref.l * 1000.0, ">")
    params = ModelParams(
        v_f=_num(sec, "free_flow_kmh", "params", ref.v_f, ">"),
        rho_m=_num(sec, "max_density_veh_km", "params", ref.rho_m, ">"),
        tau=_num(sec, "relax_steps", "params", ref.tau),
        gamma=_num(sec, "gamma", "params", ref.gamma, ">"),
        T=step_s / 3600.0,
        l=cell_m / 1000.0,
    )
    return params, step_s


def _build_topology(doc: dict, ref: Topology) -> Topology:
    sec = _section(doc, "topology", {"mainline", "on_ramps", "off_ramps"},
                   nullable=True)
    if sec is None:
        return ref
    n_main = sec.get("mainline", ref.n_mainline)
    if not _is_int(n_main) or n_main < 1:
        raise ConfigError("topology.mainline must be a positive integer")
    if n_main > MAX_MAINLINE:
        raise ConfigError(f"topology.mainline must be at most {MAX_MAINLINE} "
                          "cells, where a dense state covariance takes 0.8 GB")
    on = _list(sec.get("on_ramps", []), "topology.on_ramps", ints=True)
    off_spec = sec.get("off_ramps", [])
    if not isinstance(off_spec, list):
        raise ConfigError("topology.off_ramps must be a list")
    offs = []
    for i, o in enumerate(off_spec):
        if not isinstance(o, dict):
            raise ConfigError("topology.off_ramps entries must be objects")
        where = f"topology.off_ramps[{i}]"
        _reject_unknown(o, {"from", "split"}, where)
        if not _is_int(o.get("from")):
            raise ConfigError("topology.off_ramps[].from must be an integer")
        split = _num(o, "split", where, ref.off_ramps[0].alpha)
        offs.append(OffRamp(diverge_from=o["from"], alpha=split))
    return Topology(n_mainline=n_main,
                    on_ramps=tuple(OnRamp(merge_into=m) for m in on),
                    off_ramps=tuple(offs))


def _build_inputs(doc: dict, topo: Topology, params: ModelParams,
                  t_f: int) -> np.ndarray:
    sec = _section(doc, "inputs", {"demand_veh_h", "w_in_kmh",
                                   "rho_out_veh_km", "ramp_demand_veh_h",
                                   "ramp_w_kmh", "offramp_rho_out_veh_km"})
    d_in, rho_out, ramp_d, off_rho = _FEED

    def per_ramp(key, default, count, kind):
        vals = _list(sec.get(key, [default] * count), f"inputs.{key}")
        if len(vals) != count:
            raise ConfigError(f"inputs.{key} must match the {kind} count")
        return vals

    return constant_inputs(
        topo, t_f,
        d_in=_num(sec, "demand_veh_h", "inputs", d_in, ">="),
        w_in=_num(sec, "w_in_kmh", "inputs", params.v_f, ">="),
        rho_out=_num(sec, "rho_out_veh_km", "inputs", rho_out, ">="),
        ramp_demand=per_ramp("ramp_demand_veh_h", ramp_d, topo.n_onramps,
                             "on-ramp"),
        ramp_w=per_ramp("ramp_w_kmh", params.v_f, topo.n_onramps, "on-ramp"),
        offramp_rho_out=per_ramp("offramp_rho_out_veh_km", off_rho,
                                 topo.n_offramps, "off-ramp"),
    )


def _build_jam(doc: dict) -> JamSpec | None:
    sec = _section(doc, "jam", {"segment", "start", "end", "scale"},
                   nullable=True)
    if sec is None:
        return None
    if not _is_int(sec.get("segment")):
        raise ConfigError("jam.segment must be an integer")
    start, end = sec.get("start", 0), sec.get("end")
    if not (_is_int(start) and _is_int(end)):
        raise ConfigError("jam.start and jam.end must be integers")
    return JamSpec(segment=sec["segment"], start=start, end=end,
                   scale=_num(sec, "scale", "jam", JamSpec.scale))


def _build_schedule(doc: dict, topo: Topology) -> SensorSchedule:
    sec = _section(doc, "sensors", {"fixed", "mobile", "rotation_period"},
                   nullable=True)
    if sec is None:
        try:
            sched = default_schedule(topo)
            positions_at(sched, topo, 0)
        except ValueError:
            starts = ", ".join(map(str, scenarios._MOBILE_STARTS))
            raise ConfigError(
                f"the default sensor schedule (mobile starts {starts} plus "
                f"the minimum fixed set) does not fit a {topo.n_mainline}-cell "
                "mainline; give a sensors section") from None
        return sched
    fixed = _list(sec.get("fixed", []), "sensors.fixed", ints=True)
    mobile = _list(sec.get("mobile", []), "sensors.mobile", ints=True)
    period = sec.get("rotation_period")
    if period in (None, "inf"):
        period = None
    elif not _is_int(period):
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
        ref = default_scenario()
        params, step_s = _build_params(doc, ref.params)
        topo = _build_topology(doc, ref.topo)
        # The reference run's length in seconds (``T * 3600`` is exact).
        duration_s = _num(doc, "duration_s", "configuration",
                          ref.t_f * (ref.params.T * 3600.0), ">")
        t_f = int(round(duration_s / step_s))
        if not 1 <= t_f < sys.maxsize:
            raise ConfigError("duration_s must cover at least one step and "
                              f"fewer than {sys.maxsize} steps")
        noise = _section(doc, "noise", {"std"})

        names = doc.get("estimators", ["mhe"])
        if not isinstance(names, list) or not names:
            raise ConfigError("estimators must be a non-empty list")

        sid = doc.get("scenario_id", "config")
        if not isinstance(sid, str):
            raise ConfigError("scenario_id must be a string")

        return Scenario(
            scenario_id=sid, params=params, topo=topo, t_f=t_f,
            inputs=_build_inputs(doc, topo, params, t_f),
            schedule=_build_schedule(doc, topo),
            noise_std=_num(noise, "std", "noise", ref.noise_std, ">="),
            seeds=_list(doc.get("seeds", list(ref.seeds)), "seeds",
                        ints=True),
            estimators=tuple(map(EstimatorSpec, names)),
            jam=_build_jam(doc),
        ), step_s
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
    w.writerow(["step", "time_s", *(f"{q}_{i}" for i in range(1, n_seg + 1)
                                    for q in ("rho", "v"))])
    w.writerows([str(k), f"{k * step_s:.9g}", *(f"{v:.9g}" for v in row)]
                for k, row in enumerate(values))


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
    spec = (EstimatorSpec(args.estimator) if args.estimator
            else sc.estimators[0])
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
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc, _ = build_scenario(_load_config(args.config))
    try:
        rows = _SWEEPS[args.sweep](sc, jobs=args.jobs)
    except ValueError as exc:  # a sweep's sensor layout the network refuses
        raise ConfigError(f"the {args.sweep} sweep: {exc}") from exc
    write_sweep_csv(rows, args.out)
    return EXIT_OK


def cmd_gramian(args) -> int:
    sc, _ = build_scenario(_load_config(args.config))
    # Only the warmed first state is read: simulate one step, not the run.
    x0 = generate_truth(replace(sc, t_f=1, inputs=sc.inputs[:1],
                                jam=None)).traj[0]
    lin = linearize_model(x0, sc.inputs[0], sc.topo, sc.params)
    positions = positions_at(sc.schedule, sc.topo, 0)
    lm = linearize_measurement(x0, build_observation(positions, sc.topo),
                               sc.params)
    _, _, d, ratio = _box_and_scale(sc.topo, sc.params)
    res = observability_gramian(lin.A_tilde * ratio, lm.C_tilde * d,
                                terms=args.terms)
    report = {
        "positions": sorted(positions),
        "min_eigenvalue": res.min_eigenvalue,
        "spectral_radius": res.spectral_radius,
        "sum_converged": not res.diverged,
        "threshold": GRAMIAN_EIG_THRESHOLD,
        "observable": bool(not res.diverged
                           and res.min_eigenvalue > GRAMIAN_EIG_THRESHOLD),
    }
    print(json.dumps(report, indent=2))
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
    p.add_argument("--estimator", choices=_KINDS, default=None,
                   help="override the config's first estimator")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the estimate trajectory CSV here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="run a study sweep, write its CSV")
    common(p)
    p.add_argument("--sweep", required=True, choices=tuple(_SWEEPS))
    p.add_argument("--out", metavar="FILE", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes for sweep cells, this one included "
                        "(default 1; more than 1 needs the fork start "
                        "method)")
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
    if (getattr(args, "jobs", 1) > 1
            and "fork" not in multiprocessing.get_all_start_methods()):
        print("error: --jobs above 1 needs the fork start method, which "
              "this platform lacks", file=sys.stderr)
        return EXIT_CONFIG
    out = getattr(args, "out", None)
    if out is not None:
        # An unwritable --out fails now, not after the run; the probe
        # neither truncates a file nor leaves one behind.
        existed = os.path.exists(out)
        try:
            open(out, "a").close()
        except OSError as exc:
            print(f"error: cannot write --out {out} ({exc.strerror})",
                  file=sys.stderr)
            return EXIT_CONFIG
        if not existed:
            os.remove(out)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as exc:
        print(f"runtime error: simulation diverged ({exc})", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"runtime error: out of memory ({exc})", file=sys.stderr)
        return EXIT_RUNTIME
    except (ModelError, EstimatorError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # a failed write, such as to a closed pipe
        print(f"runtime error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # Point stdout at devnull, so that the flush at exit does not
            # fail once more on what is still buffered for the closed pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
