"""Benchmark of the arzest estimators: latency, throughput and accuracy.

    python3 perfbench/run.py --workload ref-mhe --seed 0 --seconds 15 --trace 0

Runs whole rounds of one workload (see ``workloads.py``) until ``--seconds``
have passed, checks every output, and prints the end-to-end metrics, or
with ``--trace 1`` one more round with every layer traced and the per-layer
metrics.  The last line of standard output is the result as one JSON
object; the full record, with the environment, goes to
``perfbench/out/<workload>-seed<n>-trace<t>-<time>-<pid>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6


def import_program():
    """Import arzest from this checkout's sources, never from elsewhere."""
    if not (SRC / "arzest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arzest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arzest
    if Path(arzest.__file__).resolve().parent != SRC / "arzest":
        sys.exit(f"perfbench: imported arzest from {arzest.__file__}")
    return arzest


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for result files")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    return ap.parse_args(argv)


# -- environment -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "arzest").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads,  # all None: the library's default
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- running ---------------------------------------------------------------

def run_round(wl, sc, truth, seed, recorder, jobs) -> dict:
    """One round: the workload's estimator runs in turn, or one sweep_noise
    call."""
    from arzest import scenarios
    import workloads
    n0 = len(recorder.records)
    rows, error = None, None
    t0 = time.perf_counter()
    try:
        if wl.pooled:
            rows = scenarios.sweep_noise(sc, stds=workloads.SWEEP_STDS,
                                         truth=truth, jobs=jobs)
        else:
            for spec, run_seed in workloads.round_runs(sc, seed):
                scenarios.run_estimation(sc, truth, spec, run_seed)
    except Exception:  # counted as failed steps; the run goes on
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall = time.perf_counter() - t0
    if wl.pooled:
        recorder.collect_spool()
    return {"wall_s": wall, "records": recorder.records[n0:], "rows": rows,
            "error": error}


def measure_setup(workload: str, tiny: bool, repeats: int) -> list[list[float]]:
    """Process start to the end of the first estimator step, in fresh
    processes: [wall seconds, the probe's kernel time] per process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    if tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
            code = proc.wait()
        if line.strip() != "ready" or code != 0 or len(rest) != 1:
            raise RuntimeError(f"setup probe exited {code}: {line!r}")
        samples.append([elapsed, float(rest[0])])
    return samples


def scaled_wall(rnd, extra_s: float = 0.0) -> float:
    """A round's wall time without the kernel samples (and ``extra_s``),
    rescaled to the reference host speed by the step-weighted kernel time
    (see ``calibrate.py``).  In a sweep the worker with the most step time
    sets the wall time, so its own kernel samples rescale it."""
    busy = defaultdict(lambda: [0.0, 0.0, 0.0])  # pid -> work, scaled, kernel
    for r in rnd["records"]:
        if "work_s" in r:
            b = busy[r["pid"]]
            b[0] += r["work_s"]
            b[1] += r["scaled_s"]
            b[2] += r["kernel_s"]
    if not busy:
        return rnd["wall_s"]
    work, scaled, kernel = max(busy.values(), key=lambda b: b[0] + b[2])
    return (rnd["wall_s"] - kernel - extra_s) * scaled / work


def peak_rss_mb(rounds) -> float:
    """Peak RSS of this process plus the largest sum, over the rounds, of
    the peaks of one sweep's workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = 0
    for rnd in rounds:
        workers = {}
        for rec in rnd["records"]:
            if rec["pid"] != os.getpid():
                workers[rec["pid"]] = max(workers.get(rec["pid"], 0),
                                          rec["maxrss_kb"])
        pool = max(pool, sum(workers.values()))
    return (own + pool) / 1024.0


# -- evaluation --------------------------------------------------------------

def evaluate(rounds, wl, sc, truth, open_loop_rmse, lo, hi, run_dir,
             expected_runs) -> tuple[int, int, list[str]]:
    """Attempted and failed steps over all rounds, plus check violations."""
    from arzest import scenarios
    import checks
    attempted = failed = 0
    violations = []
    first = None
    for i, rnd in enumerate(rounds):
        attempted += expected_runs * sc.t_f
        ok_steps = 0
        for rec in rnd["records"]:
            bad = checks.failed_steps(rec, lo, hi)
            if "error" not in rec:
                ok_steps += rec["t_f"] - len(bad)
            violations += checks.check_run(rec, truth.traj, open_loop_rmse)
        failed += expected_runs * sc.t_f - ok_steps
        if rnd["error"] is None and len(rnd["records"]) != expected_runs:
            violations.append(f"round {i}: {len(rnd['records'])} runs "
                              f"recorded, {expected_runs} expected")
        if wl.pooled and rnd["rows"] is not None:
            path = run_dir / f"sweep-round{i}.csv"
            scenarios.write_sweep_csv(rnd["rows"], str(path))
            violations += checks.check_sweep(rnd["rows"], rnd["records"], path)
        # Rounds repeat the same inputs, so they must repeat the results.
        accuracy = sorted((r["kind"], r["noise_std"], r.get("rmse_rho"))
                          for r in rnd["records"])
        if first is None:
            first = accuracy
        elif accuracy != first:
            violations.append(f"round {i}: rmse_rho differs from round 0")
    return attempted, failed, violations


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _records(rounds):
    return [rec for rnd in rounds for rec in rnd["records"]]


def end_to_end_metrics(rounds, setup, rss_mb) -> tuple[dict, list[str]]:
    accuracy = defaultdict(list)
    for rec in _records(rounds):
        if "rmse_rho" in rec:
            accuracy[rec["kind"]].append(rec["rmse_rho"])
    if not accuracy:
        return {}, ["no estimator run completed"]
    steps = sum(len(r.get("times", ())) for r in _records(rounds))
    wall = sum(scaled_wall(rnd) for rnd in rounds)
    return {
        "setup_s": _metric(statistics.median(
            t * calibrate.REF_S / c for t, c in setup), "s"),
        "estimator_steps_per_s": _metric(steps / wall, "steps/s"),
        "rmse_rho": _metric(statistics.fmean(
            statistics.fmean(v) for v in accuracy.values()), "veh/km"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }, []


def estimator_summary(rounds) -> dict:
    """Per-estimator step latency and accuracy, kept in the result file.

    A percentile is given only where at least ten samples lie beyond it.
    """
    out = {}
    records = _records(rounds)
    for kind in sorted({r["kind"] for r in records}):
        recs = [r for r in records if r["kind"] == kind]
        times = sorted(t for r in recs for t in r.get("times", ()))
        if not times:
            continue
        row = {"steps": len(times),
               "step_ms_mean": 1e3 * statistics.fmean(times),
               "step_ms_p50": 1e3 * statistics.median(times),
               "rmse_rho": statistics.fmean(r["rmse_rho"] for r in recs
                                            if "rmse_rho" in r)}
        if len(times) >= 1000:
            row["step_ms_p99"] = 1e3 * statistics.quantiles(times, n=100)[98]
        out[kind] = row
    return out


def _span_stats(spans) -> dict:
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                 "counters": []})
    for i, (name, t0, t1, parent, counters) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["total"] += t1 - t0
        st["self"] += t1 - t0 - child[i]
        if counters:
            st["counters"].append(counters)
    return stats


def per_layer_metrics(spans, traced_round, untraced_rounds, wl,
                      jobs) -> tuple[dict, dict]:
    from instrument import CHECK_SPAN
    st = _span_stats(spans)

    def calls(name):
        return st[name]["calls"] if name in st else 0

    def us(name, key="total"):
        return 1e6 * st[name][key] / st[name]["calls"] if calls(name) else 0.0

    def counts(name, key):
        return [c[key] for c in st[name]["counters"]] if name in st else []

    steps = sum(len(r.get("times", ())) for r in traced_round["records"])
    run_spans = [s for s in spans if s[0] == "scenarios.run_estimation"]
    sweep = [s for s in spans if s[0] == "scenarios.sweep_noise"]
    busy = sum(s[2] - s[1] for s in run_spans)
    iters = counts("mhe.solve_box_qp", "iters")
    iters_total = sum(iters)
    qp_total_us = 1e6 * st["mhe.solve_box_qp"]["total"] if iters else 0.0
    check_s = st[CHECK_SPAN]["total"] if CHECK_SPAN in st else 0.0
    # Checks run in the traced round but are not tracing cost; in a sweep
    # they ran in parallel on the workers.
    traced_wall = scaled_wall(traced_round,
                              check_s / (jobs if wl.pooled else 1))
    untraced_steps = sum(len(r.get("times", ())) for rnd in untraced_rounds
                         for r in rnd["records"])
    untraced_rate = untraced_steps / sum(
        scaled_wall(r) for r in untraced_rounds)

    values = {
        "scenarios.generate_truth.ms": (1e-3 * us("scenarios.generate_truth"), "ms"),
        "scenarios.run_estimation.self_ms_per_step": (
            1e3 * st["scenarios.run_estimation"]["self"] / steps if steps else 0.0, "ms"),
        "scenarios.sweep.busy_share": (
            busy / ((sweep[0][2] - sweep[0][1]) * jobs) if sweep else 0.0, "share"),
        "scenarios.sweep.slowest_cell_s": (
            max(s[2] - s[1] for s in run_spans) if sweep else 0.0, "s"),
        "sensing.positions_at.us": (us("sensing.positions_at"), "us"),
        "sensing.build_observation.us": (us("sensing.build_observation"), "us"),
        "model.step.calls": (calls("model.step"), "count"),
        "model.step.us": (us("model.step"), "us"),
        "model.step_batch.calls": (calls("model.step_batch"), "count"),
        "model.step_batch.rows": (sum(counts("model.step_batch", "rows")), "count"),
        "model.step_batch.us": (us("model.step_batch"), "us"),
        "linearize.linearize_model.calls": (calls("linearize.linearize_model"), "count"),
        "linearize.linearize_model.us": (us("linearize.linearize_model"), "us"),
        "linearize.linearize_measurement.us": (us("linearize.linearize_measurement"), "us"),
        "mhe.solve_box_qp.calls": (calls("mhe.solve_box_qp"), "count"),
        "mhe.solve_box_qp.us": (us("mhe.solve_box_qp"), "us"),
        "mhe.solve_box_qp.us_per_iter": (
            qp_total_us / iters_total if iters_total else 0.0, "us"),
        "mhe.solve_box_qp.iters_total": (iters_total, "count"),
        "mhe.solve_box_qp.iters_p50": (statistics.median(iters) if iters else 0, "count"),
        "mhe.solve_box_qp.iters_max": (max(iters, default=0), "count"),
        "mhe.solve_box_qp.restarts_total": (sum(counts("mhe.solve_box_qp", "restarts")), "count"),
        "mhe.solve_box_qp.unconverged": (
            sum(not c for c in counts("mhe.solve_box_qp", "converged")), "count"),
        "mhe.assemble_qp.us": (us("mhe.assemble_qp"), "us"),
        "mhe.assemble_qp.n_z": (max(counts("mhe.assemble_qp", "n_z"), default=0), "count"),
        "mhe.MheSession.step.self_us": (us("mhe.MheSession.step", "self"), "us"),
        "kalman.ekf_step.self_us": (us("kalman.ekf_step", "self"), "us"),
        "kalman.ukf_step.self_us": (us("kalman.ukf_step", "self"), "us"),
        "kalman.enkf_step.self_us": (us("kalman.enkf_step", "self"), "us"),
        "kalman.jitter_events": (
            sum(r.get("jitter_events", 0) for r in traced_round["records"]), "count"),
        "tracing.overhead_steps_per_s": (steps / traced_wall - untraced_rate, "steps/s"),
    }
    metrics = {k: _metric(v, u) for k, (v, u) in values.items()}
    layers = {k: {"calls": v["calls"], "total_s": v["total"], "self_s": v["self"]}
              for k, v in st.items()}
    layers["qp_direct_compared"] = sum(counts(CHECK_SPAN, "qp_direct_compared"))
    return metrics, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    az = import_program()
    from arzest import model, scenarios
    import checks
    import workloads
    from instrument import Recorder

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    out_dir = Path(args.out)
    run_dir = out_dir / tag
    spool = run_dir / "spool"
    spool.mkdir(parents=True, exist_ok=True)

    sc = workloads.build_scenario(args.workload, args.tiny)
    truth = scenarios.generate_truth(sc)
    lo, hi = az.state_bounds(sc.topo, sc.params)
    open_loop = checks.density_rmse(
        truth.traj, checks.open_loop_traj(sc, truth, model.step))
    jobs = workloads.sweep_jobs()
    expected_runs = workloads.runs_per_round(sc, args.workload)

    # Set-up is timed around the rounds, so that its samples span the run.
    setup_times = []
    if not args.trace:
        setup_times += measure_setup(args.workload, args.tiny, SETUP_REPEATS // 2)

    recorder = Recorder(spool)
    recorder.install()
    rounds = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        rounds.append(run_round(wl, sc, truth, args.seed, recorder, jobs))

    traced = None
    if args.trace:
        tracer = recorder.install_tracing()
        again = scenarios.generate_truth(sc)
        if not (again.traj == truth.traj).all():
            recorder.violations.append("generate_truth is not repeatable")
        traced = run_round(wl, sc, truth, args.seed, recorder, jobs)
    rss = peak_rss_mb(rounds)

    all_rounds = rounds + ([traced] if traced else [])
    attempted, failed, violations = evaluate(
        all_rounds, wl, sc, truth, open_loop, lo, hi, run_dir, expected_runs)
    violations += recorder.violations

    layers = None
    if args.trace:
        metrics, layers = per_layer_metrics(tracer.spans, traced, rounds, wl, jobs)
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    else:
        setup_times += measure_setup(args.workload, args.tiny,
                                     SETUP_REPEATS - len(setup_times))
        metrics, missing = end_to_end_metrics(rounds, setup_times, rss)
        violations += missing
    spool.rmdir()

    result = {"correct": not violations, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": environment(),
        "open_loop_rmse_rho": open_loop,
        "rounds": [{"wall_s": r["wall_s"],
                    "scaled_wall_s": scaled_wall(r),
                    "runs": len(r["records"]), "error": r["error"]}
                   for r in all_rounds],
        "runs": [{k: r.get(k) for k in ("kind", "noise_std", "seed",
                                        "rmse_rho", "failed_solves",
                                        "jitter_events", "unconverged")}
                 for r in all_rounds[0]["records"]],
        "estimators": estimator_summary(rounds),
        "setup_samples_s_kernel_s": setup_times, "layers": layers,
        "wall_steps_per_s": (
            sum(len(r.get("times", ())) for r in _records(rounds))
            / sum(r["wall_s"] for r in rounds)),
        "violations": violations, "result": result,
    }
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for v in violations:
        print(f"CHECK FAILED: {v}", file=sys.stderr)
    print(f"{args.workload}: {attempted} steps attempted, {failed} failed, "
          f"{len(all_rounds)} rounds, checks {'pass' if not violations else 'FAIL'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
