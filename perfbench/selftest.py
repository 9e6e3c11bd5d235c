"""Self-test of the benchmark: every workload at a tiny size, the output
schema, each correctness check on a corrupted output, the compare verdicts,
the host-speed rescaling, and the refusal to run without the program's sources.

    python3 perfbench/selftest.py

Takes about two minutes on two cores; exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import arzest as az  # noqa: E402
from arzest import scenarios  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from instrument import Recorder  # noqa: E402

OUT = HERE / "out" / "selftest"


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny",
           "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 "
           f"({proc.stderr.strip()[-300:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result: dict, declared: list[dict], what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys")
    expect(result["correct"] is True, f"{what}: checks pass")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int), f"{what}: step counts")
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    expect(set(got) == set(units), f"{what}: metric names match BENCHMARK.json")
    expect(all(got[n]["unit"] == u for n, u in units.items()),
           f"{what}: metric units match")
    expect(all(isinstance(m["value"], float) and math.isfinite(m["value"])
               for m in got.values()), f"{what}: metric values are finite")


def test_workloads(bench: dict) -> None:
    for wl in bench["workloads"]:
        name = wl["name"]
        r0 = run_bench(name, 0)
        check_schema(r0, bench["end_to_end"], f"{name} trace=0")
        r1 = run_bench(name, 1)
        check_schema(r1, bench["per_layer"], f"{name} trace=1")
        expect(r0["failed"] * r1["attempted"] == r1["failed"] * r0["attempted"],
               f"{name}: failed share equal in both modes")


def sample_records():
    """One real MHE run and one real EKF run on the tiny twin."""
    sc = workloads.reference_scenario(tiny=True)
    truth = az.generate_truth(sc)
    rec = Recorder(OUT)
    rec.install()
    for kind in ("mhe", "ekf"):
        scenarios.run_estimation(sc, truth, az.EstimatorSpec(kind), 0)
    ol = checks.density_rmse(truth.traj,
                             checks.open_loop_traj(sc, truth, az.step))
    return sc, truth, ol, rec.records


def test_run_checks() -> None:
    sc, truth, ol, (mhe_rec, ekf_rec) = sample_records()
    lo, hi = az.state_bounds(sc.topo, sc.params)
    for rec in (mhe_rec, ekf_rec):
        expect(checks.check_run(rec, truth.traj, ol) == []
               and not checks.failed_steps(rec, lo, hi),
               f"{rec['kind']}: a real run passes")

    def corrupt(**kw):
        return {**ekf_rec, **kw}

    est = ekf_rec["est"].copy()
    est[3, 0] = hi[0] + 1.0
    expect(checks.failed_steps(corrupt(est=est), lo, hi) == {3},
           "an estimate pushed out of the box fails its step")
    est = ekf_rec["est"].copy()
    est[5, 1] = np.nan
    expect(checks.failed_steps(corrupt(est=est), lo, hi) == {5},
           "a non-finite estimate fails its step")
    expect(checks.failed_steps({**mhe_rec, "unconverged": [7]}, lo, hi) == {7},
           "an unconverged MHE solve fails its step")
    expect(len(checks.failed_steps(corrupt(error="boom"), lo, hi)) == sc.t_f,
           "a run that raised fails all its steps")
    bad = corrupt(rmse_rho=ekf_rec["rmse_rho"] * 1.01)
    expect(any("gives" in v for v in checks.check_run(bad, truth.traj, ol)),
           "an RMSE off by 1% is caught")
    expect(any("open-loop" in v for v in
               checks.check_run(ekf_rec, truth.traj, ekf_rec["rmse_rho"])),
           "a run no better than open loop is caught")
    expect(checks.check_run(corrupt(times=ekf_rec["times"][:-1]), truth.traj, ol),
           "a run cut short is caught")
    expect(checks.check_run({**mhe_rec, "failed_solves": 1}, truth.traj, ol),
           "a failed-solve count that disagrees is caught")


def test_sweep_checks() -> None:
    rows = [{"scenario_id": "s", "sweep": "noise", "estimator": k, "knob": s,
             "rmse_rho": r, "rmse_v": 1.0, "mean_step_time_s": 0.1,
             "flags": ""}
            for k, s, r in (("ekf", 40.0, 50.5), ("ekf", 0.0, 20.25))]
    records = [{"kind": r["estimator"], "noise_std": r["knob"],
                "rmse_rho": r["rmse_rho"]} for r in rows]
    path = OUT / "selftest-sweep.csv"
    scenarios.write_sweep_csv(rows, str(path))
    expect(checks.check_sweep(rows, records, path) == [], "a real sweep passes")
    swapped = [{**rows[0], "rmse_rho": 10.0}, rows[1]]
    scenarios.write_sweep_csv(swapped, str(path))
    swapped_recs = [{**records[0], "rmse_rho": 10.0}, records[1]]
    expect(any("rise" in v for v in checks.check_sweep(swapped, swapped_recs, path)),
           "noise-0 RMSE above noise-40 is caught")
    scenarios.write_sweep_csv(rows, str(path))
    text = path.read_text(encoding="utf-8").replace("20.25", "20.26")
    path.write_text(text, encoding="utf-8")
    expect(any("CSV" in v for v in checks.check_sweep(rows, records, path)),
           "a CSV that reads back differently is caught")
    scenarios.write_sweep_csv(rows, str(path))
    off = [{**records[0], "rmse_rho": 50.6}, records[1]]
    expect(any("its run" in v for v in checks.check_sweep(rows, off, path)),
           "a sweep row that disagrees with its run is caught")


def test_solver_checks() -> None:
    rng = np.random.default_rng(0)
    n = 12
    M = rng.standard_normal((n, n))
    H = M @ M.T + n * np.eye(n)
    q = rng.standard_normal(n)
    qp = az.QPProblem(H, q, -10 * np.ones(n), 10 * np.ones(n), 0.0, 1, n)
    z, info = az.solve_box_qp(qp, 1e-8, 5000, None)
    found, counts = checks.check_qp_solve(qp, 1e-8, None, z, info)
    expect(found == [] and counts["qp_direct_compared"] == 1,
           "a real solve passes, compared with the direct solve")
    out = z.copy()
    out[0] = 11.0
    expect(any("box" in v for v in checks.check_qp_solve(qp, 1e-8, None, out, info)[0]),
           "a solve result out of the box is caught")
    start = np.linalg.solve(2 * H, -q)
    worse = start + 0.5
    expect(any("warm start" in v for v in
               checks.check_qp_solve(qp, 1e-8, start, worse, info)[0]),
           "an objective above the warm start is caught")
    near = z + 1e-4
    expect(any("direct" in v for v in checks.check_qp_solve(qp, 1e-8, None, near, info)[0]),
           "an objective short of the direct solve's is caught")
    P = np.eye(4)
    expect(checks.check_covariance(P, "P")[0] == [], "an identity covariance passes")
    P_asym = P.copy()
    P_asym[0, 1] = 1e-6
    expect(checks.check_covariance(P_asym, "P")[0], "an asymmetric covariance is caught")
    expect(checks.check_covariance(np.diag([1.0, -0.1, 1.0, 1.0]), "P")[0],
           "an indefinite covariance is caught")


def test_compare() -> None:
    pairs = list(zip([10.0] * 10, [10.1] * 10))
    v = compare.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], pairs, 0.05, True)
    expect(v["verdict"] == "regression", "compare: a 20% slowdown is a regression")
    v = compare.verdict([10.0, 13.0, 7.0], [10.0, 10.1, 9.9], pairs, 0.05, True)
    expect(v["verdict"] == "unresolved", "compare: a spread wider than the bound is unresolved")
    better = list(zip([10.0] * 10, [5.0] * 10))
    v = compare.verdict([10.0, 10.1, 9.9], [5.0, 5.1, 4.9], better, 0.05, True)
    expect(v["verdict"] == "gain", "compare: a halved latency is a gain")
    v = compare.verdict([10.0, 10.1, 9.9], [10.0, 10.1, 9.9], pairs, 0.05, True)
    expect(v["verdict"] == "unchanged", "compare: the same figures are unchanged")


def test_scaling() -> None:
    rnd = {"wall_s": 3.0, "records": [
        {"pid": 1, "work_s": 1.0, "scaled_s": 1.0, "kernel_s": 0.1},
        {"pid": 1, "work_s": 1.0, "scaled_s": 2.0, "kernel_s": 0.4}]}
    expect(math.isclose(run.scaled_wall(rnd), 3.75),
           "scaling: the kernel's time is taken out, the rest rescaled")
    rnd["records"].append({"pid": 2, "work_s": 1.0, "scaled_s": 9.0,
                           "kernel_s": 0.1})
    expect(math.isclose(run.scaled_wall(rnd), 3.75),
           "scaling: in a sweep the busiest worker's samples rescale it")
    meter = calibrate.Meter()
    meter.add(0.5 * calibrate.EVERY_S)
    expect(not meter.due, "scaling: no kernel sample before EVERY_S of steps")
    meter.add(0.5 * calibrate.EVERY_S)
    meter.sample()
    expect(meter.samples == 1 and meter.pending_s == 0 and meter.scaled_s > 0
           and meter.work_s == calibrate.EVERY_S,
           "scaling: a sample rescales the pending step time")


def test_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ref", "--seed",
             "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the program's sources it exits non-zero, printing no result")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    test_run_checks()
    test_sweep_checks()
    test_solver_checks()
    test_compare()
    test_scaling()
    test_refuses_without_program()
    test_workloads(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()
