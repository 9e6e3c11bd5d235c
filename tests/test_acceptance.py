"""Release gate: ten acceptance criteria, one test per criterion, and a
table that pins criterion 7's errors.

Expensive artifacts (the 500-step reference truth, the ordering sweeps and
the timed estimator run) are computed once in module-scoped fixtures and
shared.  Each criterion prints a single [PASS]/[FAIL] line on the real
stdout so the gate status reads off directly even under output capture.
"""
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from qp_oracles import (
    brute_force_box_qp,
    direct_objective,
    random_buffer,
    random_small_qp,
)
from test_linearize import subcritical_states

import arzest.cli as cli
from arzest.linearize import linearize_measurement, linearize_model
from arzest.mhe import MheConfig, MheSession, assemble_qp, solve_box_qp
from arzest.model import (
    ModelParams,
    build_update_matrices,
    compute_fluxes,
    demand,
    flux_diverge,
    flux_merge,
    measure_h,
    nonlinear_f,
    sigma_crit,
    state_scale,
    supply,
)
from arzest.scenarios import (
    EstimatorSpec,
    default_scenario,
    generate_truth,
    run_estimation,
    sweep_noise,
    sweep_rotation,
    sweep_sensor_count,
    sweep_spacing,
)
from arzest.sensing import build_observation, observability_gramian
from conftest import random_states

ALL_KINDS = ("ekf", "ukf", "enkf", "mhe")


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _beats(better: float, worse: float) -> bool:
    """Strict ordering with at least 1% separation (a closer pair is a tie,
    and ties do not count)."""
    return better <= 0.99 * worse


@pytest.fixture(scope="module")
def paper_case():
    sc = default_scenario(
        t_f=500, noise_std=1.0,
        estimators=tuple(EstimatorSpec(k) for k in ALL_KINDS))
    return sc, generate_truth(sc)


@pytest.fixture(scope="module")
def ordering_rows(paper_case):
    sc, truth = paper_case
    jobs = min(4, os.cpu_count() or 1)
    return {
        "a": sweep_sensor_count(sc, counts=(0, 8), truth=truth, jobs=jobs),
        "b": sweep_rotation(replace(sc, estimators=(EstimatorSpec("mhe"),)),
                            periods=(1, None), truth=truth, jobs=jobs),
        "c": sweep_spacing(sc, configs=((1, 2, 3), (1, 4, 7)),
                           periods=(None,), truth=truth, jobs=jobs),
        "d": sweep_noise(sc, stds=(0.0, 40.0), truth=truth, jobs=jobs),
    }


@pytest.fixture(scope="module")
def mhe_timed(paper_case):
    sc, truth = paper_case
    t0 = time.perf_counter()
    res = run_estimation(sc, truth, EstimatorSpec("mhe"), seed=0)
    return res, time.perf_counter() - t0


def _row(rows, **keys):
    hits = [r for r in rows if all(r[k] == v for k, v in keys.items())]
    assert len(hits) == 1, f"expected one row for {keys}, got {len(hits)}"
    return hits[0]


def test_c01_conservation(paper_case):
    """Per-step vehicle balance on the 500-step reference run, plus exact
    junction flux identities on random draws."""
    sc, truth = paper_case
    params, topo = sc.params, sc.topo
    jam_sc = np.ones(topo.n_segments)
    jam_sc[sc.jam.segment - 1] = sc.jam.scale
    worst_step = 0.0
    for k in range(sc.t_f):
        active = sc.jam.start <= k < sc.jam.end
        fl = compute_fluxes(truth.traj[k], sc.inputs[k], topo, params,
                            ds_scale=jam_sc if active else None)
        veh0 = params.l * truth.traj[k, 0::2].sum()
        veh1 = params.l * truth.traj[k + 1, 0::2].sum()
        net = (fl.entry_q + fl.onramp_entry_q.sum()
               - fl.exit_q - fl.offramp_exit_q.sum())
        resid = abs(veh1 - veh0 - params.T * net) / max(1.0, veh0)
        worst_step = max(worst_step, resid)

    rng = np.random.default_rng(1001)
    worst_j = 0.0
    for _ in range(1000):
        rho = rng.uniform(1.0, 344.0, 3)
        w = rng.uniform(5.0, 102.0, 3)
        q_m, f_m, q_r, f_r, q_d, f_d = flux_merge(
            (rho[0], w[0]), (rho[1], w[1]), (rho[2], w[2]), params)
        worst_j = max(
            worst_j,
            abs(q_m + q_r - q_d) / max(1.0, abs(q_d)),
            abs(f_m + f_r - f_d) / max(1.0, abs(f_d)))
        alpha = rng.uniform(0.05, 0.95)
        q_u, f_u, q_o, f_o, q_dn, f_dn = flux_diverge(
            (rho[0], w[0]), (rho[1], w[1]), (rho[2], w[2]), alpha, params)
        worst_j = max(
            worst_j,
            abs(q_u - q_o - q_dn) / max(1.0, abs(q_u)),
            abs(f_u - f_o - f_dn) / max(1.0, abs(f_u)),
            abs(q_o - alpha * q_u) / max(1.0, abs(q_u)))
    ok = worst_step < 1e-9 and worst_j < 1e-12 and truth.clamp_events == 0
    _report(1, "conservation", ok,
            f"step residual {worst_step:.2e} (<1e-9), "
            f"junction identities {worst_j:.2e} (<1e-12), "
            f"clamps {truth.clamp_events}")


def test_c02_branch_continuity():
    """Sending/receiving flux continuous across the critical density on
    1000 random parameterizations."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        v_f = rng.uniform(60.0, 130.0)
        p = ModelParams(v_f=v_f,
                        rho_m=rng.uniform(200.0, 400.0),
                        tau=20.0,
                        gamma=rng.uniform(1.2, 2.5),
                        T=1.0 / 3600.0,
                        l=v_f / 3600.0 * 1.05)
        w = rng.uniform(0.05 * v_f, v_f)
        sig = sigma_crit(w, p)
        lo = np.nextafter(sig, 0.0)
        hi = np.nextafter(sig, np.inf)
        cap = demand(sig, w, p)
        for f in (demand, supply):
            jump = abs(f(lo, w, p) - f(hi, w, p))
            worst = max(worst, jump / max(1.0, cap))
    ok = worst < 1e-9
    _report(2, "branch continuity", ok,
            f"largest relative jump at the breakpoint {worst:.2e} (<1e-9)")


def test_c03_linearization(topo, params, paper_case):
    sc, _ = paper_case
    u0 = sc.inputs[0]
    rng = np.random.default_rng(1003)
    g = params.T / params.l
    A_up, _ = build_update_matrices(topo, params)
    C_all = build_observation(list(range(1, topo.n_segments + 1)), topo)

    worst_ex = 0.0
    for x0 in random_states(rng, topo, 100, rho_lo=5.0):
        lin = linearize_model(x0, u0, topo, params)
        aff = lin.A_tilde @ x0 + lin.B @ u0 + lin.c1
        exact = A_up @ x0 + g * nonlinear_f(x0, u0, topo, params)
        worst_ex = max(worst_ex, float(np.linalg.norm(aff - exact))
                       / max(1.0, float(np.linalg.norm(exact))))
        lm = linearize_measurement(x0, C_all, params)
        got = lm.C_tilde @ x0 + lm.c2
        want = C_all @ measure_h(x0, params)
        worst_ex = max(worst_ex, float(np.linalg.norm(got - want))
                       / max(1.0, float(np.linalg.norm(want))))

    checked, ratios = 0, []
    for x0 in subcritical_states(rng, topo, params, 80):
        lin = linearize_model(x0, u0, topo, params)
        if lin.branch_tie:
            continue
        delta = rng.standard_normal(topo.n_x)
        delta[0::2] *= 0.2
        delta[1::2] *= 0.2 * params.v_f

        def err(d):
            x = x0 + d
            aff = lin.A_tilde @ x + lin.B @ u0 + lin.c1
            exact = A_up @ x + g * nonlinear_f(x, u0, topo, params)
            return float(np.linalg.norm(aff - exact))

        e1, e2 = err(delta), err(0.5 * delta)
        if e1 < 1e-10:
            continue
        ratios.append(e2 / e1)
        checked += 1

    worst_H = 0.0
    for x0 in random_states(rng, topo, 30, rho_lo=5.0):
        lm = linearize_measurement(x0, C_all, params)
        fd = np.empty_like(lm.C_tilde)
        for i in range(x0.size):
            h = max(1e-6 * abs(x0[i]), 1e-6)
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (C_all @ measure_h(xp, params)
                        - C_all @ measure_h(xm, params)) / (2 * h)
        worst_H = max(worst_H, float(np.max(np.abs(lm.C_tilde - fd)))
                      / max(1.0, float(np.max(np.abs(fd)))))

    ok = (worst_ex < 1e-9 and checked >= 30
          and all(0.15 <= r <= 0.45 for r in ratios) and worst_H < 1e-6)
    _report(3, "linearization", ok,
            f"exactness {worst_ex:.2e} (<1e-9), remainder ratio "
            f"[{min(ratios):.3f},{max(ratios):.3f}] in [0.15,0.45] over "
            f"{checked} states, measurement Jacobian {worst_H:.2e} (<1e-6)")


def test_c04_qp_suite():
    worst_rel, min_eig, worst_kkt = 0.0, np.inf, 0.0
    n_solved = n_converged = 0
    for horizon in range(1, 7):
        rng = np.random.default_rng(1100 + horizon)
        cfg = MheConfig(horizon=horizon)
        for _ in range(20):
            n_steps = int(rng.integers(1, horizon + 3))
            buf = random_buffer(rng, horizon, n_steps)
            x_bar = rng.standard_normal(6)
            lo, hi = np.full(6, -10.0), np.full(6, 10.0)
            qp = assemble_qp(buf, x_bar, cfg, lo, hi)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(qp.H)[0]))
            for _ in range(3):
                z = rng.uniform(-3.0, 3.0, qp.n_blocks * qp.n_x)
                quad = float(z @ qp.H @ z + qp.q @ z) + qp.const
                direct = direct_objective(buf, x_bar, cfg,
                                          z.reshape(qp.n_blocks, qp.n_x))
                worst_rel = max(worst_rel,
                                abs(quad - direct) / max(1.0, abs(direct)))
            _, info = solve_box_qp(qp)
            n_solved += 1
            if info.converged:
                n_converged += 1
                worst_kkt = max(worst_kkt, info.kkt_residual)

    worst_bf = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng(1200 + n)
        for _ in range(10):
            qp = random_small_qp(rng, n)
            _, f_star = brute_force_box_qp(qp.H, qp.q, qp.z_min, qp.z_max)
            z, info = solve_box_qp(qp, tol_kkt=1e-10, max_iter=20000)
            f = float(z @ qp.H @ z + qp.q @ z)
            worst_bf = max(worst_bf, abs(f - f_star) / (1.0 + abs(f_star)))

    ok = (worst_rel < 1e-8 and min_eig > 0.0 and worst_kkt < 1e-8
          and n_converged == n_solved and worst_bf <= 1e-6)
    _report(4, "QP suite", ok,
            f"objective identity {worst_rel:.2e} (<1e-8), H min eig "
            f"{min_eig:.2e} (>0), KKT {worst_kkt:.2e} on "
            f"{n_converged}/{n_solved} converged, brute-force gap "
            f"{worst_bf:.2e} (<=1e-6)")


def test_c05_exact_model_recovery(paper_case):
    """With a frozen affine truth and noiseless full-state measurements the
    windowed estimator reproduces the trajectory to solver tolerance."""
    sc, truth = paper_case
    topo, params = sc.topo, sc.params
    x_eq = truth.traj[0]
    u = sc.inputs[0]
    lin = linearize_model(x_eq, u, topo, params)
    C_sel = build_observation(list(range(1, topo.n_segments + 1)), topo)
    lm = linearize_measurement(x_eq, C_sel, params)
    cfg = MheConfig()

    def affine_step(x):
        return lin.A_tilde @ x + lin.B @ u + lin.c1

    sess = MheSession(x_eq.copy(), cfg, topo, params)
    sess.linearize = lambda x, u_, x_prev, C: (lin, lm, affine_step(x_prev))
    x = x_eq.copy()
    errs = []
    for _ in range(30):
        x = affine_step(x)
        y = lm.C_tilde @ x + lm.c2
        x_hat = sess.step(u, y, C_sel)
        errs.append(float(np.max(np.abs(x_hat - x))))
    worst = max(errs[cfg.horizon:])
    ok = worst < 1e-6 and sess.failed_solves == 0
    _report(5, "exact-model recovery", ok,
            f"worst error after the first {cfg.horizon} steps "
            f"{worst:.2e} (<1e-6)")


def test_c06_observability(paper_case):
    """The minimum sensor set certifies observability; removing the last
    mainline sensor breaks it."""
    sc, truth = paper_case
    topo, params = sc.topo, sc.params
    x0, u0 = truth.traj[0], sc.inputs[0]
    lin = linearize_model(x0, u0, topo, params)
    d = state_scale(topo, params)
    A_s = lin.A_tilde * (d[None, :] / d[:, None])

    def min_eig(segments):
        C_sel = build_observation(segments, topo)
        lm = linearize_measurement(x0, C_sel, params)
        res = observability_gramian(A_s, lm.C_tilde * d[None, :], terms=200)
        assert not res.diverged
        return res.min_eigenvalue

    full = min_eig([9, 10, 11, 12])
    dropped = min_eig([10, 11, 12])
    ok = full > 1e-9 and dropped <= 1e-9
    _report(6, "observability", ok,
            f"min set eig {full:.2e} (>1e-9), without last mainline "
            f"{dropped:.2e} (<=1e-9)")


def test_c07_estimator_orderings(ordering_rows):
    """Four orderings on 5-seed averaged errors; pairs closer than 1% are
    ties and count against the ordering.  A violated pair is reported with
    the RMSE that should be lower first."""
    rows = ordering_rows
    fails = []

    def check(label, better, worse, metric="rmse_rho"):
        if not _beats(better[metric], worse[metric]):
            fails.append(f"{label} {metric} {better[metric]:.3f} vs "
                         f"{worse[metric]:.3f}")

    for kind in ALL_KINDS:
        full = _row(rows["a"], estimator=kind, knob=8)
        mins = _row(rows["a"], estimator=kind, knob=0)
        check(f"a:{kind}", full, mins)
        check(f"a:{kind}", full, mins, "rmse_v")
    check("b", _row(rows["b"], knob=1), _row(rows["b"], knob="inf"))
    check("c", _row(rows["c"], knob="1-4-7@inf"),
          _row(rows["c"], knob="1-2-3@inf"))
    for kind in ALL_KINDS:
        check(f"d:{kind}", _row(rows["d"], estimator=kind, knob=0.0),
              _row(rows["d"], estimator=kind, knob=40.0))
    ok = not fails
    _report(7, "estimator orderings", ok,
            "all four orderings hold with >1% separation" if ok
            else f"violated: {'; '.join(fails)}")


# The criterion-7 rows at noise 0 and 1 (5 seeds): (sweep, estimator,
# knob) -> (rmse_rho veh/km, rmse_v km/h, flags), as the tree read them
# when the table was made.
PINNED_ROWS = {
    ("a", "ekf", 0): (58.9954, 21.1019, ""),
    ("a", "ukf", 0): (44.0195, 15.9081, ""),
    ("a", "enkf", 0): (59.6894, 20.9219, ""),
    ("a", "mhe", 0): (97.4732, 33.6242, ""),
    ("a", "ekf", 8): (3.56630, 2.89963, ""),
    ("a", "ukf", 8): (3.47071, 3.80679, ""),
    ("a", "enkf", 8): (3.96098, 3.66017, ""),
    ("a", "mhe", 8): (3.57639, 2.94626, ""),
    ("b", "mhe", 1): (6.86845, 4.35443, ""),
    ("b", "mhe", "inf"): (27.5744, 11.7592, ""),
    ("c", "mhe", "1-2-3@inf"): (68.8085, 23.6886, ""),
    ("c", "mhe", "1-4-7@inf"): (23.5370, 10.8671, ""),
    ("d", "ekf", 0.0): (20.4235, 7.82830, ""),
    ("d", "ukf", 0.0): (18.6340, 7.50504, ""),
    ("d", "enkf", 0.0): (22.0584, 8.55516, "jitter=1|jitter=3"),
    ("d", "mhe", 0.0): (26.5191, 9.77380, ""),
}


def test_c07_errors_stay_within_one_percent_of_the_pinned_rows(
        ordering_rows):
    """Criterion 7 orders the estimators; this bounds their errors.  Each
    row at noise 0 or 1 reads at most 1.01 times its pinned RMSEs, with the
    pinned flags.  A one-ulp change of the truth moves the noise-40 rows by
    up to 8% in rmse_rho and 18% in rmse_v, so they are only required to be
    finite."""
    fails = []
    for (sweep, kind, knob), (rho, v, flags) in PINNED_ROWS.items():
        row = _row(ordering_rows[sweep], estimator=kind, knob=knob)
        for metric, pinned in (("rmse_rho", rho), ("rmse_v", v)):
            if not row[metric] <= 1.01 * pinned:
                fails.append(f"{sweep}:{kind}@{knob} {metric} "
                             f"{row[metric]:.4f} > 1.01 x {pinned}")
        if row["flags"] != flags:
            fails.append(f"{sweep}:{kind}@{knob} flags {row['flags']!r} "
                         f"!= {flags!r}")
    for kind in ALL_KINDS:
        row = _row(ordering_rows["d"], estimator=kind, knob=40.0)
        if not (math.isfinite(row["rmse_rho"])
                and math.isfinite(row["rmse_v"])):
            fails.append(f"d:{kind}@40.0 is not finite")
    assert not fails, "; ".join(fails)


def test_c08_bounds(ordering_rows, mhe_timed):
    """No estimate anywhere in the acceptance runs leaves the physical box."""
    out_of_bounds = [
        f"{r['sweep']}/{r['estimator']}/{r['knob']}"
        for rows in ordering_rows.values() for r in rows
        if "bounds" in r["flags"]
    ]
    res, _ = mhe_timed
    if not res.within_bounds:
        out_of_bounds.append("timed run")
    ok = not out_of_bounds
    _report(8, "bounds", ok,
            "all estimates within the physical box" if ok
            else f"violations: {', '.join(out_of_bounds)}")


def test_c09_performance(mhe_timed):
    res, wall = mhe_timed
    ok = res.mean_step_time_s < 0.5 and wall < 120.0
    _report(9, "performance", ok,
            f"windowed estimator {res.mean_step_time_s * 1e3:.1f} ms/step "
            f"(<500), 500-step run {wall:.1f} s (<120)")


def test_c10_determinism(tmp_path, capsys):
    """Same config and seed give byte-identical trajectory CSVs; sweep CSVs
    are identical in every value column (the wall-clock timing column is
    measured, not computed, and is excluded from the comparison)."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["estimate", "--seed", "1", "--out", str(a)]) == 0
    assert cli.main(["estimate", "--seed", "1", "--out", str(b)]) == 0
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert cli.main(["simulate", "--out", str(t1)]) == 0
    assert cli.main(["simulate", "--out", str(t2)]) == 0
    capsys.readouterr()
    ok_traj = (a.read_bytes() == b.read_bytes()
               and t1.read_bytes() == t2.read_bytes())

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration_s": 60, "estimators": ["ekf"],
                               "seeds": [0, 1]}), encoding="utf-8")
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        assert cli.main(["sweep", "--config", str(cfg), "--sweep", "noise",
                         "--out", str(out)]) == 0

    def masked(path):
        import csv as _csv
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(_csv.reader(fh))
        t_col = rows[0].index("mean_step_time_s")
        for r in rows[1:]:
            r[t_col] = ""
        return rows

    ok_sweep = masked(s1) == masked(s2)
    ok = ok_traj and ok_sweep
    _report(10, "determinism", ok,
            f"trajectory CSVs byte-identical: {ok_traj}, sweep value "
            f"columns identical: {ok_sweep}")
