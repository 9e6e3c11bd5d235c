"""Correctness checks on what the program returned.

Each check returns a list of violations (empty when it holds), so the
self-test can feed it a corrupted output and see it fire.
"""
from __future__ import annotations

import csv

import numpy as np

RMSE_REL_TOL = 1e-12
CSV_REL_TOL = 5e-9  # the sweep CSV keeps 9 significant digits
PSD_REL_TOL = 1e-9


def density_rmse(truth_traj, est_traj) -> float:
    """Density RMSE over all segments and steps 1..t_f."""
    d = np.asarray(est_traj)[1:, 0::2] - np.asarray(truth_traj)[1:, 0::2]
    return float(np.sqrt(np.mean(d ** 2)))


def open_loop_traj(sc, truth, step) -> np.ndarray:
    """The nominal model stepped from the true x0 with no measurements
    (and no knowledge of the jam)."""
    x = truth.traj[0].copy()
    traj = [x]
    for k in range(sc.t_f):
        x = step(x, sc.inputs[k], sc.topo, sc.params)
        traj.append(x)
    return np.asarray(traj)


def failed_steps(rec: dict, lo, hi) -> set[int]:
    """1-based steps that failed: the run raised (all its steps), or the
    estimate is non-finite or outside the box, or the MHE solve stopped
    unconverged."""
    if "error" in rec:
        return set(range(1, rec["t_f"] + 1))
    est = np.asarray(rec["est"])[1:]
    with np.errstate(invalid="ignore"):
        bad = (~np.isfinite(est).all(axis=1) | (est < lo).any(axis=1)
               | (est > hi).any(axis=1))
    return set((np.flatnonzero(bad) + 1).tolist()) | set(rec["unconverged"])


def _label(rec: dict) -> str:
    return f"{rec['kind']} noise={rec['noise_std']:g} seed={rec['seed']}"


def check_run(rec: dict, truth_traj, open_loop_rmse: float) -> list[str]:
    """One estimator run: every step ran, its density RMSE recomputes, it
    beats the open-loop prediction and its failed-solve count agrees."""
    if "error" in rec:
        return []  # counted as failed steps, not as a wrong output
    out = []
    label = _label(rec)
    if len(rec["times"]) != rec["t_f"]:
        out.append(f"{label}: {len(rec['times'])} of {rec['t_f']} steps ran")
    if rec["failed_solves"] is not None and \
            rec["failed_solves"] != len(rec["unconverged"]):
        out.append(f"{label}: failed_solves {rec['failed_solves']} but "
                   f"{len(rec['unconverged'])} unconverged steps seen")
    if not np.all(np.isfinite(rec["est"])):
        return out
    mine = density_rmse(truth_traj, rec["est"])
    if abs(mine - rec["rmse_rho"]) > RMSE_REL_TOL * abs(mine):
        out.append(f"{label}: rmse_rho {rec['rmse_rho']!r} but the estimate "
                   f"gives {mine!r}")
    if not rec["rmse_rho"] < open_loop_rmse:
        out.append(f"{label}: rmse_rho {rec['rmse_rho']:.4f} does not beat "
                   f"the open-loop {open_loop_rmse:.4f}")
    return out


def check_sweep(rows: list[dict], records: list[dict], csv_path) -> list[str]:
    """Sweep rows agree with the runs behind them, accuracy degrades with
    noise for every estimator, and the CSV reads back to the rows."""
    out = []
    by_run = {(r["kind"], r["noise_std"]): r.get("rmse_rho") for r in records}
    by_row = {(r["estimator"], float(r["knob"])): r["rmse_rho"] for r in rows}
    if set(by_run) != set(by_row):
        out.append(f"sweep cells {sorted(by_row)} but runs {sorted(by_run)}")
    for key, val in by_row.items():
        if key in by_run and by_run[key] != val:
            out.append(f"sweep row {key}: rmse_rho {val!r} but its run "
                       f"gives {by_run[key]!r}")
    stds = sorted({k[1] for k in by_row})
    for kind in sorted({k[0] for k in by_row}):
        vals = [by_row.get((kind, s)) for s in stds]
        if None in vals or any(a >= b for a, b in zip(vals, vals[1:])):
            out.append(f"sweep {kind}: rmse_rho {vals} does not rise with "
                       f"noise {stds}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        back = list(csv.DictReader(fh))
    if len(back) != len(rows):
        out.append(f"sweep CSV has {len(back)} rows, not {len(rows)}")
    for r, b in zip(rows, back):
        if (b["estimator"], float(b["knob"])) != (r["estimator"], float(r["knob"])):
            out.append(f"sweep CSV row {b['estimator']}/{b['knob']} out of order")
            continue
        v = float(b["rmse_rho"])
        if abs(v - r["rmse_rho"]) > CSV_REL_TOL * abs(r["rmse_rho"]):
            out.append(f"sweep CSV {r['estimator']}/{r['knob']}: rmse_rho "
                       f"{v!r} but the row has {r['rmse_rho']!r}")
    return out


def _objective(qp, z) -> float:
    return float(z @ (qp.H @ z) + qp.q @ z) + qp.const


def check_qp_solve(qp, tol_kkt: float, z0, z, info) -> tuple[list[str], dict]:
    """One box-QP solve: the result lies in the box, its objective is no
    higher than at the clipped warm start, and where the unconstrained
    minimiser (a direct solve of 2Hz = -q) lies inside the box, a converged
    interior result is within the gap its KKT tolerance allows.

    With gradient g = 2Hz + q, f(z) - f(z*) = g' H^-1 g / 4, which is at
    most n tol^2 / (4 lambda_min(H)) when |g_i| <= tol for every i.
    """
    out = []
    if np.any(z < qp.z_min) or np.any(z > qp.z_max):
        out.append("solve_box_qp: result leaves the box")
    start = 0.5 * (qp.z_min + qp.z_max) if z0 is None else np.asarray(z0)
    start = np.clip(start, qp.z_min, qp.z_max)
    f_z, f_start = _objective(qp, z), _objective(qp, start)
    slack = 4.0 * info.noise_floor
    if f_z > f_start + slack:
        out.append(f"solve_box_qp: objective {f_z!r} above the warm "
                   f"start's {f_start!r}")
    z_star = np.linalg.solve(2.0 * qp.H, -qp.q)
    compared = 0
    interior = np.all(z > qp.z_min) and np.all(z < qp.z_max)
    if (info.converged and interior and np.all(z_star >= qp.z_min)
            and np.all(z_star <= qp.z_max)):
        compared = 1
        lam_min = float(np.linalg.eigvalsh(qp.H)[0])
        gap = z.size * tol_kkt ** 2 / (4.0 * lam_min) + slack
        f_star = _objective(qp, z_star)
        if not f_star - slack <= f_z <= f_star + gap:
            out.append(f"solve_box_qp: objective {f_z!r} vs the direct "
                       f"solve's {f_star!r}, allowed gap {gap:.3g}")
    return out, {"qp_direct_compared": compared}


def check_covariance(P, name: str) -> tuple[list[str], dict]:
    """A filter covariance is exactly symmetric and positive semi-definite
    (smallest eigenvalue no lower than -1e-9 of the largest)."""
    if P is None:
        return [], {}
    out = []
    if not np.array_equal(P, P.T):
        out.append(f"{name}: covariance not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (P + P.T))
    if eig[0] < -PSD_REL_TOL * max(1.0, eig[-1]):
        out.append(f"{name}: covariance not PSD, eigenvalue {eig[0]:.3g}")
    return out, {}
