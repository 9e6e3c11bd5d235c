"""Shared reference implementations for the QP tests.

Everything here is written independently of the library internals so it can
serve as an oracle: a dense assembly of the window QP from the entries'
residual maps, a direct term-by-term evaluation of the windowed objective,
and a brute-force active-set enumeration for small box QPs.
"""
import itertools

import numpy as np

from arzest.mhe import HorizonBuffer, HorizonEntry, QPProblem


def random_buffer(rng, horizon, n_steps, n_x=6, n_u=3, n_y=4, blind=()):
    """A buffer of synthetic affine entries with O(1) coefficients, each
    formed from a measurement ``y``, offsets ``c2`` and ``c1_s``, an input
    map ``B_s`` and an input ``u``.  The entries at the times in ``blind``
    have no measurement (zero rows)."""
    buf = HorizonBuffer(horizon)
    for t in range(1, n_steps + 1):
        m = 0 if t in blind else n_y
        y = rng.standard_normal(m)
        C_s = rng.standard_normal((m, n_x))
        c2 = rng.standard_normal(m)
        A_s = rng.standard_normal((n_x, n_x)) * 0.3
        B_s = rng.standard_normal((n_x, n_u))
        c1_s = rng.standard_normal(n_x)
        u = rng.standard_normal(n_u)
        buf.push(HorizonEntry(time=t, C_s=C_s, resid=y - c2, A_s=A_s,
                              r=B_s @ u + c1_s))
    return buf


def dense_assemble_qp(buf, x_bar_s, cfg, lo_s, hi_s):
    """The window QP's dense (H, q, const), each window term recomputed from
    the entries' residual maps and added in the library's order."""
    t = buf.latest_time
    start = buf.window_start()
    n_x = buf.entries[-1].A_s.shape[0]
    n_b = t - start + 1
    n_z = n_b * n_x
    H = np.zeros((n_z, n_z))
    q = np.zeros(n_z)
    const = 0.0

    x_bar_s = np.asarray(x_bar_s, dtype=float)
    sl = lambda b: slice(b * n_x, (b + 1) * n_x)

    H[sl(0), sl(0)] += cfg.mu * np.eye(n_x)
    q[sl(0)] += -2.0 * cfg.mu * x_bar_s
    const += cfg.mu * float(x_bar_s @ x_bar_s)

    for e in buf.entries:
        b = e.time - start
        if b < 0:
            continue
        if e.C_s.shape[0] > 0 and cfg.w1 > 0:
            H[sl(b), sl(b)] += cfg.w1 * (e.C_s.T @ e.C_s)
            q[sl(b)] += -2.0 * cfg.w1 * (e.C_s.T @ e.resid)
            const += cfg.w1 * float(e.resid @ e.resid)
        if e.time > start and cfg.w2 > 0:
            r = e.r
            A = e.A_s
            H[sl(b), sl(b)] += cfg.w2 * np.eye(n_x)
            H[sl(b - 1), sl(b - 1)] += cfg.w2 * (A.T @ A)
            H[sl(b), sl(b - 1)] += -cfg.w2 * A
            H[sl(b - 1), sl(b)] += -cfg.w2 * A.T
            q[sl(b)] += -2.0 * cfg.w2 * r
            q[sl(b - 1)] += 2.0 * cfg.w2 * (A.T @ r)
            const += cfg.w2 * float(r @ r)
    return H, q, const


def direct_objective(buf, x_bar_s, cfg, blocks):
    """Windowed cost evaluated term by term from the buffer entries."""
    start = buf.window_start()
    r0 = blocks[0] - x_bar_s
    total = cfg.mu * float(r0 @ r0)
    for e in buf.entries:
        b = e.time - start
        if b < 0:
            continue
        if e.C_s.shape[0] > 0 and cfg.w1 > 0:
            r = e.resid - e.C_s @ blocks[b]
            total += cfg.w1 * float(r @ r)
        if e.time > start and cfg.w2 > 0:
            r = blocks[b] - (e.A_s @ blocks[b - 1] + e.r)
            total += cfg.w2 * float(r @ r)
    return total


def brute_force_box_qp(H, q, lo, hi):
    """Exact minimizer of z'Hz + q'z on a box by active-set enumeration."""
    n = H.shape[0]
    best_f, best_z = np.inf, None
    for assign in itertools.product((0, 1, 2), repeat=n):
        z = np.empty(n)
        free = [i for i, a in enumerate(assign) if a == 0]
        for i, a in enumerate(assign):
            if a == 1:
                z[i] = lo[i]
            elif a == 2:
                z[i] = hi[i]
        if free:
            f_idx = np.array(free)
            a_idx = np.array([i for i in range(n) if i not in free], dtype=int)
            rhs = -0.5 * q[f_idx]
            if a_idx.size:
                rhs = rhs - H[np.ix_(f_idx, a_idx)] @ z[a_idx]
            try:
                z[f_idx] = np.linalg.solve(H[np.ix_(f_idx, f_idx)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(z[f_idx] < lo[f_idx] - 1e-12) or np.any(z[f_idx] > hi[f_idx] + 1e-12):
                continue
        g = 2.0 * H @ z + q
        ok = True
        for i, a in enumerate(assign):
            if a == 1 and g[i] < -1e-9:
                ok = False
            elif a == 2 and g[i] > 1e-9:
                ok = False
        if not ok:
            continue
        f = float(z @ H @ z + q @ z)
        if f < best_f:
            best_f, best_z = f, z.copy()
    return best_z, best_f


def random_small_qp(rng, n):
    M = rng.standard_normal((n, n))
    H = M.T @ M + 0.1 * np.eye(n)
    q = rng.standard_normal(n) * 3.0
    center = rng.standard_normal(n)
    width = rng.uniform(0.2, 2.0, n)
    lo, hi = center - width, center + width
    return QPProblem(H, q, lo, hi, const=0.0, n_blocks=1, n_x=n)
