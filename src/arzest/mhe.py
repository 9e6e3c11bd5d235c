"""Moving-horizon estimation as a box-constrained quadratic program.

Each step relinearizes the model about the mean of the previous window's
solution and solves

    min  mu ||x[t-N] - x_bar||^2
       + w1 sum ||y[i] - (C_i x[i] + c2_i)||^2
       + w2 sum ||x[i+1] - (A_i x[i] + B_i u[i] + c1_i)||^2

over the stacked window states, subject to the physical box.  The window
shrinks at startup: until step N the window start stays pinned at time 0
and the arrival state is the initial guess.  All blocks are assembled in
the scaled space (relative-flow rows divided by v_f).

The window reads each time's linearization through two residual maps
only: the measurement map ``(C_i, y[i] - c2_i)`` and the model map
``(A_i, B_i u[i] + c1_i)``.  Each step freezes its pair of maps in a
horizon buffer entry, ``(C_s, resid)`` and ``(A_s, r)``, and keeps no
other part of the linearization.

Once the window start s is past 0, the arrival prior is
``x_bar = step(x_hat[s-1], u[s])`` (Rao, Rawlings & Mayne 2003).  Both of
its arguments are known when entry s is made, N steps before it starts the
window, so the entry computes it then, as one more row of the flux call
that builds its linearization, and keeps it as ``HorizonEntry.arrival``.

The window Hessian is block tridiagonal over the horizon (Rao, Wright &
Rawlings 1998).  Each buffer entry forms its weighted Gram products once,
when the first window reads it, and every window that holds it only copies
and sums those terms into the band: the diagonal and sub-diagonal blocks.
The dense Hessian is built from the band only when something reads it.

The quadratic program is solved by projected Newton (Bertsekas 1982)
started from the unconstrained minimiser, so a window whose bounds are all
inactive costs one direct solve.  Newton reads only the band: every linear
system, the start point's included, is solved by block elimination along
the window, one LU per block instead of one on the whole window, and its
matrix-vector products are block products.  A session needs positive
arrival and model-residual weights: then, in exact arithmetic, every pivot
block of the elimination is positive definite, whatever the sensor layout.
In float64 an ill-conditioned window can still leave a pivot singular; the
session then raises ``EstimatorError`` naming the step and the window.
"""
from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kalman import EstimatorError, project_to_bounds
from .linearize import linearize_measurement, linearize_model
from .model import (ModelParams, Topology, _box_and_scale, _check_settings,
                    _read_only, step)

__all__ = [
    "MheConfig",
    "HorizonEntry",
    "HorizonBuffer",
    "QPProblem",
    "SolveInfo",
    "solve_box_qp",
    "operating_point",
    "predict_arrival",
    "assemble_qp",
    "MheSession",
]


# Projected Newton (Bertsekas 1982): the width of the band next to a bound in
# which a coordinate whose gradient points out of the box is held on the
# diagonal step; the Armijo sufficient-decrease constant; and the step
# halvings after which a line search gives up (2**-50 of a step is below an
# iterate's ulp).
NEWTON_EPS = 1e-3
NEWTON_ARMIJO = 1e-4
NEWTON_MAX_HALVINGS = 50


@dataclass(frozen=True)
class MheConfig:
    """Horizon length and objective weights (mu: arrival, w1: measurement,
    w2: model residual), plus the termination settings of ``solve_box_qp``.

    ``tol_kkt`` is the projected-KKT tolerance; a coordinate also counts as
    converged below the roundoff floor of its gradient.  ``max_iter`` is
    the budget of projected Newton iterations.  ``MheSession`` needs ``mu``
    and ``w2`` positive; ``assemble_qp`` also takes either at zero.
    """

    horizon: int = 4
    mu: float = 1.0
    w1: float = 1.0
    w2: float = 1.0
    tol_kkt: float = 1e-8
    max_iter: int = 50

    def __post_init__(self):
        _check_settings(self, ValueError, ("horizon", "max_iter"),
                        ("mu", "w1", "w2", "tol_kkt"))
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.mu < 0 or self.w1 < 0 or self.w2 < 0:
            raise ValueError("objective weights must be nonnegative")
        if self.mu + self.w2 <= 0:
            raise ValueError("mu + w2 must be positive")


# One entry's terms of the window objective (``HorizonEntry.terms``).
_WindowTerms = namedtuple("_WindowTerms",
                          "q_lead c_lead D q E c D_prev q_prev")


@dataclass(frozen=True)
class HorizonEntry:
    """Frozen per-step data, in scaled space: the two affine residual maps
    of the window objective at ``time``, and ``arrival``, the prior for
    the state at ``time`` once the entry starts the window:
    ``step(x_hat[time-1], u)`` in natural units (None unless given).

    The measurement residual is ``resid - C_s x[time]``, where ``resid =
    y - c2`` is the measurement less the measurement model's offset.  The
    model residual is ``x[time] - A_s x[time-1] - r``, where ``r = B_s u +
    c1_s`` is the transition's input and offset term.  The entry stores
    these arrays and ``arrival``, read-only, and nothing else of its
    linearization.  ``terms`` forms the products of the window objective
    from them and keeps what it scales them to; ``CtC = C_s' C_s`` is
    formed each time it is read.  The entry is frozen and its arrays are
    read-only, so the kept terms cannot go stale.
    """

    time: int
    C_s: np.ndarray
    resid: np.ndarray
    A_s: np.ndarray
    r: np.ndarray
    arrival: np.ndarray | None = None

    def __post_init__(self):
        arrays = {name: _read_only(a.view()) for name, a in vars(self).items()
                  if isinstance(a, np.ndarray)}
        self.__dict__.update(arrays, _terms={})

    CtC = property(lambda self: _read_only(self.C_s.T @ self.C_s))

    def terms(self, w1: float, w2: float) -> _WindowTerms:
        """The entry's terms of the window objective under the weights
        (w1, w2), formed on the first call with them and kept.  The
        products they scale are ``CtC``, ``C_s' resid``, ``|resid|^2``,
        ``A_s' A_s``, ``A_s' r`` and ``|r|^2``.  Each term is a partial sum
        of the term-by-term window sum (zeros, then the measurement term,
        then the model term), so that a window that adds them gets that
        sum's bits, signed zeros included:

        - where the entry's time starts the window: the gradient
          ``q_lead = 0 - 2 w1 C_s' resid`` and the constant
          ``c_lead = w1 |resid|^2`` (the window forms that block,
          ``0 + w1 CtC``, itself: an entry starts one window only);
        - where it is later: the diagonal block ``D = (0 + w1 CtC) + w2 I``,
          ``q = q_lead - 2 w2 r``, the sub-diagonal block
          ``E = 0 - w2 A_s`` and the constant ``c = w2 |r|^2``, added after
          ``c_lead``;
        - to the block before it: ``D_prev = w2 A_s' A_s`` and
          ``q_prev = 2 w2 A_s' r``.
        """
        got = self._terms.get((w1, w2))
        if got is None:
            C, resid, A, r = self.C_s, self.resid, self.A_s, self.r
            D = 0.0 + w1 * self.CtC
            D.reshape(-1)[::len(D) + 1] += w2
            q_lead = 0.0 + -2.0 * w1 * (C.T @ resid)
            got = self._terms[w1, w2] = _WindowTerms(
                q_lead, w1 * float(resid @ resid), D,
                q_lead + -2.0 * w2 * r, 0.0 - w2 * A, w2 * float(r @ r),
                w2 * (A.T @ A), 2.0 * w2 * (A.T @ r))
        return got


class HorizonBuffer:
    """Sliding window of the most recent horizon + 1 entries."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.entries: deque[HorizonEntry] = deque(maxlen=horizon + 1)

    def push(self, entry: HorizonEntry) -> None:
        if self.entries and entry.time != self.entries[-1].time + 1:
            raise ValueError("buffer times must be consecutive")
        self.entries.append(entry)

    @property
    def latest_time(self) -> int:
        return self.entries[-1].time

    def window_start(self) -> int:
        return max(0, self.latest_time - self.horizon)


class QPProblem:
    """min z^T H z + q^T z + const subject to z_min <= z <= z_max.

    z stacks ``n_blocks`` blocks of ``n_x``, block b the state at window
    time ``start + b``.  H is symmetric and block tridiagonal: every entry
    outside the diagonal blocks and the blocks next to them is exactly
    zero, since only consecutive states share a model residual.  The band
    is stored as the diagonal blocks ``D`` (n_blocks, n_x, n_x),
    ``D[b] = H_bb``, and the sub-diagonal blocks ``E`` (n_blocks - 1, n_x,
    n_x), ``E[b] = H_{b+1,b}``; the block above the diagonal is
    ``E[b]^T``.  The dense ``H`` is built from the band the first time it
    is read, and kept.

    ``QPProblem(H, q, z_min, z_max, const, n_blocks, n_x)`` takes a dense
    H and reads the band from it; entries outside the band are then kept
    in ``H`` but not read by ``solve_box_qp``.  ``assemble_qp`` passes
    ``H=None`` and the band as ``D`` and ``E``.
    """

    def __init__(self, H, q, z_min, z_max, const, n_blocks, n_x, D=None,
                 E=None):
        self.q, self.z_min, self.z_max, self.const = q, z_min, z_max, const
        self.n_blocks, self.n_x = n_blocks, n_x
        self._H = H
        if H is not None:
            Hb = np.asarray(H).reshape(n_blocks, n_x, n_blocks, n_x)
            b = np.arange(n_blocks)
            D, E = Hb[b, :, b, :], Hb[b[1:], :, b[:-1], :]
        self.D, self.E = D, E

    @property
    def H(self) -> np.ndarray:
        """The dense Hessian, built from the band on first use."""
        if self._H is None:
            n_b, n_x = self.n_blocks, self.n_x
            H = np.zeros((n_b, n_x, n_b, n_x))
            b = np.arange(n_b)
            H[b, :, b, :] = self.D
            H[b[1:], :, b[:-1], :] = self.E
            H[b[:-1], :, b[1:], :] = self.E.transpose(0, 2, 1)
            self._H = H.reshape(n_b * n_x, n_b * n_x)
        return self._H


@dataclass
class SolveInfo:
    """How a ``solve_box_qp`` run ended, for the problem ``qp`` it solved.

    ``objective_history`` holds the objective at every iterate, the
    returned point's last.  ``kkt_floor`` is the largest roundoff floor
    eps (2|H||z| + |q|) of the gradient at the returned point when the
    plain KKT test failed there (0 when it passed).  A solve is converged
    when every coordinate's projected gradient lies below max(tol_kkt, its
    floor).
    """

    converged: bool
    iterations: int
    kkt_residual: float
    objective_history: list
    kkt_floor: float
    qp: QPProblem = field(repr=False, compare=False)
    # Projected Newton takes no momentum steps, so it never restarts.
    restarts = 0

    @property
    def noise_floor(self) -> float:
        """Roundoff scale of one objective evaluation in the box,
        16 eps (a'|H|a + |q|'a + |const|) with a = max(|z_min|, |z_max|).
        Objective values closer than this cannot be told apart, so the
        history is nonincreasing to within it.  Computed when read."""
        qp = self.qp
        a = np.maximum(np.abs(qp.z_min), np.abs(qp.z_max))
        Ha = _band_matvec(np.abs(qp.D), np.abs(qp.E), a)
        return 16.0 * np.finfo(float).eps * float(
            a @ Ha + np.abs(qp.q) @ a + abs(qp.const))


def operating_point(prev_window) -> np.ndarray:
    """Mean of the previous window's solution blocks, given as a list of
    states or as one (n_blocks, n_x) array."""
    if len(prev_window) == 0:
        raise ValueError("previous window is empty")
    blocks = np.asarray(prev_window, dtype=float)
    return np.add.reduce(blocks, axis=0) / len(blocks)


def predict_arrival(x_prev, u_prev, topo: Topology, params: ModelParams) -> np.ndarray:
    """Arrival state: one nonlinear step from the estimate before the window.

    ``MheSession.linearize`` reads the same state from one more row of its
    linearization's flux call, so the session does not call this; a
    ``linearize`` assigned on a session instance may.
    """
    return step(x_prev, u_prev, topo, params)


def assemble_qp(buf: HorizonBuffer, x_bar_s, cfg: MheConfig,
                lo_s, hi_s) -> QPProblem:
    """Stack the window objective into (H, q, const) over scaled blocks.

    Block b holds the state at window time ``start + b``.  The oldest
    entry contributes only its measurement; every newer entry contributes
    its measurement and the transition linking it to the previous block.
    Only the band of H is filled, from the terms each entry formed once
    under the weights (``HorizonEntry.terms``): a window forms the first
    block and adds the arrival term to it, copies every other block's own
    terms, and adds the next entry's ``D_prev`` and ``q_prev`` to every
    block but the last.  No term is skipped: an entry with no measurement
    row caches exact zeros, and a zero weight scales its terms to exact
    zeros, so either adds only zeros to the band, q and const.  ``lo_s``
    and ``hi_s`` bound one scaled state, or the whole window as
    ``MheSession`` passes them.
    """
    if not buf.entries:
        raise ValueError("cannot assemble an empty buffer")
    t = buf.latest_time
    start = buf.window_start()
    n_x = buf.entries[-1].A_s.shape[0]
    n_b = t - start + 1
    terms = [e.terms(cfg.w1, cfg.w2) for e in buf.entries]
    D = np.empty((n_b, n_x, n_x))
    E = np.empty((n_b - 1, n_x, n_x))
    q = np.empty(n_b * n_x)
    Q = q.reshape(n_b, n_x)
    D[0], Q[0], const = 0.0, 0.0, 0.0
    if buf.entries[0].time == start:
        lead = terms.pop(0)
        np.add(0.0, cfg.w1 * buf.entries[0].CtC, out=D[0])
        Q[0], const = lead.q_lead, 0.0 + lead.c_lead
    x_bar_s = np.asarray(x_bar_s, dtype=float)
    D[0].reshape(-1)[::n_x + 1] += cfg.mu
    Q[0] += -2.0 * cfg.mu * x_bar_s
    const += cfg.mu * float(x_bar_s @ x_bar_s)
    for b, e in enumerate(terms, 1):
        D[b], Q[b], E[b - 1] = e.D, e.q, e.E
        D[b - 1] += e.D_prev
        Q[b - 1] += e.q_prev
        const = const + e.c_lead + e.c

    z_min, z_max = (np.asarray(v, dtype=float) for v in (lo_s, hi_s))
    if z_min.size != n_b * n_x:
        z_min, z_max = np.tile(z_min, n_b), np.tile(z_max, n_b)
    return QPProblem(None, q, z_min, z_max, const, n_b, n_x, D, E)


def _projected_gradient(z, g, lo, hi) -> np.ndarray:
    """Per-coordinate violation of the box KKT conditions: |g| inside the
    box, and at a bound the part of g that points out of the box."""
    at_lo = z <= lo
    at_hi = z >= hi
    r = np.where(at_lo | at_hi, 0.0, np.abs(g))
    r = np.maximum(r, np.where(at_lo, -g, 0.0))
    return np.maximum(r, np.where(at_hi, g, 0.0))


def _band_matvec(D, E, z) -> np.ndarray:
    """H z for the symmetric block-tridiagonal H with diagonal blocks D and
    sub-diagonal blocks E, as batched block products."""
    Z = z.reshape(D.shape[:2])
    out = np.matmul(D, Z[:, :, None])[:, :, 0]
    if len(E):
        out[1:] += np.matmul(E, Z[:-1, :, None])[:, :, 0]
        out[:-1] += np.matmul(Z[1:, None, :], E)[:, 0, :]
    return out.ravel()


def _below_roundoff(z, r, qp: QPProblem, abs_band, tol_kkt: float):
    """Whether every coordinate's projected gradient ``r`` at ``z`` lies
    below ``max(tol_kkt, eps (2|H||z| + |q|))``, the larger of the tolerance
    and the roundoff floor of the gradient ``2Hz + q`` at that coordinate,
    and the largest floor.  ``abs_band`` is the band of |H|."""
    floor = np.finfo(float).eps * (
        2.0 * _band_matvec(*abs_band, np.abs(z)) + np.abs(qp.q))
    return bool(np.all(r <= np.maximum(tol_kkt, floor))), float(floor.max())


def _solve_blocks(D, E, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for the symmetric block-tridiagonal H with diagonal
    blocks D and sub-diagonal blocks E by block elimination along the
    horizon.

    Going down the window, each pivot block P_b (P_0 = D_0) is factored
    once, for its coupling block and the eliminated right-hand side
    together: [G_{b+1} | y_b] = P_b^-1 [E_b^T | r_b], after which
    P_{b+1} = D_{b+1} - E_b G_{b+1} and r_{b+1} = rhs_{b+1} - E_b y_b.  The
    back pass x_b = y_b - G_{b+1} x_{b+1} refactors nothing.  With one block
    this is ``np.linalg.solve(D[0], rhs)``.  Raises
    ``np.linalg.LinAlgError`` on a singular pivot block.
    """
    n_b, n_x = D.shape[:2]
    R = rhs.reshape(n_b, n_x)
    # The stacked right-hand sides [E_b^T | r_b], r_b filled in on the way.
    W = np.empty((n_b - 1, n_x, n_x + 1))
    W[:, :, :n_x] = E.transpose(0, 2, 1)
    P, r = D[0], R[0]
    passes = []
    for b in range(n_b - 1):
        W[b, :, n_x] = r
        X = np.linalg.solve(P, W[b])
        LX = E[b] @ X
        P = D[b + 1] - LX[:, :n_x]
        r = R[b + 1] - LX[:, n_x]
        passes.append(X)
    x = np.empty((n_b, n_x))
    x[-1] = np.linalg.solve(P, r)
    for b in reversed(range(n_b - 1)):
        X = passes[b]
        x[b] = X[:, n_x] - X[:, :n_x] @ x[b + 1]
    return x.ravel()


def _held_decoupled_band(D, E, held):
    """The band of H with the rows and columns of the ``held`` coordinates
    zeroed and their diagonal kept, as copies."""
    free = ~held.reshape(D.shape[:2])
    D_h = np.where(free[:, :, None] & free[:, None, :], D, 0.0)
    i = np.arange(D.shape[1])
    D_h[:, i, i] = D[:, i, i]
    E_h = np.where(free[1:, :, None] & free[:-1, None, :], E, 0.0)
    return D_h, E_h


def solve_box_qp(qp: QPProblem, tol_kkt: float = MheConfig.tol_kkt,
                 max_iter: int = MheConfig.max_iter,
                 z0=None) -> tuple[np.ndarray, SolveInfo]:
    """Projected Newton method on a box-constrained QP (Bertsekas 1982).

    Starts from ``z0`` clipped to the box, or without ``z0`` from the
    unconstrained minimiser solve(H, -q/2) clipped to the box, so a problem
    whose bounds are all inactive converges after 0 iterations.  Each
    iteration holds the epsilon-active bounds whose gradient points out of
    the box on a diagonally scaled step, takes a Newton step on the free
    coordinates, and backtracks (Armijo) along the projection arc.  Only the
    band ``qp.D``, ``qp.E`` of H is read: every linear system, the start
    point's and each step's, is solved by block elimination
    (``_solve_blocks``), and every product with H is a block product.
    Each iterate is tested once: on the projected KKT conditions, or, once
    they fail, whether every coordinate's projected gradient lies below the
    gradient's roundoff floor there (``SolveInfo.kkt_floor``).  Every
    iterate lies in the box exactly.  If ``max_iter`` iterations run out or
    a line search stalls, the last iterate is returned unconverged.
    Raises ``np.linalg.LinAlgError`` when a pivot block of the elimination
    is singular, as it is for a singular H.
    """
    D, E, q, lo, hi = qp.D, qp.E, qp.q, qp.z_min, qp.z_max
    if z0 is None:
        z0 = _solve_blocks(D, E, -0.5 * q)
    z = project_to_bounds(np.asarray(z0, dtype=float), lo, hi)
    hist, it, abs_band = [], 0, None
    while True:
        Hz = _band_matvec(D, E, z)
        hist.append(float(z @ Hz + q @ z) + qp.const)
        g = 2.0 * Hz + q
        r = _projected_gradient(z, g, lo, hi)
        kkt, floor = float(np.max(r)), 0.0
        converged = kkt <= tol_kkt
        if not converged:
            # Only now that the plain test failed: a gradient below its
            # roundoff floor carries no information about the minimiser.
            if abs_band is None:
                abs_band = (np.abs(D), np.abs(E))
            converged, floor = _below_roundoff(z, r, qp, abs_band, tol_kkt)
        if converged or it >= max_iter:
            break
        it += 1
        dz = z - project_to_bounds(z - g, lo, hi)
        eps = min(NEWTON_EPS, math.sqrt(dz @ dz))
        held = ((z <= lo + eps) & (g > 0.0)) | ((z >= hi - eps) & (g < 0.0))
        free = ~held
        # Decouple the held coordinates: with their rows and columns zeroed
        # and their diagonal kept, one solve gives the Newton step on the
        # free block and the diagonal step on the held one.
        d = -0.5 * _solve_blocks(*_held_decoupled_band(D, E, held), g)
        # Armijo along the arc P(z + a d): the free block is credited with a
        # times its linear decrease, the held bounds with the decrease of
        # what they actually move (Bertsekas 1982, eq. 32).
        slope = -float(g[free] @ d[free])
        a = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            z_new = project_to_bounds(z + a * d, lo, hi)
            s = z_new - z
            # f(z + s) - f(z) = s'Hs + g's, free of the cancellation between
            # two large objective values.
            decrease = -float(s @ _band_matvec(D, E, s) + g @ s)
            if decrease >= NEWTON_ARMIJO * (a * slope - float(g[held] @ s[held])):
                break
            a *= 0.5
        else:
            break  # the line search stalled
        z = z_new
    return z, SolveInfo(converged, it, kkt, hist, floor, qp)


@lru_cache(maxsize=32)
def _window_box(topo: Topology, params: ModelParams, n_b: int):
    """The scaled box of ``n_b`` stacked states, ``(z_min, z_max)``, built
    once per network and window size, and read-only."""
    lo, hi, d, *_ = _box_and_scale(topo, params)
    return tuple(_read_only(np.tile(v / d, n_b)) for v in (lo, hi))


class MheSession:
    """Stateful moving-horizon estimator.

    ``step(u, y, C_sel)`` consumes the input that drove the latest
    transition together with the new measurement and returns the estimate.
    The arrival weight ``mu`` and the model weight ``w2`` must be positive,
    so that the window Hessian is positive definite: the arrival term pins
    the first block and each model residual the next.

    The last window's solution is kept, clipped, as one (n_blocks, n_x)
    array: its mean is the next operating point x_o, its last row
    x_hat[t-1].  Each step makes the entry for its time t with one call,
    ``linearize(x_o, u, x_hat[t-1], C_sel)``, which returns the entry's
    ``LinearizedModel``, its ``LinearizedMeasurement`` and the arrival
    prior that the entry carries once it starts the window.  This method
    is the session's one seam: a function of the same signature assigned
    to ``linearize`` on an instance replaces it, and given frozen affine
    models and their step, the session is an exact estimator for an
    affine system.  A window solve that meets a singular pivot block in
    float64 raises ``EstimatorError``.

    ``events`` is ``{"qp_fail": n}``, a new dict per read: the window
    solves so far that stopped unconverged, ``failed_solves``.
    """

    def __init__(self, x0, cfg: MheConfig, topo: Topology, params: ModelParams):
        for name in ("mu", "w2"):
            if not getattr(cfg, name) > 0:
                raise ValueError(f"MheSession needs a positive {name}, got "
                                 f"{getattr(cfg, name)}")
        self.cfg = cfg
        self.topo = topo
        self.params = params
        self.x0 = np.asarray(x0, dtype=float).copy()
        self.buffer = HorizonBuffer(cfg.horizon)
        self.t = 0
        self._window = self.x0[None, :]
        self.failed_solves = 0
        self.last_info: SolveInfo | None = None

    @property
    def events(self) -> dict[str, int]:
        return {"qp_fail": self.failed_solves}

    def linearize(self, x_o, u, x_prev, C_sel):
        """The model and the measurement linearized at ``(x_o, u)``, and the
        arrival prior ``step(x_prev, u)``, read from one more row of the
        model's flux call."""
        lin = linearize_model(x_o, u, self.topo, self.params, step_from=x_prev)
        return lin, linearize_measurement(x_o, C_sel, self.params), lin.x_next

    def _make_entry(self, time: int, u, y, C_sel) -> HorizonEntry:
        x_o = operating_point(self._window)
        lin, lm, arrival = self.linearize(x_o, u, self._window[-1], C_sel)
        _, _, d, ratio, _ = _box_and_scale(self.topo, self.params)
        return HorizonEntry(
            time=time,
            C_s=lm.C_tilde * d[None, :],
            resid=y - lm.c2,
            A_s=lin.A_tilde * ratio,
            r=(lin.B / d[:, None]) @ u + lin.c1 / d,
            arrival=arrival,
        )

    def step(self, u, y, C_sel) -> np.ndarray:
        self.t += 1
        self.buffer.push(self._make_entry(self.t, u, y, C_sel))
        if self.buffer.window_start() == 0:
            x_bar = self.x0
        else:
            x_bar = self.buffer.entries[0].arrival
        lo, hi, d, *_ = _box_and_scale(self.topo, self.params)
        qp = assemble_qp(self.buffer, x_bar / d, self.cfg, *_window_box(
            self.topo, self.params, min(self.t, self.cfg.horizon) + 1))
        try:
            z, info = solve_box_qp(qp, self.cfg.tol_kkt, self.cfg.max_iter)
        except np.linalg.LinAlgError as exc:
            raise EstimatorError(
                f"MHE step {self.t}: the window solve from time "
                f"{self.buffer.window_start()} over {qp.n_blocks} blocks met "
                f"a singular pivot block ({exc})") from exc
        self.last_info = info
        if not info.converged:
            self.failed_solves += 1
        blocks = z.reshape(qp.n_blocks, qp.n_x) * d
        # Rescaling to natural units can brush a bound by one ulp.
        self._window = project_to_bounds(blocks, lo, hi)
        return self._window[-1].copy()
