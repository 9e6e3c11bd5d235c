"""Kalman-type baseline estimators: extended, unscented and ensemble.

All three share the same interface: given the previous estimate, the input
that drove the last transition and the new (possibly empty) measurement,
produce the next bounded state estimate.  Covariances are kept in a scaled
space where relative-flow rows are divided by v_f, so both state
quantities live on the veh/km scale; Q = q I and R = r I apply there.

The measurement ``C_sel`` is a row selector, as
``sensing.build_observation`` makes it: one 1 per row, in the column of
the measured quantity.  Each step picks those rows by index,
``rows = C_sel.argmax(axis=1)``, instead of multiplying by the selector.
The picks use ``ndarray.take``, which returns a C-ordered array: a
column pick ``Y[:, rows]`` returns an F-ordered one, on which the
ensemble reductions and ``Ydev.T @ Ydev`` round differently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linearize import _stencils, measurement_jacobian
from .model import (
    ModelParams,
    Topology,
    _box_and_scale,
    _check_settings,
    _read_only,
    _update,
    measure_h,
    step_batch,
)

__all__ = [
    "EstimatorError",
    "EstimatorConfig",
    "EstimatorState",
    "project_to_bounds",
    "init_state",
    "ekf_step",
    "ukf_step",
    "enkf_step",
    "KalmanRunner",
]


# Every estimator kind, in the order the CLI lists them; the MHE
# (``mhe.MheSession``) comes last, after this module's three filters.
_KINDS = ("ekf", "ukf", "enkf", "mhe")


class EstimatorError(Exception):
    """Estimator could not complete a step."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared filter tuning.

    q, r and p0 are variances in the scaled state/measurement space;
    alpha/kappa/beta parameterize the unscented transform and
    ensemble_size the stochastic ensemble filter.
    """

    q: float = 1.0
    r: float = 1.0
    p0: float = 1e-3
    alpha: float = 0.1
    kappa: float = -4.0
    beta: float = 2.0
    ensemble_size: int = 100

    def __post_init__(self):
        _check_settings(self, EstimatorError, ("ensemble_size",),
                        ("q", "r", "p0", "alpha", "kappa", "beta"))
        if self.q < 0 or self.r <= 0 or self.p0 < 0:
            raise EstimatorError("q, p0 must be nonnegative and r positive")
        if self.ensemble_size < 2:
            raise EstimatorError("ensemble_size must be at least 2")


@dataclass
class EstimatorState:
    """Estimate plus uncertainty bookkeeping for one filter instance."""

    x: np.ndarray
    P: np.ndarray | None = None
    ensemble: np.ndarray | None = None
    k: int = 0
    jitter_events: int = 0


def project_to_bounds(x, lo, hi) -> np.ndarray:
    """Clip a state, or a population of states in rows, into the box
    ``[lo, hi]`` given as arrays along the state axis: ``np.clip(x, lo,
    hi)`` bit for bit, signed zeros included, without that function's
    Python-level dispatch.  The two differ where ``np.clip`` runs its
    scalar-bound loop: for a scalar bound, or a population of one-entry
    states, it keeps a ``-0.0`` at a bound of 0 where ``np.maximum``
    returns ``0.0``.  No state has fewer than two entries."""
    return np.minimum(np.maximum(x, lo), hi)


def init_state(x0, cfg: EstimatorConfig, topo: Topology, params: ModelParams,
               kind: str = "ekf", rng: np.random.Generator | None = None) -> EstimatorState:
    """Initial filter state: P0 = p0 I, or an ensemble sampled around x0."""
    x0 = np.asarray(x0, dtype=float)
    if kind == "enkf":
        if rng is None:
            rng = np.random.default_rng(0)
        lo, hi, d, *_ = _box_and_scale(topo, params)
        n = x0.size
        pert = rng.standard_normal((cfg.ensemble_size, n)) * math.sqrt(cfg.p0)
        ens = project_to_bounds(x0 + pert * d, lo, hi)
        return EstimatorState(x=x0.copy(), ensemble=ens)
    P = cfg.p0 * _eye(x0.size)
    return EstimatorState(x=x0.copy(), P=P)


def _sym(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, built once and read-only."""
    return _read_only(np.eye(n))


def ekf_step(state: EstimatorState, u, y, C_sel, cfg: EstimatorConfig,
             topo: Topology, params: ModelParams) -> EstimatorState:
    """Extended Kalman step: nonlinear predict, affine-model covariance.

    ``u`` drove the transition into the newly measured state; an empty
    selector (zero rows) makes the update a 0 x 0 solve: a pure prediction.
    """
    lo, hi, d, ratio, A = _box_and_scale(topo, params)
    n = state.x.size

    # Only the state block of the model's Jacobian: linearize_model's
    # A_tilde = A + (T/l) J_x, similarity-transformed into the scaled
    # space.  The same flux call's unperturbed row gives the prediction
    # step(x, u).
    (Jx,), _, F = _stencils(state.x, u, topo, params, None, "x")
    As = (A + params.T / params.l * Jx) * ratio
    x_pred = _update(state.x, F[0], topo, params)
    P_pred = _sym(As @ state.P @ As.T + cfg.q * _eye(n))

    rows = np.asarray(C_sel).argmax(axis=1)
    Cs = measurement_jacobian(x_pred, params)[0].take(rows, axis=0) * d
    innov = np.asarray(y, dtype=float) - measure_h(x_pred, params).take(rows)
    S = Cs @ P_pred @ Cs.T + cfg.r * _eye(rows.size)
    # K = P C^T S^-1 via a solve on the symmetric innovation covariance.
    K = _gain(S, Cs @ P_pred, state, cfg.r).T
    x_new = project_to_bounds(x_pred + d * (K @ innov), lo, hi)
    IKC = _eye(n) - K @ Cs
    P_new = _sym(IKC @ P_pred @ IKC.T + cfg.r * (K @ K.T))
    return EstimatorState(x_new, P=P_new, k=state.k + 1,
                          jitter_events=state.jitter_events)


def _gain(S: np.ndarray, B: np.ndarray, state: EstimatorState,
          floor: float = 0.0, check: bool = False) -> np.ndarray:
    """``S^-1 B`` for a (k, m) ``B``, exactly as
    ``np.linalg.solve(_jittered(S, state), B)``, without that function's
    SVD where S is proven well conditioned.

    ``floor > 0`` bounds S's eigenvalues from below: by the caller's
    construction, or, with ``check``, by a Cholesky factorization of
    ``S - floor I`` here.  Every eigenvalue is then positive, so the
    largest is at most the trace, and ``tr(S) <= 1e12 floor`` proves
    ``cond_2(S) <= 1e12``.  The rounding of S moves that bound by far less
    than the two decades to the 1e14 at which ``_jittered`` adds a ridge.

    - The EKF's ``C P C^T + r I`` and the EnKF's ``Y^T Y / (M - 1) + r I``
      are a positive-semidefinite matrix plus ``r I``: floor ``r``.
    - The UKF's centre weight is negative, so its ``S - r I`` can be
      indefinite: it proves floor ``r / 2`` with ``check``.

    On a proven S, ``_jittered`` would return S itself, so the gain is the
    same ``np.linalg.solve(S, B)`` call, bit for bit, for any number of
    columns.  Anything not proven (the default floor 0 proves nothing)
    goes to ``_jittered``'s SVD, which counts its ridge escalations in
    ``state`` and refuses a non-finite S.  A non-finite entry of the
    factors that S is formed from reaches S's diagonal, so such an S fails
    the trace test.  An S that the solve still finds singular after the
    ridge raises ``EstimatorError``.
    """
    if floor > 0.0 and S.trace() <= 1e12 * floor:
        try:
            if check:
                np.linalg.cholesky(S - floor * _eye(len(S)))
            return np.linalg.solve(S, B)
        except np.linalg.LinAlgError:
            pass  # not proven positive definite: the SVD decides
    try:
        return np.linalg.solve(_jittered(S, state), B)
    except np.linalg.LinAlgError as exc:
        raise EstimatorError(
            f"step {state.k + 1}: the innovation covariance of {len(S)} "
            f"measurements is singular even with a ridge ({exc})") from exc


def _jittered(S: np.ndarray, state: EstimatorState) -> np.ndarray:
    """Return S, or S plus an escalating ridge while it stays singular.

    Singular means ``np.linalg.cond(S) >= 1e14``, a full SVD per call;
    the filters reach this only through ``_gain``, when a cheaper bound
    cannot show S well conditioned.  The ridge is scaled to the diagonal:
    a floored-density measurement Jacobian can inflate S to the 1e30
    range, where any fixed ridge underflows and rows of equal garbage
    magnitude leave the matrix exactly singular in float64.
    """
    if not np.all(np.isfinite(S)):
        raise EstimatorError("innovation covariance is not finite")
    ridge = 1e-9 * max(1.0, float(np.mean(np.diag(S))))
    M = S
    for _ in range(8):
        if np.linalg.cond(M) < 1e14:
            return M
        state.jitter_events += 1
        M = S + ridge * _eye(S.shape[0])
        ridge *= 1e3
    return M


def _chol_with_jitter(P: np.ndarray, state: EstimatorState) -> np.ndarray:
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        state.jitter_events += 1
        P = _sym(P) + 1e-9 * _eye(P.shape[0])
        try:
            return np.linalg.cholesky(P)
        except np.linalg.LinAlgError as exc:
            raise EstimatorError("covariance is not positive definite") from exc


def ukf_step(state: EstimatorState, u, y, C_sel, cfg: EstimatorConfig,
             topo: Topology, params: ModelParams) -> EstimatorState:
    """Unscented Kalman step with bound-projected sigma points.

    Sigma points are drawn in the scaled space, projected into the physical
    box, then pushed through the nonlinear update and measurement maps.
    """
    lo, hi, d, *_ = _box_and_scale(topo, params)
    n = state.x.size
    lam = cfg.alpha ** 2 * (n + cfg.kappa) - n
    if n + lam <= 0:
        raise EstimatorError("unscented spread n + lambda must be positive")
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = lam / (n + lam) + (1.0 - cfg.alpha ** 2 + cfg.beta)

    L = _chol_with_jitter((n + lam) * _sym(state.P), state)
    xs = state.x / d
    sig = np.empty((2 * n + 1, n))
    sig[0] = xs
    sig[1:n + 1] = xs + L.T
    sig[n + 1:] = xs - L.T

    # Physical projection first, then nonlinear propagation.
    pts = project_to_bounds(sig * d[None, :], lo, hi)
    prop = step_batch(pts, u, topo, params) / d[None, :]

    x_pred_s = wm @ prop
    dev = prop - x_pred_s
    dev_w = dev.T * wc
    P_pred = _sym(dev_w @ dev + cfg.q * _eye(n))

    rows = np.asarray(C_sel).argmax(axis=1)
    Y = measure_h(prop * d[None, :], params).take(rows, axis=1)
    y_pred = wm @ Y
    dy = Y - y_pred
    S = (dy.T * wc) @ dy + cfg.r * _eye(rows.size)
    P_xy = dev_w @ dy
    K = _gain(S, P_xy.T, state, 0.5 * cfg.r, check=True).T
    x_new_s = x_pred_s + K @ (np.asarray(y, dtype=float) - y_pred)
    x_new = project_to_bounds(x_new_s * d, lo, hi)
    P_new = _sym(P_pred - K @ S @ K.T)
    return EstimatorState(x_new, P=P_new, k=state.k + 1,
                          jitter_events=state.jitter_events)


def enkf_step(state: EstimatorState, u, y, C_sel, cfg: EstimatorConfig,
              topo: Topology, params: ModelParams,
              rng: np.random.Generator) -> EstimatorState:
    """Stochastic ensemble Kalman step with perturbed observations."""
    lo, hi, d, *_ = _box_and_scale(topo, params)
    n = state.x.size
    M = state.ensemble.shape[0]

    ens = step_batch(state.ensemble, u, topo, params)
    if cfg.q > 0:
        # ens + noise, formed in the drawn array: the sum commutes bitwise.
        noise = rng.standard_normal((M, n))
        noise *= math.sqrt(cfg.q)
        noise *= d
        noise += ens
        ens = project_to_bounds(noise, lo, hi)

    rows = np.asarray(C_sel).argmax(axis=1)
    if rows.size > 0:
        Y = measure_h(ens, params).take(rows, axis=1)
        ens_s = ens / d
        Xdev = ens_s - np.add.reduce(ens_s, axis=0) / M
        Ydev = Y - np.add.reduce(Y, axis=0) / M
        P_xy = Xdev.T @ Ydev / (M - 1)
        P_yy = Ydev.T @ Ydev / (M - 1) + cfg.r * _eye(rows.size)
        K = _gain(P_yy, P_xy.T, state, cfg.r).T
        y = np.asarray(y, dtype=float)
        half = math.sqrt(3.0 * cfg.r)
        # Observation perturbations mirror the uniform measurement noise.
        pert = rng.uniform(-half, half, Y.shape)
        ens_s = ens_s + (y + pert - Y) @ K.T
        ens = project_to_bounds(ens_s * d, lo, hi)

    x_new = project_to_bounds(np.add.reduce(ens, axis=0) / M, lo, hi)
    return EstimatorState(x_new, ensemble=ens, k=state.k + 1,
                          jitter_events=state.jitter_events)


class KalmanRunner:
    """Stateful wrapper giving the three filters one step(u, y, C) interface.

    ``events`` is ``{"jitter": n}``, a new dict per read: the ridge
    escalations counted so far in ``state.jitter_events``.
    """

    def __init__(self, kind: str, x0, cfg: EstimatorConfig, topo: Topology,
                 params: ModelParams, rng: np.random.Generator | None = None):
        if kind not in _KINDS[:-1]:
            raise EstimatorError(f"unknown filter kind {kind!r}")
        if kind == "ukf" and topo.n_x + cfg.kappa <= 0:
            # The unscented spread n + lambda is alpha^2 (n_x + kappa).
            raise EstimatorError(
                f"the UKF needs kappa > -n_x, got n_x = {topo.n_x} and "
                f"kappa = {cfg.kappa}")
        self.kind = kind
        self.cfg = cfg
        self.topo = topo
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.state = init_state(x0, cfg, topo, params, kind, self.rng)

    @property
    def events(self) -> dict[str, int]:
        return {"jitter": self.state.jitter_events}

    def step(self, u, y, C_sel) -> np.ndarray:
        if self.kind == "ekf":
            self.state = ekf_step(self.state, u, y, C_sel, self.cfg,
                                  self.topo, self.params)
        elif self.kind == "ukf":
            self.state = ukf_step(self.state, u, y, C_sel, self.cfg,
                                  self.topo, self.params)
        else:
            self.state = enkf_step(self.state, u, y, C_sel, self.cfg,
                                   self.topo, self.params, self.rng)
        return self.state.x
