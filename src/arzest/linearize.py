"""Taylor linearization of the network update and measurement maps.

The update ``x+ = A x + G f(x, u)`` is linearized about an operating point
``(x0, u0)`` into ``x+ ~= A_tilde x + B u + c1`` with finite-difference
Jacobians of ``f``; the constant ``c1`` is chosen so the affine model is
exact at the operating point.  The measurement map is linearized with the
analytic Jacobian of ``measure_h``.

Each net flux reads only the few state and input columns of the boundaries
around its segment.  The Jacobians are therefore colored (Curtis, Powell &
Reid 1974; Coleman & More 1983): each topology compiles once the sparsity
pattern of f and a greedy grouping of columns that share no row, and one
central difference per group yields every column in it.  On both benchmark
networks that is 7 state and 2 input groups, so ``linearize_model``
evaluates 18 perturbed states where a dense stencil evaluates
2 (n_x + n_u): 62 on the 9-cell network and 154 on the 30-cell one.  The
result equals the dense stencil's bit for bit, branch-tie flag included.
The same call carries the unperturbed state, whose net flux fixes
``c1``, and on request one more state to step with the same input, so
that a caller that also needs a one-step prediction pays for one flux call
instead of two.  A caller that needs only the state block (the EKF) asks
``_stencils`` for the state groups alone and steps from the unperturbed
row's flux.

A measurement selector ``C_sel`` is a 0/1 row selector, as
``sensing.build_observation`` makes it.  The rows it selects are picked
by index (``C_sel.argmax(axis=1)``) with ``ndarray.take``, which keeps
the C order that later products round in (see ``kalman``); a product
with the selector would only add exact zeros.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    EPS_RHO,
    ModelParams,
    Topology,
    _box_and_scale,
    _dp,
    _net_flux,
    _update,
    measure_h,
)

__all__ = [
    "FD_REL_STEP",
    "FD_ABS_STEP",
    "TIE_TOL",
    "LinearizedModel",
    "LinearizedMeasurement",
    "jacobian_fx",
    "jacobian_fu",
    "linearize_model",
    "measurement_jacobian",
    "linearize_measurement",
]

FD_REL_STEP = 1e-4
FD_ABS_STEP = 1e-3
# A flux min() whose two best candidates are closer than this within the
# difference stencil makes the corresponding column unreliable.
TIE_TOL = 1e-6


@dataclass
class LinearizedModel:
    """Affine update model, exact at the operating point (x0, u0) of
    ``linearize_model``.  ``branch_tie`` flags a difference stencil that
    met a flux branch tie.  ``x_next`` is ``step(step_from, u0)`` when
    ``linearize_model`` was given a ``step_from`` state, else None."""

    A_tilde: np.ndarray
    B: np.ndarray
    c1: np.ndarray
    branch_tie: bool = False
    x_next: np.ndarray | None = None


@dataclass
class LinearizedMeasurement:
    """Affine measurement model C_tilde x + c2, exact at the point x0 of
    ``linearize_measurement``.  ``density_floored`` flags a density below
    the floor ``EPS_RHO`` there."""

    C_tilde: np.ndarray
    c2: np.ndarray
    density_floored: bool = False


def _stencils(x0, u0, topo: Topology, params: ModelParams, ds_scale=None,
              blocks: str = "xu", extra=None):
    """Central-difference Jacobians of f w.r.t. the state ("x") and/or the
    input ("u"), in one population call.

    The topology's stencil of the requested blocks (``model._Stencil``)
    perturbs each group of its column coloring at once, and
    ``J[i, j] = dF_group(j)[i] / (2 h_j)`` is read off on the sparsity
    pattern; every entry equals the column-by-column stencil's bit for bit.
    Returns ``([J per block], tie, F)``: the flag marks a stencil that met
    a flux branch tie, and ``F[0]`` is the net flux at (x0, u0), from the
    unperturbed state the call carries after the stencil rows.  With an
    ``extra`` state, ``F[1]`` is its net flux at u0, from one more row that
    the tie flag does not read.
    """
    x0 = np.asarray(x0, dtype=float)
    plan = topo._jacobian
    st, base, n = plan.stencil[blocks], plan.base[blocks], x0.size
    v = np.concatenate((x0, np.asarray(u0, dtype=float)))
    h = np.maximum(FD_REL_STEP * np.abs(v), FD_ABS_STEP)
    # Laid out (columns, rows), as the flux kernel reads a population.
    V = v[:, None] + st.signs * h[:, None]
    if extra is None:
        V = V[:, :-1]
    else:
        V[:n, -1] = extra
    rows = st.signs.shape[1] - 2
    F, gap = _net_flux(V[:n].T, V[n:].T, topo, params, ds_scale)
    # The unperturbed row's margins count only where no group shows them.
    margin = min(gap[:rows].min(), gap[rows, base].min(initial=np.inf))
    Fk = F[:rows].ravel()
    # Filled as (columns, rows) and transposed, the layout of a dense
    # stencil, so that matrix-vector products round the same way.
    Jt = np.zeros((st.spans[-1].stop, n))
    Jt.reshape(-1)[st.entry] = ((Fk.take(st.plus) - Fk.take(st.minus))
                                / (2.0 * h).take(st.col))
    return [Jt[sl].T for sl in st.spans], bool(margin < TIE_TOL), F[rows:]


def jacobian_fx(x0, u0, topo: Topology, params: ModelParams,
                ds_scale=None) -> tuple[np.ndarray, bool]:
    """Central-difference Jacobian of f w.r.t. the state.

    Returns (J, branch_tie).  Columns touching a flux branch tie are still
    returned; the flag marks the result as suspect for diagnostics.
    """
    (J,), tie, _ = _stencils(x0, u0, topo, params, ds_scale, "x")
    return J, tie


def jacobian_fu(x0, u0, topo: Topology, params: ModelParams,
                ds_scale=None) -> tuple[np.ndarray, bool]:
    """Central-difference Jacobian of f w.r.t. the input."""
    (J,), tie, _ = _stencils(x0, u0, topo, params, ds_scale, "u")
    return J, tie


def linearize_model(x0, u0, topo: Topology, params: ModelParams,
                    ds_scale=None, *, step_from=None) -> LinearizedModel:
    """Affine update model about (x0, u0).

    ``c1`` absorbs the linearization residue so that
    ``A_tilde x0 + B u0 + c1`` reproduces the nonlinear update exactly.
    Given a state ``step_from``, the stencil's flux call carries it as one
    more row, and ``x_next`` is ``step(step_from, u0, ds_scale=ds_scale)``
    bit for bit; the rest of the model is the same as without it.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    g = params.T / params.l  # the input gain G is g * I
    (Jx, Ju), tie, F = _stencils(x0, u0, topo, params, ds_scale, "xu",
                                 step_from)
    A_tilde = _box_and_scale(topo, params)[4] + g * Jx
    B = g * Ju
    c1 = g * (F[0] - Jx @ x0 - Ju @ u0)
    x_next = None
    if step_from is not None:
        x_next = _update(np.asarray(step_from, dtype=float), F[1], topo,
                         params)
    return LinearizedModel(A_tilde, B, c1, tie, x_next)


def measurement_jacobian(x0, params: ModelParams) -> tuple[np.ndarray, bool]:
    """Analytic Jacobian of measure_h at x0.

    Density rows are unit selectors.  Speed rows differentiate
    ``psi/rho - p(rho)``; below the density floor the speed row no longer
    depends on rho and the result is flagged.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    rho, psi = x0[0::2], x0[1::2]
    live = rho > EPS_RHO
    r = np.where(live, rho, EPS_RHO)
    dp = _dp(r, params.v_f, params.rho_m, params.gamma)
    H = np.zeros((n, n))
    # Segment s's entries (2s, 2s), (2s+1, 2s) and (2s+1, 2s+1) lie at
    # s * stride, then n and n + 1 further, in H's flat view.
    flat, stride = H.reshape(-1), 2 * (n + 1)
    flat[::stride] = 1.0
    flat[n::stride] = np.where(live, -psi / r ** 2 - dp, 0.0)
    flat[n + 1::stride] = 1.0 / r
    return H, not live.all()


def linearize_measurement(x0, C_sel,
                          params: ModelParams) -> LinearizedMeasurement:
    """Affine measurement model of the rows that C_sel selects.

    ``C_sel`` is a row selector, as ``sensing.build_observation`` makes
    it: each row holds a single 1, in the column of the measured quantity.
    ``C_tilde`` is ``C_sel @ H``, picked row by row with ``ndarray.take``
    rather than multiplied, and ``c2`` makes the affine map exact at x0:
    ``C_tilde x0 + c2 = C_sel measure_h(x0)``.
    """
    x0 = np.asarray(x0, dtype=float)
    rows = np.asarray(C_sel).argmax(axis=1)
    H, floored = measurement_jacobian(x0, params)
    c2 = (measure_h(x0, params) - H @ x0).take(rows)
    return LinearizedMeasurement(H.take(rows, axis=0), c2, floored)
