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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    EPS_RHO,
    ModelParams,
    Topology,
    _net_flux,
    build_update_matrices,
    measure_h,
    nonlinear_f,
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
    """Affine update model, exact at (x0, u0).  ``f0`` is the net flux
    ``nonlinear_f(x0, u0)`` the model was built from."""

    A_tilde: np.ndarray
    B: np.ndarray
    c1: np.ndarray
    x0: np.ndarray
    u0: np.ndarray
    branch_tie: bool = False
    f0: np.ndarray | None = None


@dataclass
class LinearizedMeasurement:
    """Affine measurement model C_tilde x + c2, exact at x0."""

    C_tilde: np.ndarray
    c2: np.ndarray
    x0: np.ndarray
    density_floored: bool = False


def _stencils(x0, u0, topo: Topology, params: ModelParams, ds_scale=None,
              blocks: str = "xu"):
    """Central-difference Jacobians of f w.r.t. the state ("x") and/or the
    input ("u"), in one population call.

    Each group of the topology's column coloring is perturbed at once and
    ``J[i, j] = dF_group(j)[i] / (2 h_j)`` is read off on the sparsity
    pattern; every entry equals the column-by-column stencil's bit for bit.
    Returns ``([J per block], tie)``: the flag marks a stencil that met a
    flux branch tie.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    plan = topo._jacobian
    n = x0.size
    base = plan.base[blocks]
    rows = sum(2 * len(plan.groups[key].groups) for key in blocks)
    # Each group's + rows and - rows, then the unperturbed state if needed.
    X = np.empty((rows + (base.size > 0), n))
    U = np.empty((len(X), u0.size))
    X[:], U[:] = x0, u0
    parts, i = [], 0
    for key in blocks:
        c = plan.groups[key]
        v, Y = (x0, X) if key == "x" else (u0, U)
        h = np.maximum(FD_REL_STEP * np.abs(v), FD_ABS_STEP)
        d = c.groups * h
        Y[i:i + len(d)] += d
        Y[i + len(d):i + 2 * len(d)] -= d
        parts.append((c, h, slice(i, i + 2 * len(d))))
        i += 2 * len(d)
    F, gap = _net_flux(X, U, topo, params, ds_scale)
    margin = min(gap[:rows].min(), gap[rows:, base].min(initial=np.inf))
    Js = []
    for c, h, at in parts:
        Fk = F[at].ravel()
        # Filled as (columns, rows) and transposed, the layout of a dense
        # stencil, so that matrix-vector products round the same way.
        Jt = np.zeros(h.size * n)
        Jt[c.entry] = ((Fk.take(c.plus) - Fk.take(c.minus))
                       / (2.0 * h).take(c.col))
        Js.append(Jt.reshape(h.size, n).T)
    return Js, bool(margin < TIE_TOL)


def jacobian_fx(x0, u0, topo: Topology, params: ModelParams,
                ds_scale=None) -> tuple[np.ndarray, bool]:
    """Central-difference Jacobian of f w.r.t. the state.

    Returns (J, branch_tie).  Columns touching a flux branch tie are still
    returned; the flag marks the result as suspect for diagnostics.
    """
    (J,), tie = _stencils(x0, u0, topo, params, ds_scale, "x")
    return J, tie


def jacobian_fu(x0, u0, topo: Topology, params: ModelParams,
                ds_scale=None) -> tuple[np.ndarray, bool]:
    """Central-difference Jacobian of f w.r.t. the input."""
    (J,), tie = _stencils(x0, u0, topo, params, ds_scale, "u")
    return J, tie


def linearize_model(x0, u0, topo: Topology, params: ModelParams,
                    ds_scale=None) -> LinearizedModel:
    """Affine update model about (x0, u0).

    ``c1`` absorbs the linearization residue so that
    ``A_tilde x0 + B u0 + c1`` reproduces the nonlinear update exactly.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    A, G = build_update_matrices(topo, params)
    g = params.T / params.l  # G is g * I
    f0 = nonlinear_f(x0, u0, topo, params, ds_scale)
    (Jx, Ju), tie = _stencils(x0, u0, topo, params, ds_scale)
    A_tilde = A + g * Jx
    B = g * Ju
    c1 = g * (f0 - Jx @ x0 - Ju @ u0)
    return LinearizedModel(A_tilde, B, c1, x0, u0, tie, f0)


def measurement_jacobian(x0, params: ModelParams) -> tuple[np.ndarray, bool]:
    """Analytic Jacobian of measure_h at x0.

    Density rows are unit selectors.  Speed rows differentiate
    ``psi/rho - p(rho)``; below the density floor the speed row no longer
    depends on rho and the result is flagged.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    H = np.zeros((n, n))
    floored = False
    v_f, rho_m, gamma = params.v_f, params.rho_m, params.gamma
    for s in range(n // 2):
        r, ps = 2 * s, 2 * s + 1
        rho, psi = x0[r], x0[ps]
        H[r, r] = 1.0
        if rho > EPS_RHO:
            dp = v_f * gamma * rho ** (gamma - 1.0) / rho_m ** gamma
            H[ps, r] = -psi / rho ** 2 - dp
            H[ps, ps] = 1.0 / rho
        else:
            floored = True
            H[ps, r] = 0.0
            H[ps, ps] = 1.0 / EPS_RHO
    return H, floored


def linearize_measurement(x0, C_sel,
                          params: ModelParams) -> LinearizedMeasurement:
    """Affine measurement model through a row selector C_sel.

    ``c2`` makes the affine map exact at x0:
    ``C_tilde x0 + c2 = C_sel measure_h(x0)``.
    """
    x0 = np.asarray(x0, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    H, floored = measurement_jacobian(x0, params)
    C_tilde = C_sel @ H
    h0 = measure_h(x0, params)
    c2 = C_sel @ (h0 - H @ x0)
    return LinearizedMeasurement(C_tilde, c2, x0, floored)
