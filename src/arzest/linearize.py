"""Taylor linearization of the network update and measurement maps.

The update ``x+ = A x + G f(x, u)`` is linearized about an operating point
``(x0, u0)`` into ``x+ ~= A_tilde x + B u + c1`` with finite-difference
Jacobians of ``f``; the constant ``c1`` is chosen so the affine model is
exact at the operating point.  The measurement map is linearized with the
analytic Jacobian of ``measure_h``.
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
    """Affine update model, exact at (x0, u0)."""

    A_tilde: np.ndarray
    B: np.ndarray
    c1: np.ndarray
    x0: np.ndarray
    u0: np.ndarray
    branch_tie: bool = False


@dataclass
class LinearizedMeasurement:
    """Affine measurement model C_tilde x + c2, exact at x0."""

    C_tilde: np.ndarray
    c2: np.ndarray
    x0: np.ndarray
    density_floored: bool = False


def _stencils(x0, u0, topo: Topology, params: ModelParams, ds_scale=None):
    """Central-difference Jacobians of f w.r.t. the state and the input.

    Both stencils are evaluated in one population call.  Returns
    ``((Jx, tie_x), (Ju, tie_u))``; a tie flag marks a stencil that met a
    flux branch tie.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    n, m = x0.size, u0.size
    hx = np.maximum(FD_REL_STEP * np.abs(x0), FD_ABS_STEP)
    hu = np.maximum(FD_REL_STEP * np.abs(u0), FD_ABS_STEP)
    X = np.vstack([x0 + np.diag(hx), x0 - np.diag(hx),
                   np.broadcast_to(x0, (2 * m, n))])
    U = np.vstack([np.broadcast_to(u0, (2 * n, m)),
                   u0 + np.diag(hu), u0 - np.diag(hu)])
    F, margins = _net_flux(X, U, topo, params, ds_scale)
    out = []
    for F_k, g_k, h in ((F[:2 * n], margins[:2 * n], hx),
                        (F[2 * n:], margins[2 * n:], hu)):
        k = h.size
        J = ((F_k[:k] - F_k[k:]) / (2.0 * h)[:, None]).T
        out.append((J, bool(np.min(g_k) < TIE_TOL)))
    return tuple(out)


def jacobian_fx(x0, u0, topo: Topology, params: ModelParams,
                ds_scale=None) -> tuple[np.ndarray, bool]:
    """Central-difference Jacobian of f w.r.t. the state.

    Returns (J, branch_tie).  Columns touching a flux branch tie are still
    returned; the flag marks the result as suspect for diagnostics.
    """
    return _stencils(x0, u0, topo, params, ds_scale)[0]


def jacobian_fu(x0, u0, topo: Topology, params: ModelParams,
                ds_scale=None) -> tuple[np.ndarray, bool]:
    """Central-difference Jacobian of f w.r.t. the input."""
    return _stencils(x0, u0, topo, params, ds_scale)[1]


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
    (Jx, tie_x), (Ju, tie_u) = _stencils(x0, u0, topo, params, ds_scale)
    A_tilde = A + g * Jx
    B = g * Ju
    c1 = g * (f0 - Jx @ x0 - Ju @ u0)
    return LinearizedModel(A_tilde, B, c1, x0, u0, tie_x or tie_u)


def measurement_jacobian(x0, params: ModelParams,
                         eps_rho: float = EPS_RHO) -> tuple[np.ndarray, bool]:
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
        if rho > eps_rho:
            dp = v_f * gamma * rho ** (gamma - 1.0) / rho_m ** gamma
            H[ps, r] = -psi / rho ** 2 - dp
            H[ps, ps] = 1.0 / rho
        else:
            floored = True
            H[ps, r] = 0.0
            H[ps, ps] = 1.0 / eps_rho
    return H, floored


def linearize_measurement(x0, C_sel, params: ModelParams,
                          eps_rho: float = EPS_RHO) -> LinearizedMeasurement:
    """Affine measurement model through a row selector C_sel.

    ``c2`` makes the affine map exact at x0:
    ``C_tilde x0 + c2 = C_sel measure_h(x0)``.
    """
    x0 = np.asarray(x0, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    H, floored = measurement_jacobian(x0, params, eps_rho)
    C_tilde = C_sel @ H
    h0 = measure_h(x0, params, eps_rho)
    c2 = C_sel @ (h0 - H @ x0)
    return LinearizedMeasurement(C_tilde, c2, x0, floored)
