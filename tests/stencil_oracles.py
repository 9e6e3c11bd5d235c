"""Reference finite-difference linearization for the Jacobian tests.

A dense central-difference stencil, evaluated one column at a time: each
state or input column is perturbed on its own, as ``linearize_model`` did
before its stencil was colored.  Every number it returns is what the
colored stencil must reproduce bit for bit.
"""
import numpy as np

from arzest.linearize import FD_ABS_STEP, FD_REL_STEP, TIE_TOL
from arzest.model import _net_flux, build_update_matrices, nonlinear_f


def columnwise_jacobians(x0, u0, topo, params, ds_scale=None):
    """``((Jx, tie_x), (Ju, tie_u))`` from one +/- pair of population
    evaluations per column.

    A tie flag is set when any stencil state has two flux candidates closer
    than ``TIE_TOL`` at some boundary.  The margins come from the flux
    kernel the stencil uses; the public API does not expose them.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    out = []
    for v, of_x in ((x0, True), (u0, False)):
        h = np.maximum(FD_REL_STEP * np.abs(v), FD_ABS_STEP)
        Jt = np.empty((v.size, x0.size))
        tie = False
        for j in range(v.size):
            e = np.zeros(v.size)
            e[j] = h[j]
            pair = np.vstack([v + e, v - e])
            X, U = (pair, np.vstack([u0, u0])) if of_x else (np.vstack([x0, x0]), pair)
            F, margins = _net_flux(X, U, topo, params, ds_scale)
            Jt[j] = (F[0] - F[1]) / (2.0 * h[j])
            tie |= bool(np.min(margins) < TIE_TOL)
        out.append((Jt.T, tie))
    return tuple(out)


def columnwise_linearization(x0, u0, topo, params, ds_scale=None):
    """``(A_tilde, B, c1, branch_tie)`` of ``linearize_model`` from the
    column-by-column stencil."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    (Jx, tie_x), (Ju, tie_u) = columnwise_jacobians(x0, u0, topo, params, ds_scale)
    A, _ = build_update_matrices(topo, params)
    g = params.T / params.l
    f0 = nonlinear_f(x0, u0, topo, params, ds_scale)
    return A + g * Jx, g * Ju, g * (f0 - Jx @ x0 - Ju @ u0), tie_x or tie_u
