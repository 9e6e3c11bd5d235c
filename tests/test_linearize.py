"""Affine model quality: exactness at the operating point, quadratic decay
of the remainder, and agreement of the analytic measurement Jacobian with
finite differences."""
import numpy as np
import pytest

from arzest.linearize import (
    FD_ABS_STEP,
    FD_REL_STEP,
    TIE_TOL,
    jacobian_fu,
    jacobian_fx,
    linearize_measurement,
    linearize_model,
    measurement_jacobian,
)
from arzest.model import (
    EPS_RHO,
    build_update_matrices,
    demand,
    equilibrium_state,
    measure_h,
    nonlinear_f,
    step,
    supply,
)

from conftest import paper_inputs, random_states

V_F = 102.0


def test_model_exact_at_operating_point(topo, params):
    """A_tilde x0 + B u0 + c1 reproduces the unclamped update at x0."""
    rng = np.random.default_rng(21)
    u0 = paper_inputs(topo)
    A, _ = build_update_matrices(topo, params)
    g = params.T / params.l
    for x0 in random_states(rng, topo, 100):
        lin = linearize_model(x0, u0, topo, params)
        affine = lin.A_tilde @ x0 + lin.B @ u0 + lin.c1
        exact = A @ x0 + g * nonlinear_f(x0, u0, topo, params)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(affine - exact)) / scale < 1e-9


def test_measurement_exact_at_operating_point(topo, params):
    rng = np.random.default_rng(22)
    C = np.eye(topo.n_x)[:6]
    for x0 in random_states(rng, topo, 100):
        lm = linearize_measurement(x0, C, params)
        affine = lm.C_tilde @ x0 + lm.c2
        exact = C @ measure_h(x0, params)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(affine - exact)) / scale < 1e-9


def subcritical_states(rng, topo, params, n):
    """Random states with every cell below its critical density.

    Above the critical density the sending capacity saturates, and at
    boundaries whose receiving side is also capacity-limited the two
    min-candidates coincide over a whole region, which trips the tie
    diagnostic by construction.  Sampling below keeps margins generic.
    """
    from arzest.model import sigma_crit
    X = np.empty((n, topo.n_x))
    for i in range(n):
        w = rng.uniform(40.0, V_F, topo.n_segments)
        rho = np.array([rng.uniform(10.0, 0.9 * sigma_crit(wi, params))
                        for wi in w])
        X[i, 0::2] = rho
        X[i, 1::2] = rho * w
    return X


def test_quadratic_remainder_decay(topo, params):
    """Halving the perturbation shrinks the affine-model error by about 4x."""
    rng = np.random.default_rng(23)
    u0 = paper_inputs(topo)
    A, _ = build_update_matrices(topo, params)
    g = params.T / params.l
    checked = 0
    for x0 in subcritical_states(rng, topo, params, 60):
        lin = linearize_model(x0, u0, topo, params)
        if lin.branch_tie:
            continue
        delta = rng.standard_normal(topo.n_x)
        delta[0::2] *= 0.2
        delta[1::2] *= 0.2 * V_F

        def err(d):
            x = x0 + d
            affine = lin.A_tilde @ x + lin.B @ u0 + lin.c1
            exact = A @ x + g * nonlinear_f(x, u0, topo, params)
            return float(np.linalg.norm(affine - exact))

        e1 = err(delta)
        e2 = err(0.5 * delta)
        if e1 < 1e-10:  # locally affine in this direction, ratio undefined
            continue
        assert 0.15 <= e2 / e1 <= 0.45
        checked += 1
    assert checked >= 30


def test_measurement_jacobian_vs_fd(topo, params):
    rng = np.random.default_rng(24)
    for x0 in random_states(rng, topo, 50, rho_lo=5.0):
        H, floored = measurement_jacobian(x0, params)
        assert not floored
        fd = np.empty_like(H)
        for i in range(x0.size):
            h = max(1e-6 * abs(x0[i]), 1e-6)
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (measure_h(xp, params) - measure_h(xm, params)) / (2 * h)
        assert np.max(np.abs(H - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_measurement_jacobian_density_floor(topo, params):
    x0 = equilibrium_state(topo, params, 20.0)
    x0[0] = 0.0
    x0[1] = 0.0
    _, floored = measurement_jacobian(x0, params)
    assert floored


def test_measurement_jacobian_matches_per_segment_loop(topo, params):
    """The vectorized Jacobian against one segment at a time in Python
    floats, floored cells included.  numpy's power and Python's ** may
    differ in the last bit, so the tolerance is a few units of it."""
    rng = np.random.default_rng(26)
    X = random_states(rng, topo, 20)
    X[0, 0::2] = 0.0
    X[1, 2], X[2, 4], X[3, 6] = EPS_RHO, 0.5 * EPS_RHO, 2.0 * EPS_RHO
    v_f, rho_m, gamma = params.v_f, params.rho_m, params.gamma
    for x0 in X:
        ref = np.zeros((x0.size, x0.size))
        for r in range(0, x0.size, 2):
            rho, psi = float(x0[r]), float(x0[r + 1])
            ref[r, r] = 1.0
            if rho > EPS_RHO:
                dp = v_f * gamma * rho ** (gamma - 1.0) / rho_m ** gamma
                ref[r + 1, r] = -psi / rho ** 2 - dp
                ref[r + 1, r + 1] = 1.0 / rho
            else:
                ref[r + 1, r + 1] = 1.0 / EPS_RHO
        H, floored = measurement_jacobian(x0, params)
        np.testing.assert_allclose(H, ref, rtol=8 * np.finfo(float).eps, atol=0)
        assert floored == bool(np.any(x0[0::2] <= EPS_RHO))


def test_jacobians_match_columnwise_reference(topo, params):
    """The stencil evaluated as one batch equals per-column evaluation."""
    rng = np.random.default_rng(25)
    u0 = paper_inputs(topo)
    x0 = random_states(rng, topo, 1)[0]

    Jx, _ = jacobian_fx(x0, u0, topo, params)
    ref = np.empty_like(Jx)
    for i in range(x0.size):
        h = max(FD_REL_STEP * abs(x0[i]), FD_ABS_STEP)
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        ref[:, i] = (nonlinear_f(xp, u0, topo, params)
                     - nonlinear_f(xm, u0, topo, params)) / (2 * h)
    np.testing.assert_allclose(Jx, ref, rtol=1e-9, atol=1e-9)

    Ju, _ = jacobian_fu(x0, u0, topo, params)
    refu = np.empty_like(Ju)
    for i in range(u0.size):
        h = max(FD_REL_STEP * abs(u0[i]), FD_ABS_STEP)
        up, um = u0.copy(), u0.copy()
        up[i] += h
        um[i] -= h
        refu[:, i] = (nonlinear_f(x0, up, topo, params)
                      - nonlinear_f(x0, um, topo, params)) / (2 * h)
    np.testing.assert_allclose(Ju, refu, rtol=1e-9, atol=1e-9)


def test_branch_tie_flag_on_constructed_tie(topo, params):
    """Balance demand and supply at one boundary and expect the flag."""
    x0 = equilibrium_state(topo, params, 96.0)
    D1 = demand(x0[0], V_F, params)

    # bisect the density of cell 2 so its supply equals cell 1's demand
    lo, hi = 150.0, 344.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if supply(mid, V_F, params) > D1:
            lo = mid
        else:
            hi = mid
    x_tie = x0.copy()
    x_tie[2] = 0.5 * (lo + hi)
    x_tie[3] = x_tie[2] * V_F

    assert abs(supply(x_tie[2], V_F, params) - D1) < TIE_TOL
    _, tie = jacobian_fx(x_tie, paper_inputs(topo), topo, params)
    assert tie
    # generic states do not trip it
    _, tie0 = jacobian_fx(x0, paper_inputs(topo), topo, params)
    assert not tie0


def test_linearized_model_tracks_small_steps(topo, params):
    """Rolling the affine model forward stays near the nonlinear update."""
    x0 = equilibrium_state(topo, params, 60.0)
    u0 = paper_inputs(topo)
    for _ in range(100):
        x0 = step(x0, u0, topo, params)
    lin = linearize_model(x0, u0, topo, params)
    x_aff = x0.copy()
    x_non = x0.copy()
    for _ in range(20):
        x_aff = lin.A_tilde @ x_aff + lin.B @ u0 + lin.c1
        x_non = step(x_non, u0, topo, params)
    err = np.max(np.abs(x_aff - x_non)) / max(1.0, np.max(np.abs(x_non)))
    assert err < 1e-3
