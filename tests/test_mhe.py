"""Moving-horizon estimator tests.

The QP assembly is checked against a direct evaluation of the windowed
objective, and the box-QP solver (projected Newton) against brute-force
active-set enumeration on small instances and on small windows.  A session
with injected affine hooks must recover an affine truth exactly (to solver
tolerance).
"""
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import paper_inputs, warmed_state
from qp_oracles import (
    brute_force_box_qp,
    dense_assemble_qp,
    direct_objective,
    random_buffer,
    random_small_qp,
)

from arzest import mhe
from arzest.kalman import EstimatorConfig, EstimatorError
from arzest.linearize import LinearizedMeasurement, linearize_measurement, linearize_model
from arzest.mhe import (
    HorizonEntry,
    MheConfig,
    MheSession,
    QPProblem,
    assemble_qp,
    operating_point,
    predict_arrival,
    solve_box_qp,
)
from arzest.model import (
    measure_h,
    state_bounds,
    state_scale,
    step,
)
from arzest.scenarios import (
    EstimatorSpec,
    JamSpec,
    default_scenario,
    generate_truth,
    run_estimation,
)
from arzest.sensing import (
    build_observation,
    positions_at,
    synthesize_measurements,
)

# ---------------------------------------------------------------------------
# QP assembly against a direct objective evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6])
def test_qp_matches_direct_objective(horizon):
    rng = np.random.default_rng(100 + horizon)
    cfg = MheConfig(horizon=horizon)
    n_x = 6
    for trial in range(20):
        n_steps = rng.integers(1, horizon + 3)
        buf = random_buffer(rng, horizon, int(n_steps), n_x=n_x)
        x_bar = rng.standard_normal(n_x)
        lo = np.full(n_x, -10.0)
        hi = np.full(n_x, 10.0)
        qp = assemble_qp(buf, x_bar, cfg, lo, hi)
        n_b = qp.n_blocks
        assert n_b == buf.latest_time - buf.window_start() + 1
        for _ in range(5):
            z = rng.uniform(-3, 3, n_b * n_x)
            quad = float(z @ qp.H @ z + qp.q @ z) + qp.const
            direct = direct_objective(buf, x_bar, cfg, z.reshape(n_b, n_x))
            assert quad == pytest.approx(direct, rel=1e-8, abs=1e-8)


def test_qp_weights_enter_objective():
    rng = np.random.default_rng(42)
    buf = random_buffer(rng, 3, 4)
    x_bar = rng.standard_normal(6)
    lo, hi = np.full(6, -10.0), np.full(6, 10.0)
    cfg = MheConfig(horizon=3, mu=0.5, w1=2.0, w2=7.0)
    qp = assemble_qp(buf, x_bar, cfg, lo, hi)
    z = rng.uniform(-2, 2, qp.n_blocks * 6)
    quad = float(z @ qp.H @ z + qp.q @ z) + qp.const
    direct = direct_objective(buf, x_bar, cfg, z.reshape(qp.n_blocks, 6))
    assert quad == pytest.approx(direct, rel=1e-8)


WEIGHT_SETS = [(1.0, 1.0, 1.0), (0.5, 2.0, 7.0), (1.0, 0.0, 1.0),
               (1.0, 1.0, 0.0)]


@pytest.mark.parametrize("weights", WEIGHT_SETS)
def test_band_assembly_matches_the_dense_oracle(weights):
    """The band assembled from the entries' cached terms gives the dense
    oracle's H, q and const bit for bit: horizons 0-6, growing windows,
    w1 = 0 or w2 = 0, and steps with no measurement.  Each buffer is
    assembled under ``weights``, then under every other weight set in
    turn and under ``weights`` again, so a term that an entry formed under
    one set of weights and a window read under another would show.  The
    band product agrees with the dense H z to roundoff."""
    i = WEIGHT_SETS.index(weights)
    order = WEIGHT_SETS[i:] + WEIGHT_SETS[:i] + [weights]
    rng = np.random.default_rng(600)
    n_x = 6
    for horizon in range(7):
        for n_steps in range(1, horizon + 3):
            blind = {t for t in range(1, n_steps + 1) if rng.random() < 0.3}
            buf = random_buffer(rng, horizon, n_steps, n_x=n_x, blind=blind)
            x_bar = rng.standard_normal(n_x)
            lo, hi = np.full(n_x, -10.0), np.full(n_x, 10.0)
            z = None
            for mu, w1, w2 in order:
                cfg = MheConfig(horizon=horizon, mu=mu, w1=w1, w2=w2)
                qp = assemble_qp(buf, x_bar, cfg, lo, hi)
                H, q, const = dense_assemble_qp(buf, x_bar, cfg, lo, hi)
                np.testing.assert_array_equal(qp.H, H)
                np.testing.assert_array_equal(qp.q, q)
                assert qp.const == const
                np.testing.assert_array_equal(qp.z_min,
                                              np.tile(lo, qp.n_blocks))
                np.testing.assert_array_equal(qp.z_max,
                                              np.tile(hi, qp.n_blocks))
                if z is None:
                    z = rng.uniform(-3, 3, H.shape[0])
                err = np.abs(mhe._band_matvec(qp.D, qp.E, z) - H @ z)
                assert np.all(err <= 1e-14 * (np.abs(H) @ np.abs(z)))


def test_horizon_entry_is_frozen():
    entry = random_buffer(np.random.default_rng(1), 2, 2).entries[-1]
    with pytest.raises(FrozenInstanceError):
        entry.A_s = np.zeros_like(entry.A_s)
    with pytest.raises(ValueError):
        entry.A_s[0, 0] = 1.0
    with pytest.raises(ValueError):
        entry.CtC[0, 0] = 1.0


def _outside_band(n_x, n_blocks):
    """Mask of the entries outside the block-tridiagonal band."""
    b = np.arange(n_x * n_blocks) // n_x
    return np.abs(b[:, None] - b[None, :]) > 1


def test_qp_hessian_positive_definite():
    """H is symmetric positive definite, and exactly zero outside the
    block-tridiagonal band, which is all the block elimination reads."""
    rng = np.random.default_rng(43)
    for horizon in (1, 3, 5):
        buf = random_buffer(rng, horizon, horizon + 2)
        qp = assemble_qp(buf, rng.standard_normal(6), MheConfig(horizon=horizon),
                         np.full(6, -10.0), np.full(6, 10.0))
        assert np.allclose(qp.H, qp.H.T, atol=1e-12)
        assert np.linalg.eigvalsh(qp.H)[0] > 0
        assert np.all(qp.H[_outside_band(qp.n_x, qp.n_blocks)] == 0.0)


def _held_decoupled(H, held):
    """H with the held rows and columns zeroed and their diagonal kept."""
    out = H.copy()
    out[held, :] = 0.0
    out[:, held] = 0.0
    out[held, held] = np.diag(H)[held]
    return out


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6])
def test_block_solve_matches_dense_solve(horizon):
    """Block elimination along the window agrees with a dense solve on
    window Hessians, growing windows included, and on copies with held
    coordinates decoupled: random masks, one block fully held, and every
    coordinate held.  The decoupled band is the band of the decoupled H
    exactly.  A single block is the dense solve exactly."""
    rng = np.random.default_rng(500 + horizon)
    cfg = MheConfig(horizon=horizon)
    n_x = 6
    for n_steps in range(1, horizon + 3):
        buf = random_buffer(rng, horizon, n_steps, n_x=n_x)
        qp = assemble_qp(buf, rng.standard_normal(n_x), cfg,
                         np.full(n_x, -10.0), np.full(n_x, 10.0))
        n_z = qp.H.shape[0]
        block = np.arange(n_z) // n_x
        masks = [np.zeros(n_z, bool), rng.random(n_z) < 0.3,
                 rng.random(n_z) < 0.7, block == rng.integers(qp.n_blocks),
                 np.ones(n_z, bool)]
        for held in masks:
            H = _held_decoupled(qp.H, held)
            D, E = mhe._held_decoupled_band(qp.D, qp.E, held)
            np.testing.assert_array_equal(
                QPProblem(None, qp.q, qp.z_min, qp.z_max, 0.0, qp.n_blocks,
                          n_x, D, E).H, H)
            rhs = rng.standard_normal(n_z)
            x = mhe._solve_blocks(D, E, rhs)
            x_dense = np.linalg.solve(H, rhs)
            if qp.n_blocks == 1:
                np.testing.assert_array_equal(x, x_dense)
            else:
                np.testing.assert_allclose(
                    x, x_dense, rtol=0, atol=1e-12 * np.abs(x_dense).max())
            np.testing.assert_allclose(x[held], rhs[held] / np.diag(H)[held],
                                       rtol=1e-14)


def test_block_solve_raises_on_a_singular_pivot():
    """With no measurement and no model weight, every block after the
    arrival block is zero."""
    rng = np.random.default_rng(44)
    buf = random_buffer(rng, 3, 4)
    qp = assemble_qp(buf, rng.standard_normal(6),
                     MheConfig(horizon=3, w1=0.0, w2=0.0),
                     np.full(6, -10.0), np.full(6, 10.0))
    assert qp.n_blocks == 4
    with pytest.raises(np.linalg.LinAlgError):
        mhe._solve_blocks(qp.D, qp.E, qp.q)


def test_buffer_rejects_time_gap():
    buf = random_buffer(np.random.default_rng(0), 3, 2)
    entry = buf.entries[-1]
    bad = HorizonEntry(time=entry.time + 2, C_s=entry.C_s, resid=entry.resid,
                       A_s=entry.A_s, r=entry.r)
    with pytest.raises(ValueError):
        buf.push(bad)


@pytest.mark.parametrize("config, setting, value", [
    (MheConfig, "tol_kkt", math.nan), (MheConfig, "w1", math.nan),
    (MheConfig, "w2", math.inf), (MheConfig, "mu", math.nan),
    (MheConfig, "horizon", 2.0), (MheConfig, "max_iter", 2.5),
    (EstimatorConfig, "alpha", math.nan), (EstimatorConfig, "q", math.nan),
    (EstimatorConfig, "r", math.inf), (EstimatorConfig, "kappa", -math.inf),
    (EstimatorConfig, "ensemble_size", 50.0),
])
def test_configs_refuse_non_finite_numbers_and_non_integer_counts(
        config, setting, value):
    """Each of these was accepted, to end in flagged solves, a blow-up or a
    TypeError at the first step; the refusal names the setting."""
    with pytest.raises((ValueError, EstimatorError),
                       match=rf"^{setting} must be (an integer|a finite)"):
        config(**{setting: value})


def test_operating_point_and_config_validation():
    with pytest.raises(ValueError):
        operating_point([])
    with pytest.raises(ValueError):
        MheConfig(horizon=-1)
    with pytest.raises(ValueError):
        MheConfig(mu=-0.1)
    with pytest.raises(ValueError):
        MheConfig(mu=0.0, w2=0.0)


# ---------------------------------------------------------------------------
# Box-QP solver against brute-force enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solver_matches_brute_force(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(20):
        qp = random_small_qp(rng, n)
        z_star, f_star = brute_force_box_qp(qp.H, qp.q, qp.z_min, qp.z_max)
        z, info = solve_box_qp(qp, tol_kkt=1e-10, max_iter=20000)
        assert info.converged
        f = float(z @ qp.H @ z + qp.q @ z)
        assert f <= f_star + 1e-6 * (1.0 + abs(f_star))
        np.testing.assert_allclose(z, z_star, rtol=1e-5, atol=1e-5)


def test_solver_output_feasible_exactly():
    rng = np.random.default_rng(300)
    for _ in range(50):
        qp = random_small_qp(rng, 5)
        qp.q[:] = -50.0  # push the optimum against the upper bounds
        z, _ = solve_box_qp(qp)
        assert np.all(z >= qp.z_min)
        assert np.all(z <= qp.z_max)


def test_solver_history_monotone_within_noise():
    rng = np.random.default_rng(301)
    for _ in range(10):
        qp = random_small_qp(rng, 6)
        _, info = solve_box_qp(qp, tol_kkt=1e-10, max_iter=20000)
        hist = np.asarray(info.objective_history)
        assert np.all(np.diff(hist) <= info.noise_floor + 1e-15)


def test_solver_immediate_convergence_at_optimum():
    rng = np.random.default_rng(302)
    qp = random_small_qp(rng, 4)
    z, info = solve_box_qp(qp, tol_kkt=1e-9, max_iter=20000)
    assert info.converged
    z2, info2 = solve_box_qp(qp, tol_kkt=1e-8, z0=z)
    assert info2.converged and info2.iterations == 0
    np.testing.assert_allclose(z2, z, atol=1e-12)


def test_solver_reports_exhaustion():
    rng = np.random.default_rng(303)
    qp = random_small_qp(rng, 6)
    _, info = solve_box_qp(qp, tol_kkt=1e-14, max_iter=1)
    assert not info.converged
    assert info.iterations == 1


def _check_newton_against_brute_force(qp, pushed):
    if pushed:
        qp.q[:] = -50.0  # push the optimum against the upper bounds
    z_star, f_star = brute_force_box_qp(qp.H, qp.q, qp.z_min, qp.z_max)
    z, info = solve_box_qp(qp, tol_kkt=1e-10)
    assert info.converged
    assert np.all(z >= qp.z_min) and np.all(z <= qp.z_max)
    if pushed:
        assert np.any(z == qp.z_max)
    f = float(z @ qp.H @ z + qp.q @ z)
    assert f <= f_star + 1e-6 * (1.0 + abs(f_star))
    np.testing.assert_allclose(z, z_star, rtol=1e-5, atol=1e-5)
    return info


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("pushed", [False, True])
def test_newton_matches_brute_force(n, pushed):
    rng = np.random.default_rng(400 + n)
    for _ in range(20):
        _check_newton_against_brute_force(random_small_qp(rng, n), pushed)


@pytest.mark.parametrize("pushed", [False, True])
def test_newton_matches_brute_force_on_windows(pushed):
    """Window QPs of several blocks (n_z 6: 3 blocks of 2, 2 blocks of 3),
    whose start point and Newton steps the block elimination solves, in
    boxes that cut off their unconstrained minimiser."""
    rng = np.random.default_rng(420 + pushed)
    iterated = 0
    for n_x, n_blocks in [(2, 3), (3, 2)] * 10:
        buf = random_buffer(rng, n_blocks - 1, n_blocks, n_x=n_x, n_u=2,
                            n_y=2)
        center = rng.standard_normal(n_x)
        width = rng.uniform(0.2, 2.0, n_x)
        qp = assemble_qp(buf, rng.standard_normal(n_x),
                         MheConfig(horizon=n_blocks - 1),
                         center - width, center + width)
        assert qp.n_blocks == n_blocks
        iterated += _check_newton_against_brute_force(qp, pushed).iterations > 0
    assert iterated > 0


def test_newton_interior_optimum_is_the_direct_solve():
    rng = np.random.default_rng(304)
    qp = random_small_qp(rng, 6)
    z_direct = np.linalg.solve(qp.H, -0.5 * qp.q)
    qp.z_min, qp.z_max = z_direct - 1.0, z_direct + 1.0
    z, info = solve_box_qp(qp)
    assert info.converged and info.iterations == 0
    np.testing.assert_array_equal(z, z_direct)


def test_newton_accepts_a_gradient_at_its_roundoff_floor():
    """With |q| of 1e10 the gradient 2Hz + q of a well-conditioned QP
    cannot be computed to 1e-8 anywhere: its rounding error is of order
    eps |q|.  Every coordinate stays below its floor eps (2|H||z| + |q|),
    so the direct solve is accepted at once and the floor is recorded."""
    rng = np.random.default_rng(306)
    for _ in range(10):
        M = rng.standard_normal((6, 6))
        H = (M.T @ M + np.eye(6)) * 1e4
        q = rng.uniform(-1.0, 1.0, 6) * 1e10
        qp = QPProblem(H, q, np.full(6, -1e12), np.full(6, 1e12), const=0.0,
                       n_blocks=1, n_x=6)
        z, info = solve_box_qp(qp)
        assert info.kkt_residual > 1e-8
        assert info.converged and info.iterations == 0
        assert info.kkt_residual <= info.kkt_floor
        np.testing.assert_array_equal(z, np.linalg.solve(H, -0.5 * q))
    # The floor is computed only once the plain test fails.
    _, info = solve_box_qp(random_small_qp(rng, 6))
    assert info.converged and info.kkt_floor == 0.0


@pytest.mark.parametrize("weights, name", [
    (dict(w1=0.0, w2=0.0), "w2"), (dict(mu=0.0), "mu")])
def test_session_refuses_a_zero_arrival_or_model_weight(topo, params, weights,
                                                       name):
    """Without the arrival or the model weight the window Hessian can be
    singular, so the session refuses the configuration and names the
    weight."""
    x0 = warmed_state(topo, params, steps=50)
    with pytest.raises(ValueError, match=f"positive {name}"):
        MheSession(x0, MheConfig(horizon=2, **weights), topo, params)


def _noisy_session_run(topo, params, cfg=MheConfig(), steps=20):
    x0 = warmed_state(topo, params)
    sess = MheSession(x0.copy(), cfg, topo, params)
    u = paper_inputs(topo)
    C = build_observation([9, 10, 11, 12], topo)
    rng = np.random.default_rng(7)
    x = x0.copy()
    est, infos = [], []
    for _ in range(steps):
        x = step(x, u, topo, params)
        y = C @ measure_h(x, params) + rng.uniform(-40, 40, C.shape[0])
        est.append(sess.step(u, y, C))
        infos.append(sess.last_info)
    return sess, np.array(est), infos


def test_exhausted_newton_budget_is_flagged(topo, params):
    """Windows whose optimum touches a bound need Newton iterations; with no
    budget for them the session keeps the clipped direct solve, counts each
    such step as a failed solve, and stays in the box."""
    _, _, infos = _noisy_session_run(topo, params)
    assert any(i.iterations > 0 for i in infos)
    sess, est, infos = _noisy_session_run(topo, params, MheConfig(max_iter=0))
    assert all(i.iterations == 0 for i in infos)
    assert sess.last_info is infos[-1]
    assert sess.failed_solves == sum(not i.converged for i in infos) > 0
    assert sess.events == {"qp_fail": sess.failed_solves}
    lo, hi = state_bounds(topo, params)
    assert np.all(est >= lo) and np.all(est <= hi)


def test_noise_40_sweep_inputs_solve_every_qp():
    """The noise-sweep inputs (80-step reference twin, jam on cell 7 from
    step 5, noise 40, seed 0) solve every QP.  Projected gradient alone
    leaves five of them at its iteration cap."""
    sc = default_scenario(80, 40.0, (EstimatorSpec("mhe"),))
    sc = replace(sc, jam=JamSpec(segment=7, start=5, end=80))
    res = run_estimation(sc, generate_truth(sc), EstimatorSpec("mhe"), seed=0)
    assert "qp_fail" not in res.flags, res.flags


def _objective_roundoff(qp, z):
    """A bound on the rounding error of evaluating z'Hz + q'z."""
    az = np.abs(z)
    return 8.0 * np.finfo(float).eps * float(
        az @ (np.abs(qp.H) @ az) + np.abs(qp.q) @ az)


def test_newton_results_in_a_session_pass_the_solve_checks(monkeypatch):
    """Every Newton solve of the noise-sweep inputs (noise 40 and 0) lies in
    the box, is no worse than the clipped direct solve it starts from, and
    where the direct solve lies inside the box, is within the gap of the KKT
    tolerance of its objective."""
    solves = []

    def recording(qp, tol_kkt, max_iter):
        z, info = newton(qp, tol_kkt, max_iter)
        solves.append((qp, tol_kkt, z, info))
        return z, info

    newton = mhe.solve_box_qp
    monkeypatch.setattr(mhe, "solve_box_qp", recording)
    sc = default_scenario(80, 40.0, (EstimatorSpec("mhe"),))
    sc = replace(sc, jam=JamSpec(segment=7, start=5, end=80))
    truth = generate_truth(sc)
    for noise in (40.0, 0.0):
        run_estimation(replace(sc, noise_std=noise), truth,
                       EstimatorSpec("mhe"), seed=0)
    assert len(solves) == 160
    interior = iterated = 0
    for qp, tol_kkt, z, info in solves:
        assert info.converged
        assert np.all(z >= qp.z_min) and np.all(z <= qp.z_max)
        f = float(z @ (qp.H @ z) + qp.q @ z)
        z_direct = np.linalg.solve(qp.H, -0.5 * qp.q)
        start = np.clip(z_direct, qp.z_min, qp.z_max)
        f_start = float(start @ (qp.H @ start) + qp.q @ start)
        slack = _objective_roundoff(qp, z) + _objective_roundoff(qp, start)
        assert f <= f_start + slack
        iterated += info.iterations > 0
        if np.all(z_direct >= qp.z_min) and np.all(z_direct <= qp.z_max):
            interior += 1
            lam_min = float(np.linalg.eigvalsh(qp.H)[0])
            gap = z.size * tol_kkt ** 2 / (4.0 * lam_min)
            assert f_start - slack <= f <= f_start + gap + slack
    assert interior > 0 and iterated > 0


# ---------------------------------------------------------------------------
# Session behavior on the real model
# ---------------------------------------------------------------------------


def test_session_startup_window_grows(topo, params):
    x0 = warmed_state(topo, params)
    cfg = MheConfig(horizon=4)
    sess = MheSession(x0, cfg, topo, params)
    u = paper_inputs(topo)
    C = build_observation([9, 10, 11, 12], topo)
    for k in range(1, 8):
        y = C @ measure_h(step_n(x0, u, topo, params, k), params)
        sess.step(u, y, C)
        assert sess.buffer.latest_time == k
        assert sess.buffer.window_start() == max(0, k - 4)
        assert len(sess.buffer.entries) == min(k, 5)


def test_session_entry_holds_the_residual_maps_of_its_linearization(
        topo, params):
    """After one step the new entry holds, byte for byte, what independent
    linearizations at x0 give in the scaled space: the measurement map
    ``(C_tilde D, y - c2)``, the model map ``(D^-1 A_tilde D, (D^-1 B) u +
    D^-1 c1)`` and the arrival ``step(x0, u)``; its cached products are
    formed from them.  At step 1 the operating point is x0 itself."""
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    C = build_observation([2, 5, 9, 11, 12], topo)
    rng = np.random.default_rng(5)
    y = (C @ measure_h(step(x0, u, topo, params), params)
         + rng.uniform(-40, 40, C.shape[0]))
    sess = MheSession(x0, MheConfig(), topo, params)
    sess.step(u, y, C)
    entry = sess.buffer.entries[-1]
    lin = linearize_model(x0, u, topo, params)
    lm = linearize_measurement(x0, C, params)
    d = state_scale(topo, params)
    C_s = lm.C_tilde * d
    resid = y - lm.c2
    A_s = lin.A_tilde * (d[None, :] / d[:, None])
    r = (lin.B / d[:, None]) @ u + lin.c1 / d
    expected = {
        "C_s": C_s, "resid": resid, "A_s": A_s, "r": r,
        "arrival": step(x0, u, topo, params),
        "CtC": C_s.T @ C_s, "Cty": C_s.T @ resid,
        "yy": np.float64(resid @ resid),
        "AtA": A_s.T @ A_s, "Atr": A_s.T @ r, "rr": np.float64(r @ r),
    }
    assert entry.time == 1
    for name, want in expected.items():
        got = np.asarray(getattr(entry, name))
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def step_n(x, u, topo, params, n):
    for _ in range(n):
        x = step(x, u, topo, params)
    return x


def test_session_converges_and_tracks(topo, params):
    """Noise-free measurements on the real model: estimates stay close."""
    params_ = params
    x0 = warmed_state(topo, params_)
    sess = MheSession(x0.copy(), MheConfig(), topo, params_)
    u = paper_inputs(topo)
    C = build_observation([1, 3, 7, 9, 10, 11, 12], topo)
    x = x0.copy()
    for k in range(1, 41):
        x = step(x, u, topo, params_)
        y = C @ measure_h(x, params_)
        x_hat = sess.step(u, y, C)
        assert sess.last_info.converged
        assert sess.last_info.kkt_residual <= 1e-8
    assert sess.failed_solves == 0
    err = np.max(np.abs(x_hat[0::2] - x[0::2]))
    assert err < 1.0  # veh/km on a steady run


def test_session_estimates_within_bounds(topo, params):
    x0 = warmed_state(topo, params)
    sess = MheSession(x0.copy(), MheConfig(), topo, params)
    u = paper_inputs(topo)
    C = build_observation([9, 10, 11, 12], topo)
    lo, hi = state_bounds(topo, params)
    rng = np.random.default_rng(7)
    x = x0.copy()
    for k in range(1, 31):
        x = step(x, u, topo, params)
        y = C @ measure_h(x, params) + rng.uniform(-40, 40, C.shape[0])
        x_hat = sess.step(u, y, C)
        assert np.all(x_hat >= lo) and np.all(x_hat <= hi)


def test_exact_recovery_with_affine_hooks(topo, params):
    """With a frozen affine model and affine measurements, the estimator
    must reproduce the affine truth to solver tolerance."""
    x_eq = warmed_state(topo, params)
    u = paper_inputs(topo)
    lin = linearize_model(x_eq, u, topo, params)
    C_sel = build_observation([1, 3, 7, 9, 10, 11, 12], topo)
    lm = linearize_measurement(x_eq, C_sel, params)

    def affine_step(x):
        return lin.A_tilde @ x + lin.B @ u + lin.c1

    sess = MheSession(x_eq.copy(), MheConfig(), topo, params)
    sess.linearize = lambda x, u_, x_prev, C: (lin, lm, affine_step(x_prev))
    x = x_eq.copy()
    worst = 0.0
    for k in range(1, 31):
        x = affine_step(x)
        y = lm.C_tilde @ x + lm.c2
        x_hat = sess.step(u, y, C_sel)
        worst = max(worst, float(np.max(np.abs(x_hat - x))))
    assert worst < 1e-6


@pytest.fixture(scope="module")
def reference_truth():
    sc = default_scenario(500, 1.0)
    return sc, generate_truth(sc)


@pytest.mark.parametrize("noise", [1.0, 40.0])
def test_fused_arrival_matches_the_predictor_hook(reference_truth, noise):
    """The arrival a default session takes from its linearization's flux
    call is the one ``predict_arrival`` gives: over 200 reference steps with
    seed 3's noise stream (that of ``run_estimation``), a session whose
    ``linearize`` takes the arrival from ``predict_arrival`` returns the
    same bits and flags the same unconverged solves, among them step 156's
    at noise 40."""
    sc, truth = reference_truth
    topo, params = sc.topo, sc.params
    fused = MheSession(truth.traj[0], MheConfig(), topo, params)
    hooked = MheSession(truth.traj[0], MheConfig(), topo, params)
    hooked.linearize = lambda x, u, x_prev, C: (
        linearize_model(x, u, topo, params),
        linearize_measurement(x, C, params),
        predict_arrival(x_prev, u, topo, params))
    noise_ss, _ = np.random.SeedSequence(3).spawn(2)
    rng = np.random.default_rng(noise_ss)
    unconverged = []
    for k in range(1, 201):
        C = build_observation(positions_at(sc.schedule, topo, k - 1), topo)
        y = synthesize_measurements(truth.obs[k], C, noise, rng)
        a = fused.step(sc.inputs[k - 1], y, C)
        b = hooked.step(sc.inputs[k - 1], y, C)
        assert a.tobytes() == b.tobytes(), k
        assert fused.last_info.converged == hooked.last_info.converged
        if not fused.last_info.converged:
            unconverged.append(k)
    assert fused.failed_solves == hooked.failed_solves == len(unconverged)
    assert unconverged == ([156] if noise == 40.0 else [])
