"""Filter baselines: prediction behavior, covariance health, determinism
and bound projection for the extended, unscented and ensemble variants."""
import math

import numpy as np
import pytest

from conftest import paper_inputs, warmed_state

from arzest import kalman
from arzest.kalman import (
    EstimatorConfig,
    EstimatorError,
    EstimatorState,
    KalmanRunner,
    _gain,
    _jittered,
    ekf_step,
    enkf_step,
    init_state,
    project_to_bounds,
    ukf_step,
)
from arzest.linearize import linearize_measurement, linearize_model
from arzest.model import (
    Topology,
    equilibrium_state,
    measure_h,
    state_bounds,
    state_scale,
    step,
    step_batch,
)
from arzest.scenarios import (
    EstimatorSpec,
    default_scenario,
    generate_truth,
    run_estimation,
)
from arzest.sensing import build_observation


def _empty_C(topo):
    return np.zeros((0, topo.n_x))


def test_config_validation():
    with pytest.raises(EstimatorError):
        EstimatorConfig(r=0.0)
    with pytest.raises(EstimatorError):
        EstimatorConfig(q=-1.0)
    with pytest.raises(EstimatorError):
        EstimatorConfig(ensemble_size=1)


def test_runner_rejects_unknown_kind(topo, params):
    with pytest.raises(EstimatorError):
        KalmanRunner("ikf", equilibrium_state(topo, params, 20.0),
                     EstimatorConfig(), topo, params)


@pytest.mark.parametrize("n_mainline", [1, 2])
def test_ukf_refuses_a_spread_it_cannot_draw_at_construction(params,
                                                             n_mainline):
    """With the default kappa = -4, n_x + kappa <= 0 on 1- and 2-cell
    networks, where the unscented spread alpha^2 (n_x + kappa) is not
    positive.  The runner says so when it is made, not at its first step;
    the other filters and a 3-cell UKF are made as before."""
    topo = Topology(n_mainline)
    x0 = equilibrium_state(topo, params, 20.0)
    with pytest.raises(EstimatorError) as err:
        KalmanRunner("ukf", x0, EstimatorConfig(), topo, params)
    msg = str(err.value)
    assert f"n_x = {topo.n_x}" in msg
    assert "kappa = -4.0" in msg
    assert "kappa > -n_x" in msg
    for kind in ("ekf", "enkf"):
        KalmanRunner(kind, x0, EstimatorConfig(), topo, params)
    topo3 = Topology(3)
    KalmanRunner("ukf", equilibrium_state(topo3, params, 20.0),
                 EstimatorConfig(), topo3, params)


def test_project_to_bounds(topo, params):
    lo, hi = state_bounds(topo, params)
    x = hi + 1.0
    assert np.all(project_to_bounds(x, lo, hi) == hi)
    X = np.vstack([lo - 1.0, hi + 1.0])
    P = project_to_bounds(X, lo, hi)
    assert np.all(P[0] == lo) and np.all(P[1] == hi)


def test_project_to_bounds_is_np_clip_bit_for_bit(topo, params):
    """The projection replaces ``np.clip`` by ufuncs whose results could
    in principle depend on numpy's loops, so pin it on the bytes: vectors
    of 1 to 40 entries and populations of them (SIMD bodies and scalar
    tails), with signed zeros, values at and beyond each bound and random
    values, against the physical box and against random array bounds.
    Populations have at least two columns, as every state does: over a
    single column numpy runs the loop along the population with the bound
    fixed, and ``np.clip``'s scalar-bound loop keeps a ``-0.0`` at 0."""
    rng = np.random.default_rng(11)

    def draws(lo, hi, shape):
        pool = np.stack(np.broadcast_arrays(
            0.0, -0.0, lo, hi, lo - 1.0, hi + 1.0, lo - 1e300, hi + 1e300,
            np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
            rng.uniform(lo - 1.0, hi + 1.0, shape)))
        pick = rng.integers(0, len(pool), shape)
        return np.take_along_axis(pool, pick[None], axis=0)[0]

    box = state_bounds(topo, params)
    for n in range(1, 41):
        lo = rng.uniform(-50.0, 0.0, n)
        lo[::3] = 0.0
        hi = lo + rng.uniform(0.0, 100.0, n)
        phys = tuple(np.resize(b, n) for b in box)
        for lo_, hi_ in ((lo, hi), phys):
            shapes = [(n,)] + [(m, n) for m in (1, 2, 7, 49, 100) if n > 1]
            for shape in shapes:
                x = draws(lo_, hi_, shape)
                assert (project_to_bounds(x, lo_, hi_).tobytes()
                        == np.clip(x, lo_, hi_).tobytes()), (n, shape)


def test_ekf_pure_prediction_matches_model(topo, params):
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    st = init_state(x0, EstimatorConfig(), topo, params, "ekf")
    st2 = ekf_step(st, u, np.zeros(0), _empty_C(topo), EstimatorConfig(),
                   topo, params)
    np.testing.assert_allclose(st2.x, step(x0, u, topo, params), rtol=1e-12)
    assert st2.k == 1


def test_ekf_empty_selector_takes_the_general_update(topo, params):
    """With no measurement rows the update solves a 0 x 0 system and
    returns the prediction of ``test_ekf_one_step_reference`` bit for bit."""
    cfg = EstimatorConfig()
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    st = init_state(x0, cfg, topo, params, "ekf")
    got = ekf_step(st, u, np.zeros(0), _empty_C(topo), cfg, topo, params)

    d = state_scale(topo, params)
    n = x0.size
    lin = linearize_model(x0, u, topo, params)
    As = lin.A_tilde * (d[None, :] / d[:, None])
    P_pred = As @ (cfg.p0 * np.eye(n)) @ As.T + cfg.q * np.eye(n)
    P_pred = 0.5 * (P_pred + P_pred.T)
    assert got.x.tobytes() == step(x0, u, topo, params).tobytes()
    assert got.P.tobytes() == P_pred.tobytes()
    assert got.jitter_events == 0


def test_ekf_one_step_reference(topo, params):
    """Replicate the scaled-space EKF update equations independently, bit
    for bit: the filter's state-block stencil and row picks must round as
    ``linearize_model`` and the selector product do."""
    cfg = EstimatorConfig()
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    C_sel = build_observation([1, 5, 9], topo)
    x_true = step(x0, u, topo, params)
    y = C_sel @ measure_h(x_true, params)

    st = init_state(x0, cfg, topo, params, "ekf")
    got = ekf_step(st, u, y, C_sel, cfg, topo, params)

    d = state_scale(topo, params)
    n = x0.size
    lin = linearize_model(x0, u, topo, params)
    As = lin.A_tilde * (d[None, :] / d[:, None])
    x_pred = step(x0, u, topo, params)
    P_pred = As @ (cfg.p0 * np.eye(n)) @ As.T + cfg.q * np.eye(n)
    P_pred = 0.5 * (P_pred + P_pred.T)
    lm = linearize_measurement(x_pred, C_sel, params)
    Cs = lm.C_tilde * d[None, :]
    S = Cs @ P_pred @ Cs.T + cfg.r * np.eye(C_sel.shape[0])
    K = np.linalg.solve(S, Cs @ P_pred).T
    innov = y - C_sel @ measure_h(x_pred, params)
    x_want = x_pred + d * (K @ innov)
    IKC = np.eye(n) - K @ Cs
    P_want = IKC @ P_pred @ IKC.T + cfg.r * (K @ K.T)
    P_want = 0.5 * (P_want + P_want.T)

    lo, hi = state_bounds(topo, params)
    assert got.x.tobytes() == np.clip(x_want, lo, hi).tobytes()
    assert got.P.tobytes() == P_want.tobytes()


def test_ukf_one_step_reference(topo, params):
    """Replicate the scaled-space UKF update with the selector product
    ``measure_h(...) @ C_sel.T``, bit for bit."""
    cfg = EstimatorConfig()
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    C_sel = build_observation([1, 5, 9, 11], topo)
    y = C_sel @ measure_h(step(x0, u, topo, params), params)

    st = init_state(x0, cfg, topo, params, "ukf")
    got = ukf_step(st, u, y, C_sel, cfg, topo, params)

    d = state_scale(topo, params)
    lo, hi = state_bounds(topo, params)
    n = x0.size
    lam = cfg.alpha ** 2 * (n + cfg.kappa) - n
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = lam / (n + lam) + (1.0 - cfg.alpha ** 2 + cfg.beta)
    L = np.linalg.cholesky((n + lam) * (cfg.p0 * np.eye(n)))
    sig = np.vstack([x0 / d, x0 / d + L.T, x0 / d - L.T])
    prop = step_batch(np.clip(sig * d, lo, hi), u, topo, params) / d
    x_pred = wm @ prop
    dev = prop - x_pred
    P_pred = (dev.T * wc) @ dev + cfg.q * np.eye(n)
    P_pred = 0.5 * (P_pred + P_pred.T)
    Y = measure_h(prop * d, params) @ C_sel.T
    dy = Y - wm @ Y
    S = (dy.T * wc) @ dy + cfg.r * np.eye(C_sel.shape[0])
    K = np.linalg.solve(S, ((dev.T * wc) @ dy).T).T
    x_want = np.clip((x_pred + K @ (y - wm @ Y)) * d, lo, hi)
    P_want = P_pred - K @ S @ K.T
    P_want = 0.5 * (P_want + P_want.T)

    assert got.x.tobytes() == x_want.tobytes()
    assert got.P.tobytes() == P_want.tobytes()
    assert got.jitter_events == 0


def test_enkf_one_step_reference(topo, params):
    """Replicate the EnKF update with the selector product
    ``measure_h(ens) @ C_sel.T`` and a twin generator, bit for bit."""
    cfg = EstimatorConfig()
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    C_sel = build_observation([1, 5, 9, 11], topo)
    y = C_sel @ measure_h(step(x0, u, topo, params), params)

    st = init_state(x0, cfg, topo, params, "enkf", np.random.default_rng(3))
    got = enkf_step(st, u, y, C_sel, cfg, topo, params,
                    np.random.default_rng(4))

    twin = np.random.default_rng(4)
    d = state_scale(topo, params)
    lo, hi = state_bounds(topo, params)
    M, n = st.ensemble.shape
    ens = step_batch(st.ensemble, u, topo, params)
    noise = twin.standard_normal((M, n)) * math.sqrt(cfg.q) * d
    ens = np.clip(ens + noise, lo, hi)
    Y = measure_h(ens, params) @ C_sel.T
    Xdev = ens / d - (ens / d).sum(axis=0) / M
    Ydev = Y - Y.sum(axis=0) / M
    P_xy = Xdev.T @ Ydev / (M - 1)
    P_yy = Ydev.T @ Ydev / (M - 1) + cfg.r * np.eye(C_sel.shape[0])
    K = np.linalg.solve(P_yy, P_xy.T).T
    half = math.sqrt(3.0 * cfg.r)
    pert = twin.uniform(-half, half, Y.shape)
    ens_want = np.clip((ens / d + (y + pert - Y) @ K.T) * d, lo, hi)

    assert got.ensemble.tobytes() == ens_want.tobytes()
    x_want = np.clip(ens_want.sum(axis=0) / M, lo, hi)
    assert got.x.tobytes() == x_want.tobytes()


@pytest.mark.parametrize("kind", ["ekf", "ukf", "enkf"])
def test_covariance_or_ensemble_stays_healthy(kind, topo, params):
    rng = np.random.default_rng(31)
    x0 = warmed_state(topo, params)
    run = KalmanRunner(kind, x0, EstimatorConfig(), topo, params,
                       np.random.default_rng(9))
    u = paper_inputs(topo)
    C = build_observation([3, 7, 9, 10, 11, 12], topo)
    x = x0.copy()
    for k in range(25):
        x = step(x, u, topo, params)
        y = C @ measure_h(x, params) + rng.uniform(-1.7, 1.7, C.shape[0])
        run.step(u, y, C)
        if kind != "enkf":
            P = run.state.P
            np.testing.assert_allclose(P, P.T, atol=1e-9)
            assert np.linalg.eigvalsh(P)[0] > -1e-9
        else:
            assert run.state.ensemble.shape == (100, topo.n_x)
    assert run.state.jitter_events == 0


@pytest.mark.parametrize("kind", ["ekf", "ukf", "enkf"])
def test_estimates_respect_bounds_under_large_noise(kind, topo, params):
    rng = np.random.default_rng(32)
    x0 = warmed_state(topo, params)
    run = KalmanRunner(kind, x0, EstimatorConfig(), topo, params,
                       np.random.default_rng(10))
    u = paper_inputs(topo)
    C = build_observation([9, 10, 11, 12], topo)
    lo, hi = state_bounds(topo, params)
    x = x0.copy()
    for k in range(20):
        x = step(x, u, topo, params)
        y = C @ measure_h(x, params) + rng.uniform(-70, 70, C.shape[0])
        x_hat = run.step(u, y, C)
        assert np.all(x_hat >= lo) and np.all(x_hat <= hi)


@pytest.mark.parametrize("kind", ["ekf", "ukf", "enkf"])
def test_noise_free_tracking(kind, topo, params):
    """Exact measurements of every segment keep the filter near truth."""
    x0 = warmed_state(topo, params)
    run = KalmanRunner(kind, x0, EstimatorConfig(), topo, params,
                       np.random.default_rng(11))
    u = paper_inputs(topo)
    C = build_observation(list(range(1, 13)), topo)
    x = x0.copy()
    for k in range(30):
        x = step(x, u, topo, params)
        x_hat = run.step(u, C @ measure_h(x, params), C)
    assert np.max(np.abs(x_hat[0::2] - x[0::2])) < 2.0


def test_enkf_deterministic_given_generator(topo, params):
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    C = build_observation([3, 9, 10, 11, 12], topo)

    def run(seed):
        rng_noise = np.random.default_rng(77)
        run_ = KalmanRunner("enkf", x0, EstimatorConfig(), topo, params,
                            np.random.default_rng(seed))
        x = x0.copy()
        out = []
        for k in range(10):
            x = step(x, u, topo, params)
            y = C @ measure_h(x, params) + rng_noise.uniform(-1.7, 1.7, C.shape[0])
            out.append(run_.step(u, y, C).copy())
        return np.asarray(out)

    a = run(5)
    b = run(5)
    c = run(6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_enkf_init_state_shape_and_bounds(topo, params):
    cfg = EstimatorConfig(ensemble_size=40)
    x0 = warmed_state(topo, params)
    st = init_state(x0, cfg, topo, params, "enkf", np.random.default_rng(4))
    assert st.ensemble.shape == (40, topo.n_x)
    lo, hi = state_bounds(topo, params)
    assert np.all(st.ensemble >= lo) and np.all(st.ensemble <= hi)
    np.testing.assert_array_equal(st.x, x0)


def test_ukf_spread_validation(topo, params):
    """n + lambda must stay positive for the sigma-point weights."""
    cfg = EstimatorConfig(alpha=0.1, kappa=-30.0)
    x0 = warmed_state(topo, params)
    st = init_state(x0, cfg, topo, params, "ukf")
    with pytest.raises(EstimatorError):
        ukf_step(st, paper_inputs(topo), np.zeros(0), _empty_C(topo), cfg,
                 topo, params)


def test_ekf_survives_floored_density_measurement(topo, params):
    """A measured cell pinned at zero density inflates the innovation
    covariance through the floored measurement Jacobian; the update must
    degrade gracefully instead of raising a linear-algebra error."""
    cfg = EstimatorConfig()
    x0 = warmed_state(topo, params)
    x0[0] = 0.0          # empty measured cell, large relative flow
    x0[1] = 3000.0
    x0[4] = 0.0          # second garbage row of the same magnitude
    x0[5] = 3000.0
    st = init_state(x0, cfg, topo, params, "ekf")
    C = build_observation([1, 3, 5], topo)
    u = paper_inputs(topo)
    y = np.zeros(C.shape[0])
    st2 = ekf_step(st, u, y, C, cfg, topo, params)
    lo, hi = state_bounds(topo, params)
    assert np.all(np.isfinite(st2.x))
    assert np.all(st2.x >= lo) and np.all(st2.x <= hi)
    assert np.all(np.isfinite(st2.P))


def test_ukf_pure_prediction_close_to_model(topo, params):
    """With a tight initial covariance the sigma mean tracks the step map."""
    x0 = warmed_state(topo, params)
    u = paper_inputs(topo)
    cfg = EstimatorConfig(p0=1e-6)
    st = init_state(x0, cfg, topo, params, "ukf")
    st2 = ukf_step(st, u, np.zeros(0), _empty_C(topo), cfg, topo, params)
    ref = step(x0, u, topo, params)
    assert np.max(np.abs(st2.x - ref)) < 1e-2


def _with_condition(cond, k=6, seed=0):
    """A symmetric k x k matrix with singular values from 1 to ``cond``."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (Q * np.geomspace(1.0, cond, k)) @ Q.T


def _gain_inputs_of_a_noise_1_run(monkeypatch, kind="ekf"):
    """Every (S, B, proof) the filter ``kind`` solves for on 20 reference
    steps at noise 1; ``proof`` holds the arguments after ``state``."""
    seen, real = [], kalman._gain

    def record(S, B, state, *proof, **kw):
        seen.append((S.copy(), np.array(B), proof + tuple(kw.values())))
        return real(S, B, state, *proof, **kw)

    sc = default_scenario(20, 1.0)
    with monkeypatch.context() as m:
        m.setattr(kalman, "_gain", record)
        run_estimation(sc, generate_truth(sc), EstimatorSpec(kind), seed=0)
    return seen


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrices ``_gain`` hands to ``_jittered`` and its SVD."""
    calls = []

    def spy(S, state):
        calls.append(S)
        return _jittered(S, state)

    monkeypatch.setattr(kalman, "_jittered", spy)
    return calls


def _assert_gain_is_the_jittered_solve(S, B, *proof):
    got_state, want_state = (EstimatorState(np.zeros(1)),
                             EstimatorState(np.zeros(1)))
    got = _gain(S, B, got_state, *proof)
    want = np.linalg.solve(_jittered(S, want_state), B)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous
    assert got_state.jitter_events == want_state.jitter_events
    return got_state.jitter_events


def test_gain_equals_the_jittered_solve_on_a_noise_1_run(monkeypatch,
                                                         svd_calls):
    """The proofs clear the innovation covariances of a noise-1 run of
    each filter without the SVD, and the gain is the plain solve's bit
    for bit."""
    for kind, proof in (("ekf", (1.0,)), ("enkf", (1.0,)),
                        ("ukf", (0.5, True))):
        seen = _gain_inputs_of_a_noise_1_run(monkeypatch, kind)
        assert len(seen) == 20
        svd_calls.clear()
        for S, B, used in seen:
            assert B.shape[1] > 1
            assert used == proof
            assert _assert_gain_is_the_jittered_solve(S, B, *used) == 0
        assert not svd_calls


def test_trace_proof_clears_what_the_residual_bound_could_not(svd_calls):
    """S = G G^T + r I with tr(S) <= 1e12 r is proven well conditioned by
    its trace, though ||S||_F ||S^-1||_F exceeds the 5e11 a residual bound
    on an approximate inverse needed; one column of B solves alike."""
    r = 1.0
    G = np.random.default_rng(2).standard_normal((14, 2)) * 1.5e5
    S = G @ G.T + r * np.eye(14)
    assert S.trace() <= 1e12 * r
    assert (np.linalg.norm(S) * np.linalg.norm(np.linalg.inv(S))) > 5e11
    B = np.random.default_rng(3).standard_normal((14, 24))
    for b in (B, B[:, :1]):
        assert _assert_gain_is_the_jittered_solve(S, b, r) == 0
    assert not svd_calls


def _ukf_style(lam_min, r=1.0, k=14, seed=4):
    """``sum_i wc_i dy_i dy_i^T + r I`` with the UKF's weights at n = 24,
    whose negative centre term ``wc_0 dy_0 dy_0^T`` pulls the smallest
    eigenvalue down to ``lam_min``."""
    n, alpha, kappa, beta = 24, 0.1, -4.0, 2.0
    lam = alpha ** 2 * (n + kappa) - n
    wc = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc[0] = lam / (n + lam) + (1.0 - alpha ** 2 + beta)
    assert wc[0] < 0
    dy = np.random.default_rng(seed).standard_normal((2 * n + 1, k))
    mu, V = np.linalg.eigh((dy[1:].T * wc[1:]) @ dy[1:] + r * np.eye(k))
    dy[0] = math.sqrt((mu[0] - lam_min) / -wc[0]) * V[:, 0]
    return (dy.T * wc) @ dy + r * np.eye(k)


@pytest.mark.parametrize("lam_min, svd", [(0.8, 0), (0.3, 1)])
def test_cholesky_proof_of_a_ukf_style_covariance(lam_min, svd, svd_calls):
    """A negative centre term can make S - r I indefinite.  Where
    S - (r/2) I still factors, the gain skips the SVD; where it does not,
    the SVD decides.  Either way the bits are the jittered solve's."""
    S = _ukf_style(lam_min)
    np.testing.assert_allclose(np.linalg.eigvalsh(S)[0], lam_min, rtol=1e-9)
    B = np.random.default_rng(5).standard_normal((14, 24))
    assert _assert_gain_is_the_jittered_solve(S, B, 0.5, True) == 0
    assert len(svd_calls) == svd


@pytest.mark.parametrize("proof", [(1.0,), (1.0, True)])
def test_trace_proof_stops_at_its_bound(proof, svd_calls):
    """cond 5e12 with a true eigenvalue floor of 1: the trace exceeds
    1e12, so neither proof clears it and the SVD decides."""
    S = _with_condition(5e12)
    B = np.random.default_rng(1).standard_normal((S.shape[0], 24))
    assert _assert_gain_is_the_jittered_solve(S, B, *proof) == 0
    assert len(svd_calls) == 1


@pytest.mark.parametrize("cond, events", [
    (5e12, 0),   # beyond the bound, but the SVD finds no need for a ridge
    (1e15, 1),   # ridge paths
    (1e30, 1),
])
def test_gain_equals_the_jittered_solve_at_any_condition(cond, events,
                                                         svd_calls):
    S = _with_condition(cond)
    B = np.random.default_rng(1).standard_normal((S.shape[0], 24))
    assert _assert_gain_is_the_jittered_solve(S, B) == events
    assert len(svd_calls) == 1


def test_gain_of_an_exactly_singular_matrix_takes_the_ridge(svd_calls):
    S = np.ones((4, 4))
    B = np.arange(4 * 24, dtype=float).reshape(4, 24)
    assert _assert_gain_is_the_jittered_solve(S, B) == 1
    assert len(svd_calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gain_refuses_a_non_finite_covariance(bad):
    S = _with_condition(10.0)
    S[2, 3] = bad
    B = np.ones((S.shape[0], 24))
    for solve in (lambda st: _gain(S, B, st), lambda st: _jittered(S, st)):
        with pytest.raises(EstimatorError,
                           match="innovation covariance is not finite"):
            solve(EstimatorState(np.zeros(1)))


@pytest.mark.parametrize("eig, events", [(-1e-12, 1), (-1.0, None)])
def test_ukf_covariance_jitter(topo, params, eig, events):
    """An indefinite P gets one ridge before its Cholesky factor; one the
    ridge cannot mend is refused."""
    cfg = EstimatorConfig()
    P = cfg.p0 * np.eye(topo.n_x)
    P[5, 5] = eig
    st = EstimatorState(warmed_state(topo, params), P=P)
    args = (st, paper_inputs(topo), np.zeros(0), _empty_C(topo), cfg, topo, params)
    if events is None:
        with pytest.raises(EstimatorError,
                           match="covariance is not positive definite"):
            ukf_step(*args)
    else:
        assert ukf_step(*args).jitter_events == events
