"""Fundamental diagram values, flux branches, junction conservation and the
batched evaluation path.

Reference numbers were computed independently from the closed-form
expressions (see the inline formulas next to each literal) and frozen here.
"""
import math
import pickle
import re

import numpy as np
import pytest

from arzest.model import (
    EPS_RHO,
    BlowupError,
    ModelError,
    ModelParams,
    OffRamp,
    OnRamp,
    StepDiagnostics,
    Topology,
    _box_and_scale,
    compute_fluxes,
    demand,
    equilibrium_speed,
    equilibrium_state,
    flux_diverge,
    flux_merge,
    flux_one_to_one,
    measure_h,
    nonlinear_f,
    pack_inputs,
    pressure,
    pressure_gradient,
    psi_index,
    rho_index,
    sigma_crit,
    speeds_from_state,
    state_bounds,
    state_scale,
    step,
    step_batch,
    supply,
)

from conftest import paper_inputs, random_states

V_F, RHO_M, GAMMA = 102.0, 345.0, 1.75


# ---------------------------------------------------------------------------
# Fundamental diagram
# ---------------------------------------------------------------------------


def test_pressure_reference_values(params):
    # v_f * (rho/rho_m)**gamma at rho = rho_m/2
    assert pressure(172.5, params) == pytest.approx(30.324781432569385, rel=1e-14)
    assert pressure(0.0, params) == 0.0
    assert pressure(RHO_M, params) == pytest.approx(V_F, rel=1e-14)


def test_pressure_monotone_and_gradient(params):
    rhos = np.linspace(1.0, 344.0, 50)
    ps = [pressure(r, params) for r in rhos]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    # central difference vs analytic slope
    for r in (10.0, 172.5, 300.0):
        h = 1e-4 * r
        fd = (pressure(r + h, params) - pressure(r - h, params)) / (2 * h)
        assert pressure_gradient(r, params) == pytest.approx(fd, rel=1e-6)
    assert pressure_gradient(0.0, params) == 0.0


@pytest.mark.parametrize("gamma, limit", [
    (0.5, math.inf),        # v_f gamma rho^(gamma-1) / rho_m^gamma diverges
    (1.0, V_F / RHO_M),     # p is linear: the slope is v_f/rho_m throughout
    (GAMMA, 0.0),
])
def test_pressure_gradient_at_zero_is_the_one_sided_limit(params, gamma,
                                                          limit):
    p = ModelParams(V_F, RHO_M, params.tau, gamma, params.T, params.l)
    assert pressure_gradient(0.0, p) == limit
    near = [pressure_gradient(10.0 ** -k, p) for k in (4, 8, 12)]
    if math.isinf(limit):
        assert near[0] < near[1] < near[2] and near[2] > 1e6
    else:
        assert near[2] == pytest.approx(limit, abs=1e-10)
        assert abs(near[2] - limit) <= abs(near[0] - limit)


def test_pressure_rejects_negative_density(params):
    with pytest.raises(ModelError):
        pressure(-1.0, params)


def test_equilibrium_speed_endpoints(params):
    assert equilibrium_speed(0.0, params) == V_F
    assert equilibrium_speed(RHO_M, params) == pytest.approx(0.0, abs=1e-12)


def test_sigma_crit_reference_value(params):
    # rho_m * (w / (v_f * (1+gamma)))**(1/gamma) at w = v_f
    s = sigma_crit(V_F, params)
    assert s == pytest.approx(193.5404923203796, rel=1e-14)
    # pressure at the critical density is w / (1 + gamma)
    assert pressure(s, params) == pytest.approx(V_F / (1.0 + GAMMA), rel=1e-12)
    with pytest.raises(ModelError):
        sigma_crit(0.0, params)


def test_demand_supply_reference_values(params):
    assert demand(50.0, V_F, params) == pytest.approx(4926.386190233808, rel=1e-14)
    assert demand(300.0, V_F, params) == pytest.approx(12562.53741061373, rel=1e-14)
    assert supply(50.0, V_F, params) == pytest.approx(12562.53741061373, rel=1e-14)
    assert supply(300.0, V_F, params) == pytest.approx(6639.261144760957, rel=1e-14)


def test_demand_supply_branch_shape(params):
    s = sigma_crit(V_F, params)
    cap = demand(s, V_F, params)
    # demand rises with density up to the critical point, then saturates
    assert demand(50.0, V_F, params) < demand(150.0, V_F, params) < cap
    assert demand(250.0, V_F, params) == pytest.approx(cap, rel=1e-12)
    # supply is the mirror image
    assert supply(100.0, V_F, params) == pytest.approx(cap, rel=1e-12)
    assert supply(250.0, V_F, params) < supply(200.0, V_F, params) < cap


def test_demand_supply_continuity_at_breakpoint(params):
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.uniform(5.0, 2.0 * V_F)
        s = sigma_crit(w, params)
        scale = max(1.0, demand(s, w, params))
        dd = abs(demand(s * (1 + 1e-9), w, params) - demand(s * (1 - 1e-9), w, params))
        ds = abs(supply(s * (1 + 1e-9), w, params) - supply(s * (1 - 1e-9), w, params))
        assert dd / scale < 1e-9
        assert ds / scale < 1e-9


def test_demand_supply_zero_cases(params):
    assert demand(0.0, V_F, params) == 0.0
    assert demand(100.0, 0.0, params) == 0.0
    assert supply(100.0, 0.0, params) == 0.0
    # nearly full cell with slow incoming traffic: supply floors at zero
    assert supply(344.9, 10.0, params) == 0.0
    with pytest.raises(ModelError):
        demand(-1.0, V_F, params)
    with pytest.raises(ModelError):
        supply(100.0, -1.0, params)


def test_measurement_map(params):
    topo1 = Topology(n_mainline=1)
    x = np.array([100.0, 8000.0])
    h = measure_h(x, params)
    assert h[0] == 100.0
    # psi/rho - p(rho)
    assert h[1] == pytest.approx(68.3207015783255, rel=1e-14)
    assert speeds_from_state(x, params)[0] == h[1]
    # density floor keeps the speed row finite on an empty cell
    h0 = measure_h(np.array([0.0, 0.0]), params)
    assert np.isfinite(h0).all()
    del topo1


# ---------------------------------------------------------------------------
# Parameter and topology validation
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ModelError):
        ModelParams(v_f=-1, rho_m=345, tau=20, gamma=1.75, T=1 / 3600, l=0.1)
    with pytest.raises(ModelError):
        ModelParams(v_f=102, rho_m=345, tau=0.5, gamma=1.75, T=1 / 3600, l=0.1)
    with pytest.raises(ModelError, match="CFL"):
        ModelParams(v_f=102, rho_m=345, tau=20, gamma=1.75, T=1 / 360, l=0.1)
    with pytest.raises(ModelError, match=r"rho_m \*\* gamma overflows"):
        ModelParams(v_f=102, rho_m=1e6, tau=20, gamma=100, T=1 / 3600, l=0.1)
    with pytest.raises(ModelError, match=r"rho_m \*\* gamma underflows .*"
                       r"rho_m = 0\.5, gamma = 2000"):
        ModelParams(v_f=102, rho_m=0.5, tau=20, gamma=2000, T=1 / 3600, l=0.1)


def test_topology_validation():
    with pytest.raises(ModelError):
        Topology(n_mainline=0)
    with pytest.raises(ModelError):
        Topology(n_mainline=5, on_ramps=(OnRamp(merge_into=7),))
    with pytest.raises(ModelError):
        Topology(n_mainline=5, off_ramps=(OffRamp(diverge_from=2, alpha=1.5),))
    # two junctions on one mainline boundary
    with pytest.raises(ModelError):
        Topology(n_mainline=5, on_ramps=(OnRamp(merge_into=3),),
                 off_ramps=(OffRamp(diverge_from=2, alpha=0.2),))


def test_segment_ids_and_layout(topo):
    assert topo.n_segments == 12
    assert topo.n_x == 24
    assert topo.n_u == 3 + 2 * 1 + 2
    assert topo.onramp_segment(1) == 10
    assert topo.offramp_segment(1) == 11
    assert topo.offramp_segment(2) == 12
    assert rho_index(1) == 0 and psi_index(1) == 1
    assert rho_index(12) == 22 and psi_index(12) == 23


def test_state_bounds_and_scale(topo, params):
    lo, hi = state_bounds(topo, params)
    assert np.all(lo == 0.0)
    assert np.all(hi[0::2] == RHO_M)
    assert np.all(hi[1::2] == RHO_M * V_F)
    d = state_scale(topo, params)
    assert np.all(d[0::2] == 1.0)
    assert np.all(d[1::2] == V_F)


def test_pack_inputs_layout(topo):
    u = pack_inputs(topo, 8800.0, 102.0, 30.0, (600.0,), (102.0,), (20.0, 25.0))
    assert u.shape == (7,)
    assert list(u) == [8800.0, 102.0, 30.0, 600.0, 102.0, 20.0, 25.0]
    with pytest.raises(ModelError):
        pack_inputs(topo, 8800.0, 102.0, 30.0, (), (), (20.0, 25.0))


# ---------------------------------------------------------------------------
# Junction fluxes
# ---------------------------------------------------------------------------


def test_flux_one_to_one_branches(params):
    # demand-limited: free upstream, empty downstream
    up = (50.0, 50.0 * V_F)
    q, phi = flux_one_to_one(up, (20.0, 20.0 * V_F), params)
    assert q == pytest.approx(demand(50.0, V_F, params), rel=1e-14)
    assert phi == pytest.approx(q * V_F, rel=1e-14)
    # supply-limited: congested downstream
    q2, _ = flux_one_to_one((300.0, 300.0 * V_F), (340.0, 340.0 * 40.0), params)
    assert q2 == pytest.approx(supply(340.0, V_F, params), rel=1e-14)
    # empty upstream sends nothing
    assert flux_one_to_one((0.0, 0.0), (20.0, 2040.0), params) == (0.0, 0.0)


def test_flux_merge_conservation_and_priority(params):
    rng = np.random.default_rng(5)
    for _ in range(300):
        rho_m_, rho_r, rho_d = rng.uniform(1.0, 340.0, 3)
        w_m, w_r = rng.uniform(5.0, V_F, 2)
        main = (rho_m_, rho_m_ * w_m)
        ramp = (rho_r, rho_r * w_r)
        down = (rho_d, rho_d * V_F)
        q_m, phi_m, q_r, phi_r, q_d, phi_d = flux_merge(main, ramp, down, params)
        assert q_m >= 0 and q_r >= 0 and q_d >= 0
        assert abs(q_m + q_r - q_d) <= 1e-12 * max(1.0, q_d)
        assert abs(phi_m + phi_r - phi_d) <= 1e-9 * max(1.0, phi_d)
        # demand-proportional split
        D_m = demand(rho_m_, w_m, params)
        D_r = demand(rho_r, w_r, params)
        if D_m + D_r > 0 and q_d > 0:
            assert q_m / q_d == pytest.approx(D_m / (D_m + D_r), rel=1e-9)


def test_flux_merge_degenerate(params):
    out = flux_merge((0.0, 0.0), (0.0, 0.0), (50.0, 50.0 * V_F), params)
    assert out[:6] == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)[:6]


def test_flux_diverge_split_and_conservation(params):
    rng = np.random.default_rng(6)
    for _ in range(300):
        rho_u, rho_o, rho_d = rng.uniform(1.0, 340.0, 3)
        w_u = rng.uniform(5.0, V_F)
        alpha = rng.uniform(0.05, 0.95)
        q_u, phi_u, q_o, phi_o, q_d, phi_d = flux_diverge(
            (rho_u, rho_u * w_u), (rho_d, rho_d * V_F), (rho_o, rho_o * w_u),
            alpha, params)
        assert q_o == pytest.approx(alpha * q_u, rel=1e-14, abs=1e-14)
        assert abs(q_o + q_d - q_u) <= 1e-12 * max(1.0, q_u)
        assert abs(phi_o + phi_d - phi_u) <= 1e-12 * max(1.0, phi_u)
        # never exceeds any candidate bound
        D = demand(rho_u, w_u, params)
        assert q_u <= D * (1 + 1e-12)
        assert alpha * q_u <= supply(rho_o, w_u, params) * (1 + 1e-12)


def test_diverge_supply_limited(params):
    # tiny off-ramp supply throttles the whole upstream flux
    q_u, _, q_o, _, _, _ = flux_diverge(
        (150.0, 150.0 * V_F), (20.0, 20.0 * V_F), (344.99, 344.99 * 5.0),
        0.2, params)
    assert q_o == pytest.approx(supply(344.99, V_F, params), rel=1e-9, abs=1e-9)
    assert q_u == pytest.approx(q_o / 0.2, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Network assembly, stepping, conservation
# ---------------------------------------------------------------------------


def test_compute_fluxes_interior_consistency(topo, params):
    rng = np.random.default_rng(7)
    x = random_states(rng, topo, 1)[0]
    u = paper_inputs(topo)
    fl = compute_fluxes(x, u, topo, params)
    assert np.all(fl.q_in >= 0) and np.all(fl.q_out >= 0)
    assert np.all(fl.phi_in >= 0) and np.all(fl.phi_out >= 0)
    # plain interior boundary: outflow of cell 1 enters cell 2
    assert fl.q_out[0] == fl.q_in[1]
    assert fl.phi_out[0] == fl.phi_in[1]


def test_global_conservation_over_run(topo, params):
    """Density change times cell length equals net boundary flow times T."""
    x = equilibrium_state(topo, params, 60.0)
    u = paper_inputs(topo)
    for _ in range(200):
        fl = compute_fluxes(x, u, topo, params)
        x_next = step(x, u, topo, params)
        dveh = (x_next[0::2] - x[0::2]).sum() * params.l
        net = (fl.entry_q + fl.onramp_entry_q.sum()
               - fl.exit_q - fl.offramp_exit_q.sum()) * params.T
        total = x[0::2].sum() * params.l
        assert abs(dveh - net) <= 1e-9 * max(1.0, total)
        x = x_next


def test_step_relaxation_row():
    """Single cell, no flow: the relative flow relaxes toward v_f * rho."""
    params = ModelParams(v_f=102.0, rho_m=345.0, tau=20.0, gamma=1.75,
                         T=1.0 / 3600.0, l=0.1)
    topo1 = Topology(n_mainline=1)
    x = np.array([80.0, 80.0 * 50.0])
    u = pack_inputs(topo1, 0.0, 0.0, 345.0)  # blocked both ends
    got = step(x, u, topo1, params)
    f = nonlinear_f(x, u, topo1, params)
    r = params.T / params.l
    want_rho = 80.0 + r * f[0]
    want_psi = (1 - 1 / 20.0) * 4000.0 + r * f[1] + (102.0 / 20.0) * 80.0
    assert got[0] == pytest.approx(want_rho, rel=1e-14)
    assert got[1] == pytest.approx(want_psi, rel=1e-14)


def test_step_clamps_and_counts(params):
    """Fast incoming traffic can push a jammed cell over the density cap."""
    topo1 = Topology(n_mainline=1)
    x = np.array([345.0, 345.0 * 102.0])
    u = pack_inputs(topo1, 30000.0, 204.0, 344.0)
    diag = StepDiagnostics()
    got = step(x, u, topo1, params, diag=diag)
    assert got[0] == 345.0  # clipped at jam density
    assert diag.clamped >= 1


def test_step_blowup_raises(topo, params):
    x = equilibrium_state(topo, params, 60.0)
    x[0] = math.nan
    with pytest.raises(BlowupError):
        step(x, paper_inputs(topo), topo, params)


def test_step_respects_physical_box(topo, params):
    rng = np.random.default_rng(8)
    lo, hi = state_bounds(topo, params)
    u = paper_inputs(topo)
    for x in random_states(rng, topo, 100):
        x_new = step(x, u, topo, params)
        assert np.all(x_new >= lo) and np.all(x_new <= hi)


def test_equilibrium_state_layout(topo, params):
    x = equilibrium_state(topo, params, 20.0)
    assert np.all(x[0::2] == 20.0)
    assert np.all(x[1::2] == 20.0 * V_F)


# ---------------------------------------------------------------------------
# Batched evaluation path
# ---------------------------------------------------------------------------


def test_batch_matches_scalar_f(topo, params):
    rng = np.random.default_rng(9)
    X = random_states(rng, topo, 200, rho_lo=0.0, w_lo=0.0)
    u = paper_inputs(topo)
    F = nonlinear_f(X, u, topo, params)
    for i in range(X.shape[0]):
        f = nonlinear_f(X[i], u, topo, params)
        np.testing.assert_allclose(F[i], f, rtol=1e-9, atol=1e-9)


def test_batch_matches_scalar_step_and_measure(topo, params):
    rng = np.random.default_rng(10)
    X = random_states(rng, topo, 100)
    u = paper_inputs(topo)
    S = step_batch(X, u, topo, params)
    H = measure_h(X, params)
    for i in range(X.shape[0]):
        np.testing.assert_allclose(S[i], step(X[i], u, topo, params),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(H[i], measure_h(X[i], params),
                                   rtol=1e-12, atol=1e-12)


def test_batch_per_row_inputs(topo, params):
    """An (M, n_u) input array applies row i's input to state row i."""
    rng = np.random.default_rng(12)
    X = random_states(rng, topo, 20)
    U = np.empty((20, topo.n_u))
    for i in range(20):
        U[i] = pack_inputs(topo, rng.uniform(0, 12000), rng.uniform(10, 102),
                           rng.uniform(5, 300), (rng.uniform(0, 1500),),
                           (rng.uniform(10, 102),),
                           (rng.uniform(5, 100), rng.uniform(5, 100)))
    F = nonlinear_f(X, U, topo, params)
    for i in range(20):
        np.testing.assert_allclose(F[i], nonlinear_f(X[i], U[i], topo, params),
                                   rtol=1e-9, atol=1e-9)


def test_batch_scaled_demand_supply(topo, params):
    """Per-segment demand/supply scaling matches the scalar path."""
    rng = np.random.default_rng(13)
    X = random_states(rng, topo, 50)
    u = paper_inputs(topo)
    scales = np.ones(topo.n_segments)
    scales[6] = 0.3
    F = nonlinear_f(X, u, topo, params, ds_scale=scales)
    for i in range(X.shape[0]):
        np.testing.assert_allclose(
            F[i], nonlinear_f(X[i], u, topo, params, ds_scale=scales),
            rtol=1e-9, atol=1e-9)


def test_step_batch_blowup(topo, params):
    X = np.vstack([equilibrium_state(topo, params, 60.0)] * 3)
    X[1, 4] = math.inf
    with pytest.raises(BlowupError):
        step_batch(X, paper_inputs(topo), topo, params)


@pytest.mark.parametrize("order, want", [((0, 1, 2, 3, 4), (10, -math.inf)),
                                         ((0, 1, 3, 2, 4), (10, math.inf))])
def test_step_batch_blowup_names_the_first_index_of_any_row(topo, params,
                                                            order, want):
    """A population whose rows blow up at state indices 14, 10, 10 and 12
    reports index 10, with the value of the first row non-finite there."""
    u = paper_inputs(topo)
    X = np.vstack([equilibrium_state(topo, params, 60.0)] * 5)
    for row, (i, v) in enumerate([(14, -math.inf), (10, -math.inf),
                                  (10, math.inf), (12, math.inf)], 1):
        X[row, i] = v
    X = X[list(order)]
    alone = []
    for x in X[1:]:
        with pytest.raises(BlowupError) as one:
            step(x, u, topo, params)
        alone.append((one.value.index, one.value.value))
    assert min(alone, key=lambda iv: iv[0]) == want
    with np.errstate(invalid="ignore"), pytest.raises(BlowupError) as err:
        step_batch(X, u, topo, params)
    assert (err.value.index, err.value.value) == want


def test_step_rejects_wrong_input_length(topo, params):
    x = equilibrium_state(topo, params, 60.0)
    u = paper_inputs(topo)
    for bad in (u[:-1], np.append(u, 20.0), u[:1]):
        with pytest.raises(ModelError, match="inputs"):
            step(x, bad, topo, params)
        with pytest.raises(ModelError, match="inputs"):
            step_batch(x[None, :], bad, topo, params)


def _shapes(*shapes):
    """A pattern matching the shapes in order, anywhere in a message."""
    return ".*".join(re.escape(str(s)) for s in shapes)


@pytest.mark.parametrize("extra", [-2, -1, 1])
def test_kernel_names_a_state_of_the_wrong_width(topo, params, extra):
    x = equilibrium_state(topo, params, 60.0)
    bad = np.resize(x, x.size + extra)
    u = paper_inputs(topo)
    for call, states in ((step, bad), (nonlinear_f, bad),
                         (compute_fluxes, bad), (step_batch, bad[None, :])):
        with pytest.raises(ModelError, match=_shapes(topo.n_x, states.shape)):
            call(states, u, topo, params)


def test_kernel_names_inputs_that_do_not_fit_the_states(topo, params):
    """Per-row inputs must broadcast to the states' stack shape, one state
    takes one input vector and ``compute_fluxes`` takes one state; each
    error names the expected and the given shape."""
    x = equilibrium_state(topo, params, 60.0)
    u = paper_inputs(topo)
    X, U = np.vstack([x] * 5), np.vstack([u] * 3)
    with pytest.raises(ModelError, match=_shapes((5, topo.n_u), (3, topo.n_u))):
        step_batch(X, U, topo, params)
    for call in (step, nonlinear_f, compute_fluxes):
        with pytest.raises(ModelError,
                           match=_shapes((topo.n_u,), (3, topo.n_u))):
            call(x, U, topo, params)
    with pytest.raises(ModelError, match=_shapes((topo.n_x,), X[:2].shape)):
        compute_fluxes(X[:2], u, topo, params)
    # Inputs that numpy broadcasts to the states' stack are accepted.
    np.testing.assert_array_equal(step_batch(X, u[None, :], topo, params),
                                  step_batch(X, u, topo, params))


# ---------------------------------------------------------------------------
# Per-network caches
# ---------------------------------------------------------------------------


def test_equal_networks_hash_equal_and_share_cached_arrays(topo, params):
    """The per-network caches are keyed on equality: an equal but distinct
    network and parameter set, built afresh or unpickled with its stored
    hash, finds the same read-only arrays."""
    twins = [
        (Topology(topo.n_mainline, list(topo.on_ramps),
                  list(topo.off_ramps)),
         ModelParams(**{f: getattr(params, f) for f in
                        ("v_f", "rho_m", "tau", "gamma", "T", "l")})),
        pickle.loads(pickle.dumps((topo, params))),
    ]
    hash(topo), hash(params)  # the unpickled copies carry the stored hash
    for topo2, params2 in twins:
        assert topo2 is not topo and params2 is not params
        assert topo2 == topo and params2 == params
        assert hash(topo2) == hash(topo) and hash(params2) == hash(params)
        for a, b in zip(_box_and_scale(topo, params),
                        _box_and_scale(topo2, params2)):
            assert a is b and not a.flags.writeable
    # Distinct parameters with the same state size get their own arrays.
    other = ModelParams(v_f=90.0, rho_m=RHO_M, tau=20.0, gamma=GAMMA,
                        T=1.0 / 3600.0, l=0.1)
    ratio = _box_and_scale(topo, other)[3]
    d = state_scale(topo, other)
    assert ratio is not _box_and_scale(topo, params)[3]
    assert ratio.tobytes() == (d[None, :] / d[:, None]).tobytes()
