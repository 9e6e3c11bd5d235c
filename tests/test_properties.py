"""Properties of the flux kernel and of the linearization over random
networks, parameters, states and inputs.

Networks range over one to twelve mainline cells and always include the
edge cases: no ramps at all, and an on-ramp into cell 1 together with an
off-ramp at the last cell.  States lie inside the physical box, on its
faces and just outside it, with zero densities (and zero or positive
relative flows) among them.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arzest.linearize import jacobian_fu, jacobian_fx, linearize_model
from arzest.model import (
    ModelParams,
    _net_flux,
    OffRamp,
    OnRamp,
    Topology,
    compute_fluxes,
    nonlinear_f,
    state_bounds,
    step,
    step_batch,
    supply,
)

from stencil_oracles import columnwise_jacobians, columnwise_linearization

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150,
                    database=None)


@st.composite
def networks(draw) -> Topology:
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("none", "edges", "random")))
    if shape == "none":
        return Topology(n_mainline=n)
    # Boundary b sits between cells b and b+1; at most one ramp per boundary.
    on = {0} if shape == "edges" else set()
    off = {n} if shape == "edges" else set()
    on |= draw(st.sets(st.integers(0, n - 1), max_size=3))
    off |= draw(st.sets(st.integers(1, n), max_size=3)) - on
    alphas = draw(st.lists(st.floats(0.05, 0.95), min_size=len(off),
                           max_size=len(off)))
    return Topology(
        n_mainline=n,
        on_ramps=tuple(OnRamp(merge_into=b + 1) for b in sorted(on)),
        off_ramps=tuple(OffRamp(diverge_from=b, alpha=a)
                        for b, a in zip(sorted(off), alphas)),
    )


@st.composite
def model_params(draw) -> ModelParams:
    v_f = draw(st.floats(60.0, 140.0))
    l = draw(st.floats(0.05, 0.5))
    cfl = draw(st.floats(0.1, 1.0))
    return ModelParams(v_f=v_f, rho_m=draw(st.floats(150.0, 500.0)),
                       tau=draw(st.floats(1.5, 60.0)),
                       gamma=draw(st.floats(1.05, 3.0)),
                       T=cfl * l / v_f, l=l)


# Fractions of the box's upper face: inside, on both faces, just outside.
FRACTION = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    (0.0, 1.0, -1e-6, -1e-3, 1.0 + 1e-6, 1.0 + 1e-3)))


@st.composite
def cases(draw, rows=3):
    """A network, CFL-valid parameters, ``rows`` states with one input
    vector each, and an optional per-segment demand/supply scale."""
    topo = draw(networks())
    p = draw(model_params())
    _, hi = state_bounds(topo, p)
    X = np.array(draw(st.lists(
        st.lists(FRACTION, min_size=topo.n_x, max_size=topo.n_x),
        min_size=rows, max_size=rows))) * hi
    cap = p.rho_m * p.v_f / 4.0
    u_hi = [1.2 * cap, 2.0 * p.v_f, p.rho_m]
    u_hi += [cap, 2.0 * p.v_f] * topo.n_onramps + [p.rho_m] * topo.n_offramps
    U = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=topo.n_u, max_size=topo.n_u),
        min_size=rows, max_size=rows))) * u_hi
    scale = draw(st.one_of(st.none(), st.lists(
        st.floats(0.2, 1.0), min_size=topo.n_segments,
        max_size=topo.n_segments)))
    return topo, p, X, U, scale


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@PROPERTY
@given(cases())
def test_one_state_call_equals_its_population_row(case):
    """A state's net flux and branch-tie margins have the same bits alone
    as in a population, and ``compute_fluxes`` scatters the same flows."""
    topo, p, X, U, scale = case
    F, gaps = _net_flux(X, U, topo, p, ds_scale=scale)
    assert _same_bits(nonlinear_f(X, U, topo, p, ds_scale=scale), F)
    for x, u, f_row, gap_row in zip(X, U, F, gaps):
        f, gap = _net_flux(x, u, topo, p, ds_scale=scale)
        assert _same_bits(f, f_row)
        assert _same_bits(gap, gap_row)
        assert _same_bits(nonlinear_f(x, u, topo, p, ds_scale=scale), f_row)
        fl = compute_fluxes(x, u, topo, p, ds_scale=scale)
        assert _same_bits(fl.q_in - fl.q_out, f_row[0::2])
        assert _same_bits(fl.phi_in - fl.phi_out, f_row[1::2])
        assert fl.min_margin == gap_row.min()


@PROPERTY
@given(cases(rows=1))
def test_compute_fluxes_conserves_vehicles(case):
    topo, p, X, U, scale = case
    fl = compute_fluxes(X[0], U[0], topo, p, ds_scale=scale)
    stored = float(np.sum(fl.q_in - fl.q_out))
    net = (fl.entry_q + fl.onramp_entry_q.sum()
           - fl.exit_q - fl.offramp_exit_q.sum())
    size = max(1.0, float(np.sum(fl.q_in) + np.sum(fl.q_out)))
    assert abs(stored - net) <= 1e-9 * size


@PROPERTY
@given(cases())
def test_step_stays_in_box_without_blowup(case):
    topo, p, X, U, scale = case
    lo, hi = state_bounds(topo, p)
    for x, u in zip(X, U):
        x_new = step(x, u, topo, p, ds_scale=scale)
        assert np.all(x_new >= lo) and np.all(x_new <= hi)
    X_new = step_batch(X, U, topo, p, ds_scale=scale)
    assert np.all(X_new >= lo) and np.all(X_new <= hi)


@PROPERTY
@given(cases(rows=1))
def test_colored_stencil_matches_columnwise_stencil(case):
    topo, p, X, U, scale = case
    x0, u0 = X[0], U[0]
    lin = linearize_model(x0, u0, topo, p, ds_scale=scale)
    A, B, c1, tie = columnwise_linearization(x0, u0, topo, p, ds_scale=scale)
    assert _same_bits(lin.A_tilde, A)
    assert _same_bits(lin.B, B)
    assert _same_bits(lin.c1, c1)
    assert lin.branch_tie == tie
    for fn, (J, tie) in zip((jacobian_fx, jacobian_fu),
                            columnwise_jacobians(x0, u0, topo, p, ds_scale=scale)):
        J_got, tie_got = fn(x0, u0, topo, p, ds_scale=scale)
        assert _same_bits(J_got, J)
        assert tie_got == tie


def test_unperturbed_tie_counts_where_every_group_reads_the_boundary():
    """On a plain chain both input groups read the entry boundary, so every
    colored input row perturbs it.  A tie there in the unperturbed state is
    seen by the column-by-column stencil in its exit-density rows and must
    still be flagged."""
    topo = Topology(n_mainline=3)
    p = ModelParams(v_f=102.0, rho_m=345.0, tau=20.0, gamma=1.75,
                    T=1.0 / 3600.0, l=0.1)
    assert topo._jacobian.base["u"].size  # the premise: no group spares it
    # Free-flowing cells, so that only the entry boundary ties: its demand
    # equals the supply of cell 1, the capacity for w_in.
    x0 = np.array([40.0, 40.0 * 90.0, 60.0, 60.0 * 95.0, 40.0, 40.0 * 100.0])
    w_in = 102.0
    u0 = np.array([supply(x0[0], w_in, p), w_in, 30.0])
    (_, tie_x), (_, tie_u) = columnwise_jacobians(x0, u0, topo, p)
    assert tie_u
    assert jacobian_fu(x0, u0, topo, p)[1] == tie_u
    assert jacobian_fx(x0, u0, topo, p)[1] == tie_x
    assert linearize_model(x0, u0, topo, p).branch_tie
