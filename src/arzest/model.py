"""Discrete second-order traffic network model with ramp junctions.

A highway is a chain of mainline cells plus single-cell on-ramps and
off-ramps.  Each cell i carries two states: density ``rho_i`` (veh/km) and
relative flow ``psi_i`` (veh/h).  The driver characteristic of a cell is
``w_i = psi_i / rho_i`` (km/h) and its speed is ``v_i = w_i - p(rho_i)``
where ``p`` is the traffic pressure.  Cell updates follow a Godunov scheme:
densities change by net flux, relative flows additionally relax toward
``v_f * rho`` with a per-step relaxation factor ``1 - 1/tau``.

Internal units are km, hours, veh/km and veh/h throughout; the step length
``T`` is in hours and the cell length ``l`` in km.

State layout: ``[rho_1, psi_1, ..., rho_N, psi_N]`` for the mainline,
followed by one ``(rho, psi)`` pair per on-ramp, then one per off-ramp.
Input layout: ``[D_in, w_in, rho_out]`` followed by ``(D_in_j, w_in_j)``
per on-ramp and ``rho_out_l`` per off-ramp.

Every flux crosses a boundary: mainline boundaries 0..N (b between cells b
and b+1), one entry per on-ramp and one exit per off-ramp.  A ``Topology``
compiles once into a table of boundary legs: an upstream main leg, an
optional merging ramp leg, a downstream leg and an optional diverging off
leg with split alpha.  Plain boundaries, ramp entries and ramp exits have
neither optional leg.  One junction formula (``_junctions``) serves every
boundary, so nothing branches on the kind of junction, and one kernel
evaluates it for one state and for a population alike (see "The flux
kernel" below for what a single state costs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "EPS_RHO",
    "ModelError",
    "BlowupError",
    "ModelParams",
    "OnRamp",
    "OffRamp",
    "Topology",
    "rho_index",
    "psi_index",
    "state_bounds",
    "state_scale",
    "pressure",
    "pressure_gradient",
    "equilibrium_speed",
    "sigma_crit",
    "demand",
    "supply",
    "flux_one_to_one",
    "flux_merge",
    "flux_diverge",
    "FluxSet",
    "compute_fluxes",
    "nonlinear_f",
    "build_update_matrices",
    "StepDiagnostics",
    "step",
    "measure_h",
    "speeds_from_state",
    "equilibrium_state",
    "pack_inputs",
    "step_batch",
]

# Density floor used wherever a division by rho would blow up.
EPS_RHO = 1e-6


class ModelError(Exception):
    """Invalid model input or parameterization."""


class BlowupError(ModelError):
    """A state update produced a non-finite value."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-finite state at index {index}: {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters shared by every cell.

    Parameters
    ----------
    v_f : free-flow speed (km/h).
    rho_m : jam density (veh/km).
    tau : relaxation constant (per-step, dimensionless); the relative flow
        decays by ``1 - 1/tau`` each step.
    gamma : pressure exponent (> 1).
    T : step length (h).
    l : cell length (km).
    """

    v_f: float
    rho_m: float
    tau: float
    gamma: float
    T: float
    l: float

    def __post_init__(self):
        for name in ("v_f", "rho_m", "tau", "gamma", "T", "l"):
            if not getattr(self, name) > 0:
                raise ModelError(f"{name} must be positive")
        if self.tau <= 1:
            raise ModelError("tau must exceed 1 (relaxation factor in (0, 1))")
        # CFL: information must not cross a whole cell in one step.
        if self.v_f * self.T / self.l > 1 + 1e-12:
            raise ModelError(
                f"CFL violated: v_f*T/l = {self.v_f * self.T / self.l:.4f} > 1"
            )


@dataclass(frozen=True)
class OnRamp:
    """On-ramp merging into mainline cell ``merge_into`` (boundary i-1 -> i)."""

    merge_into: int


@dataclass(frozen=True)
class OffRamp:
    """Off-ramp diverging from cell ``diverge_from`` (boundary i -> i+1).

    ``alpha`` is the constant fraction of the upstream flux leaving through
    the ramp.
    """

    diverge_from: int
    alpha: float


@dataclass(frozen=True)
class Topology:
    """Mainline chain plus ramp attachments.

    Global segment ids are 1..n_mainline for the mainline, then one id per
    on-ramp, then one per off-ramp, in declaration order.
    """

    n_mainline: int
    on_ramps: tuple[OnRamp, ...] = ()
    off_ramps: tuple[OffRamp, ...] = ()

    def __post_init__(self):
        if self.n_mainline < 1:
            raise ModelError("need at least one mainline cell")
        object.__setattr__(self, "on_ramps", tuple(self.on_ramps))
        object.__setattr__(self, "off_ramps", tuple(self.off_ramps))
        used = set()
        for r in self.on_ramps:
            if not 1 <= r.merge_into <= self.n_mainline:
                raise ModelError(f"on-ramp merge_into {r.merge_into} out of range")
            b = r.merge_into - 1
            if b in used:
                raise ModelError(f"two ramps share mainline boundary {b}")
            used.add(b)
        for r in self.off_ramps:
            if not 1 <= r.diverge_from <= self.n_mainline:
                raise ModelError(f"off-ramp diverge_from {r.diverge_from} out of range")
            if not 0.0 < r.alpha < 1.0:
                raise ModelError(f"off-ramp split alpha {r.alpha} must lie in (0, 1)")
            b = r.diverge_from
            if b in used:
                raise ModelError(f"two ramps share mainline boundary {b}")
            used.add(b)

    @property
    def n_onramps(self) -> int:
        return len(self.on_ramps)

    @property
    def n_offramps(self) -> int:
        return len(self.off_ramps)

    @property
    def n_segments(self) -> int:
        return self.n_mainline + self.n_onramps + self.n_offramps

    @property
    def n_x(self) -> int:
        return 2 * self.n_segments

    @property
    def n_u(self) -> int:
        return 3 + 2 * self.n_onramps + self.n_offramps

    def onramp_segment(self, j: int) -> int:
        """Global segment id of on-ramp j (1-based)."""
        return self.n_mainline + j

    def offramp_segment(self, l: int) -> int:
        """Global segment id of off-ramp l (1-based)."""
        return self.n_mainline + self.n_onramps + l

    @cached_property
    def _boundaries(self) -> _BoundaryTable:
        return _compile_boundaries(self)

    @cached_property
    def _jacobian(self) -> _JacobianPlan:
        return _compile_jacobian(self)


def rho_index(segment: int) -> int:
    """State index of a segment's density (segment ids are 1-based)."""
    return 2 * (segment - 1)


def psi_index(segment: int) -> int:
    """State index of a segment's relative flow."""
    return 2 * (segment - 1) + 1


def state_bounds(topo: Topology, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Physical box for the state: rho in [0, rho_m], psi in [0, rho_m*v_f]."""
    lo = np.zeros(topo.n_x)
    hi = np.empty(topo.n_x)
    hi[0::2] = params.rho_m
    hi[1::2] = params.rho_m * params.v_f
    return lo, hi


def state_scale(topo: Topology, params: ModelParams) -> np.ndarray:
    """Per-state scale used to express rho and psi in comparable units.

    Dividing psi rows by v_f puts both quantities on the veh/km scale.
    """
    d = np.ones(topo.n_x)
    d[1::2] = params.v_f
    return d


# ---------------------------------------------------------------------------
# Fundamental diagram
# ---------------------------------------------------------------------------


def pressure(rho: float, params: ModelParams) -> float:
    """Traffic pressure p(rho) = v_f * (rho/rho_m)**gamma (km/h)."""
    if rho < 0:
        raise ModelError(f"density must be nonnegative, got {rho}")
    return params.v_f * (rho / params.rho_m) ** params.gamma


def pressure_gradient(rho: float, params: ModelParams) -> float:
    """dp/drho; zero-limit at rho = 0 for gamma > 1."""
    if rho < 0:
        raise ModelError(f"density must be nonnegative, got {rho}")
    if rho == 0.0:
        return 0.0
    return params.v_f * params.gamma * rho ** (params.gamma - 1) / params.rho_m ** params.gamma


def equilibrium_speed(rho: float, params: ModelParams) -> float:
    """Steady speed v_f - p(rho); v_f when empty, 0 at jam density."""
    return params.v_f - pressure(rho, params)


def sigma_crit(w: float, params: ModelParams) -> float:
    """Critical density maximizing flux for driver characteristic w."""
    if w <= 0:
        raise ModelError(f"driver characteristic must be positive, got {w}")
    return params.rho_m * (w / (params.v_f * (1 + params.gamma))) ** (1.0 / params.gamma)


# Lenient kernels: finite-difference stencils and filter sigma points may
# probe slightly outside the physical box, so these clamp instead of raising.
# They take any array shape elementwise.  Both branches of demand and of
# supply are ``r (w - p(r))``, at the cell's own density or at the critical
# one; picking r first evaluates p once, and r is never negative.


def _p(rho, v_f, rho_m, gamma):
    return v_f * (rho / rho_m) ** gamma


def _sigma(w, v_f, rho_m, gamma):
    return rho_m * (np.maximum(w, 0.0) / (v_f * (1.0 + gamma))) ** (1.0 / gamma)


def _demand(rho, w, v_f, rho_m, gamma):
    # An empty cell or a non-positive w gives r = 0 and so no demand.
    r = np.minimum(np.maximum(rho, 0.0), _sigma(w, v_f, rho_m, gamma))
    return np.maximum(r * (w - _p(r, v_f, rho_m, gamma)), 0.0)


def _supply(rho, w_up, v_f, rho_m, gamma):
    r = np.maximum(rho, _sigma(w_up, v_f, rho_m, gamma))
    return np.maximum(r * (w_up - _p(r, v_f, rho_m, gamma)), 0.0)


def demand(rho: float, w: float, params: ModelParams) -> float:
    """Sending capacity of a cell with density rho and characteristic w.

    Equals ``rho * (w - p(rho))`` below the critical density and the
    w-dependent capacity above it; continuous at the breakpoint.
    """
    if rho < 0:
        raise ModelError(f"density must be nonnegative, got {rho}")
    if w < 0:
        raise ModelError(f"driver characteristic must be nonnegative, got {w}")
    return float(_demand(rho, w, params.v_f, params.rho_m, params.gamma))


def supply(rho: float, w_up: float, params: ModelParams) -> float:
    """Receiving capacity of a cell at density rho for incoming traffic w_up.

    The incoming traffic's characteristic decides the capacity branch; a
    nearly full cell accepts ``rho * (w_up - p(rho))``, floored at zero.
    """
    if rho < 0:
        raise ModelError(f"density must be nonnegative, got {rho}")
    if w_up < 0:
        raise ModelError(f"driver characteristic must be nonnegative, got {w_up}")
    return float(_supply(rho, w_up, params.v_f, params.rho_m, params.gamma))


# ---------------------------------------------------------------------------
# Network flux assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _BoundaryTable:
    """Wiring of every boundary of a topology, compiled once.

    Legs read the leg-value vector ``[D | w | rho | scale | u | 0, 1]``:
    per segment its scaled demand, characteristic, density and
    demand/supply scale, then the input vector, then the constants 0 and 1.
    Flows go to slots: one per segment, one per input column (the external
    end of an entry or an exit) and one that discards an absent leg's flow.

    The flux kernel gathers the main and downstream legs of every boundary
    but the ramp and off legs only where they exist, which is why
    boundaries are ordered ramp, plain, off.  Each segment has exactly one
    inflow and one outflow, so its net fluxes are read back from the flows
    by position; only ``compute_fluxes`` scatters the flows into slots.
    """

    legs: np.ndarray  # (8, B) value indices: D_m w_m D_r w_r rho_d s_d rho_o s_o
    slots: np.ndarray  # (4, B) slots: main out, ramp out, down in, off in
    n_slots: int
    n_ramp: int  # the first n_ramp boundaries have a ramp leg
    n_off: int  # the last n_off boundaries have an off leg
    gather: np.ndarray  # value indices: D_m w_m D_r w_r rho_d rho_o s_d s_o
    gather_legs: tuple  # slices of the gathered values: D_m w_m D_r w_r rho_in s_in
    divisor: np.ndarray  # receiving candidates' divisors: 1 - alpha, then alpha
    alpha_off: np.ndarray  # the off legs' splits
    # Per state row, the position of its inflow and its outflow in the
    # flows [q_m q_r phi_m phi_r | q_d q_o phi_d phi_o] of _junctions.
    inflow: np.ndarray
    outflow: np.ndarray


def _compile_boundaries(topo: Topology) -> _BoundaryTable:
    n, nseg, n_on = topo.n_mainline, topo.n_segments, topo.n_onramps
    U = 4 * nseg  # the input vector's place in the leg-value vector
    ZERO, ONE, DROP = U + topo.n_u, U + topo.n_u + 1, nseg + topo.n_u

    # A leg is (value index, value index, slot): (demand, w, outflow slot)
    # when it sends and (density, scale, inflow slot) when it receives.
    # Segments s are 0-based here; k is an input column.
    def sender(s):
        return s, nseg + s, s

    def feed(k):  # demand in column k, w in column k + 1
        return U + k, U + k + 1, nseg + k

    def receiver(s):
        return 2 * nseg + s, 3 * nseg + s, s

    def sink(k):  # exit density in column k, unscaled
        return U + k, ONE, nseg + k

    absent = (ZERO, ZERO, DROP)
    ramp_at = {r.merge_into - 1: sender(n + j)
               for j, r in enumerate(topo.on_ramps)}
    off_at = {r.diverge_from: (receiver(n + n_on + l), r.alpha)
              for l, r in enumerate(topo.off_ramps)}
    # (main, ramp, down, off, alpha): mainline boundaries, entries, exits
    bounds = [(feed(0) if b == 0 else sender(b - 1), ramp_at.get(b, absent),
               sink(2) if b == n else receiver(b), *off_at.get(b, (absent, 0.0)))
              for b in range(n + 1)]
    bounds += [(feed(3 + 2 * j), absent, receiver(n + j), absent, 0.0)
               for j in range(n_on)]
    bounds += [(sender(n + n_on + l), absent, sink(3 + 2 * n_on + l), absent, 0.0)
               for l in range(topo.n_offramps)]
    # Boundaries with a ramp leg first, then those with neither optional
    # leg, then those with an off leg: each subset is a slice.
    bounds.sort(key=lambda bd: 0 if bd[1] != absent else 1 + (bd[4] > 0.0))

    legs = np.array([[i for leg in bd[:4] for i in leg[:2]] for bd in bounds]).T
    slots = np.array([[leg[2] for leg in bd[:4]] for bd in bounds]).T
    alpha = np.array([bd[4] for bd in bounds])
    ramp = [bd[1] != absent for bd in bounds]

    B, n_ramp, n_off = len(bounds), sum(ramp), int(np.count_nonzero(alpha))
    off = slice(B - n_off, B)
    gather = np.concatenate((legs[0], legs[1], legs[2, :n_ramp], legs[3, :n_ramp],
                             legs[4], legs[6, off], legs[5], legs[7, off]))
    ends = np.cumsum((0, B, B, n_ramp, n_ramp, B + n_off, B + n_off))
    gather_legs = tuple(slice(a, b) for a, b in zip(ends[:-1], ends[1:]))

    def positions(full, part, start):
        # Flows [full leg (B) | partial leg | the same for phi] from
        # ``start`` on; the row pair of segment s gets its q and phi.
        width = full.size + part.size
        pos = np.empty(topo.n_x, dtype=np.intp)
        for k, s in enumerate(np.concatenate((full, part)), start):
            if s < nseg:
                pos[2 * s], pos[2 * s + 1] = k, width + k
        return pos

    return _BoundaryTable(
        legs, slots, DROP + 1, n_ramp, n_off, gather, gather_legs,
        np.concatenate((1.0 - alpha, alpha[off])), alpha[off],
        positions(slots[2], slots[3, off], 2 * (B + n_ramp)),
        positions(slots[0], slots[1, :n_ramp], 0))


@dataclass(frozen=True, eq=False)
class _ColumnGroups:
    """Greedy column coloring of one block of the Jacobian of f: the state
    columns or the input columns.

    No two columns of a group share a row of the block's sparsity pattern,
    so one central difference per group recovers every column in it
    (Curtis, Powell & Reid 1974).
    """

    groups: np.ndarray  # (k, columns) 1.0 on the columns of each group
    # Per nonzero (row i, column j) of the pattern: j, the flat index of
    # J[i, j] in the transposed (columns, rows) Jacobian, and the flat
    # indices of F[i] in the (2k, rows) stencil rows of j's group, + then -.
    col: np.ndarray
    entry: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


@dataclass(frozen=True, eq=False)
class _JacobianPlan:
    """Column groups of the state ("x") and input ("u") blocks of the
    Jacobian of f.

    A dense stencil shows each boundary's unperturbed tie margin in the
    rows of the columns that do not read it.  ``base[blocks]`` lists the
    boundaries for which no group of the requested blocks does that; their
    margin needs the unperturbed state as a row of its own.
    """

    groups: dict  # "x" or "u" -> _ColumnGroups
    base: dict  # "x", "u" or "xu" -> boundary indices


def _color(pattern: np.ndarray) -> _ColumnGroups:
    """Color the columns of a (rows, columns) pattern in order, each into
    the first group whose rows it does not share."""
    taken = []  # rows of each group, as bit sets
    group = np.empty(pattern.shape[1], dtype=np.intp)
    for j, rows in enumerate(pattern.T):
        bits = sum(1 << int(i) for i in np.flatnonzero(rows))
        g = next((g for g, t in enumerate(taken) if not t & bits), len(taken))
        if g == len(taken):
            taken.append(0)
        taken[g] |= bits
        group[j] = g
    k, (n, cols) = len(taken), pattern.shape
    member = np.zeros((k, cols))
    member[group, np.arange(cols)] = 1.0
    row, col = np.nonzero(pattern)
    plus = group[col] * n + row
    return _ColumnGroups(member, col, col * n + row, plus, plus + k * n)


def _compile_jacobian(topo: Topology) -> _JacobianPlan:
    """Sparsity pattern of the Jacobian of f and its column groups.

    Legs give the columns: a sender's demand and characteristic read its
    density and relative flow, a receiver's density only its density, an
    input value its input column.  Slots give the rows: a boundary's flows
    change both rows of each segment it sends from or delivers to.  Every
    boundary has such a segment, so the columns one group perturbs never
    meet at a boundary.
    """
    t = topo._boundaries
    nseg, n_x, n_u = topo.n_segments, topo.n_x, topo.n_u
    s, k = np.arange(nseg), np.arange(n_u)
    value_cols = np.zeros((4 * nseg + n_u + 2, n_x + n_u), dtype=bool)
    for v in (s, nseg + s):  # demand, characteristic
        value_cols[v, 2 * s] = value_cols[v, 2 * s + 1] = True
    value_cols[2 * nseg + s, 2 * s] = True  # density
    value_cols[4 * nseg + k, n_x + k] = True  # inputs
    reads = value_cols[t.legs].any(axis=0)  # (boundaries, columns)
    slot_rows = np.zeros((t.n_slots, n_x), dtype=bool)
    slot_rows[s, 2 * s] = slot_rows[s, 2 * s + 1] = True
    pattern = slot_rows[t.slots].any(axis=0).T @ reads  # (rows, columns)
    blocks = {"x": slice(0, n_x), "u": slice(n_x, None)}
    groups = {b: _color(pattern[:, sl]) for b, sl in blocks.items()}
    base = {}
    for key in ("x", "u", "xu"):
        # Boundaries every group reads though some column does not.
        hidden = np.logical_and.reduce(
            [(groups[b].groups @ reads[:, blocks[b]].T).all(axis=0) for b in key])
        shown = np.logical_or.reduce(
            [~reads[:, blocks[b]].all(axis=1) for b in key])
        base[key] = np.flatnonzero(hidden & shown)
    return _JacobianPlan(groups, base)


def _inputs(u, topo: Topology) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (topo.n_u,):
        raise ModelError(f"need {topo.n_u} inputs per row, got shape {u.shape}")
    return u


# ---------------------------------------------------------------------------
# The flux kernel
#
# One formula evaluates every boundary, for one state or for many.  States
# lie along the last axis of x: one state (n_x,), a population (M, n_x)
# of sigma points, ensemble members or finite-difference stencil rows
# (``_compile_jacobian``), or any other stack.  The boundary table's gather
# indices pull every leg value into (..., boundaries) arrays, ramp and off
# legs only where they exist, ``_junctions`` evaluates all boundaries at
# once, and each segment's net flux is read back from its one inflow and
# one outflow.  Each array operation pays numpy's per-call overhead
# whatever the number of states: on the 9-cell network one state takes
# 60-75 us and 49 states 135 us (one core of a 2-vCPU Xeon, numpy 2.4),
# so ``generate_truth``, which steps one state at a time, spends about
# 70 ms on the 500-step reference.  An element's result depends neither
# on how many states are evaluated with it nor on their values, so a
# one-state call equals its row of a population bit for bit: the colored
# stencil relies on that to match the dense one, and ``linearize_model``
# to take the unperturbed flux from its stencil's call.
# ---------------------------------------------------------------------------


def _junctions(D_m, w_m, D_r, w_r, rho_in, s_in, t: _BoundaryTable,
               v_f, rho_m, gamma):
    """The junction formula, elementwise over boundaries.

    Legs: main (demand D_m, characteristic w_m) on every boundary,
    (..., B); ramp (D_r, w_r) on the first R boundaries, (..., R);
    receiving legs (density, scale) as ``rho_in``, ``s_in``: downstream on
    every boundary, then off on the last O, (..., B + O).  The off leg
    takes the share ``alpha``.

    The main leg's priority is ``beta = D_m / (D_m + D_r)`` with a ramp
    leg and 1 without; a merge with no demand at all is dead (beta 0.5,
    no flow).  Supplies use the mixed characteristic
    ``w_bar = beta w_m + (1 - beta) w_r``, and the junction flux is
    ``q = min(min(D_m/beta, D_r/(1-beta)), S_d/(1-alpha), S_o/alpha)``,
    an absent leg contributing inf.  The main leg sends ``beta q`` and the
    ramp leg ``q - beta q``; the off leg receives ``alpha q`` and the
    downstream leg ``q - alpha q``, so each split conserves q exactly in
    floating point.  Relative flows are those times ``w_m`` and ``w_r`` going
    out and the same split of ``q w_bar`` coming in.  Without a ramp or an
    off leg the formula reduces exactly (``D_m / 1``, ``S_d / (1 - 0)``,
    ``min(x, inf)``) to the main and downstream legs alone, so only the
    boundaries that have those legs evaluate them.

    Returns the outflows and inflows stacked along the last axis,
    ``[q_m | q_r | phi_m | phi_r | q_d | q_o | phi_d | phi_o]``, and the
    (..., B) gap between the two smallest candidates (inf for a dead merge).
    """
    R, O, B = t.n_ramp, t.n_off, D_m.shape[-1]
    D_k = D_m[..., :R]
    tot = D_k + D_r
    live = tot > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(live, D_k / tot, 0.5)
        rest = 1.0 - beta
        c_k = np.minimum(np.where(beta > 0.0, D_k / beta, np.inf),
                         np.where(beta < 1.0, D_r / rest, np.inf))
    a, w_bar = D_m.copy(), w_m.copy()
    a[..., :R] = c_k
    w_bar[..., :R] = beta * w_m[..., :R] + rest * w_r
    # Downstream and off supplies in one call: S_d / (1 - alpha), S_o / alpha.
    w_in = np.concatenate((w_bar, w_bar[..., B - O:]), axis=-1)
    cand = s_in * _supply(rho_in, w_in, v_f, rho_m, gamma) / t.divisor
    q, second = np.minimum(a, cand[..., :B]), np.maximum(a, cand[..., :B])
    lo, hi, c = q[..., B - O:], second[..., B - O:], cand[..., B:]
    np.maximum(lo, np.minimum(hi, c), out=hi)
    np.minimum(lo, c, out=lo)
    gap = second - q
    q[..., :R] = np.where(live, q[..., :R], 0.0)
    gap[..., :R] = np.where(live, gap[..., :R], np.inf)
    q_m = q.copy()
    q_m[..., :R] *= beta
    q_r = q[..., :R] - q_m[..., :R]
    phi = q * w_bar
    q_o, phi_o = t.alpha_off * q[..., B - O:], t.alpha_off * phi[..., B - O:]
    flows = np.concatenate((q_m, q_r, q_m * w_m, q_r * w_r,
                            q[..., :B - O], q[..., B - O:] - q_o, q_o,
                            phi[..., :B - O], phi[..., B - O:] - phi_o, phi_o),
                           axis=-1)
    return flows, gap


def _flows(x, u, topo: Topology, params: ModelParams, ds_scale=None):
    """``_junctions``' flows and gaps at the states ``x`` (..., n_x).

    ``u`` is one input vector shared by all states or an array of
    per-state inputs.
    """
    v_f, rho_m, gamma = params.v_f, params.rho_m, params.gamma
    t = topo._boundaries
    nseg = topo.n_segments
    sc = 1.0 if ds_scale is None else np.asarray(ds_scale, dtype=float)
    rho, psi = x[..., 0::2], x[..., 1::2]
    V = np.empty(x.shape[:-1] + (4 * nseg + topo.n_u + 2,))
    W = np.divide(psi, np.maximum(rho, EPS_RHO), out=V[..., nseg:2 * nseg])
    V[..., :nseg] = sc * _demand(rho, W, v_f, rho_m, gamma)
    V[..., 2 * nseg:3 * nseg] = rho
    V[..., 3 * nseg:4 * nseg] = sc
    V[..., 4 * nseg:-2] = _inputs(u, topo)
    V[..., -2:] = (0.0, 1.0)
    V = V.take(t.gather, axis=-1)
    return _junctions(*(V[..., sl] for sl in t.gather_legs), t,
                      v_f, rho_m, gamma)


def _net_flux(x, u, topo: Topology, params: ModelParams, ds_scale=None):
    """Stacked net fluxes, in the shape of ``x``, and the branch-tie
    margins (..., boundaries) of every state."""
    x = np.asarray(x, dtype=float)
    t = topo._boundaries
    flows, gap = _flows(x, u, topo, params, ds_scale)
    return flows.take(t.inflow, axis=-1) - flows.take(t.outflow, axis=-1), gap


def nonlinear_f(x, u, topo: Topology, params: ModelParams, ds_scale=None) -> np.ndarray:
    """Stacked net fluxes [q_in - q_out, phi_in - phi_out] per segment.

    An (M, n_x) population gives one row per state; ``u`` is then one
    input vector for all rows or an (M, n_u) array of per-row inputs.
    """
    return _net_flux(x, u, topo, params, ds_scale)[0]


@dataclass
class FluxSet:
    """Per-segment boundary fluxes for one evaluation of the network.

    ``q_in``/``q_out`` (and the ``phi`` counterparts) are indexed by global
    segment id - 1.  ``entry_q``/``exit_q`` are the mainline end fluxes,
    ``onramp_entry_q[j]``/``offramp_exit_q[l]`` the external ramp fluxes,
    and ``min_margin`` is the smallest gap between the two best candidates
    of any flux min() encountered (branch-tie diagnostic).
    """

    q_in: np.ndarray
    q_out: np.ndarray
    phi_in: np.ndarray
    phi_out: np.ndarray
    entry_q: float
    exit_q: float
    onramp_entry_q: np.ndarray
    offramp_exit_q: np.ndarray
    min_margin: float


def compute_fluxes(x, u, topo: Topology, params: ModelParams,
                   ds_scale=None) -> FluxSet:
    """Evaluate every boundary flux of the network at state x, input u.

    ``ds_scale`` optionally scales the demand and supply of individual
    segments (per global segment id - 1), which is how a local speed
    reduction is imposed on the truth model.
    """
    flows, gap = _flows(np.asarray(x, dtype=float), u, topo, params, ds_scale)
    t = topo._boundaries
    B, R, O = t.slots.shape[1], t.n_ramp, t.n_off
    # The flows' legs in order, sending then receiving, and their slots.
    out = np.concatenate((t.slots[0], t.slots[1, :R]))
    into = np.concatenate((t.slots[2], t.slots[3, B - O:]))
    k, m = out.size, into.size
    q_out, phi_out, q_in, phi_in = np.zeros((4, t.n_slots))
    q_out[out], phi_out[out] = flows[:k], flows[k:2 * k]
    q_in[into], phi_in[into] = flows[2 * k:2 * k + m], flows[2 * k + m:]
    n = topo.n_segments
    ext_in, ext_out = q_in[n:], q_out[n:]  # by input column
    k_off = 3 + 2 * topo.n_onramps
    return FluxSet(
        q_in=q_in[:n], q_out=q_out[:n], phi_in=phi_in[:n], phi_out=phi_out[:n],
        entry_q=float(ext_out[0]), exit_q=float(ext_in[2]),
        onramp_entry_q=ext_out[3:k_off:2], offramp_exit_q=ext_in[k_off:-1],
        min_margin=float(gap.min()),
    )


# ---------------------------------------------------------------------------
# Junction fluxes
# ---------------------------------------------------------------------------


def _one_junction(up, down, params: ModelParams, ramp=None, off=None,
                  alpha=0.0) -> FluxSet:
    """``compute_fluxes`` of two (rho, psi) cells, ``up`` and ``down``,
    whose shared boundary is the junction: segment 3 is the merging ramp
    or the off leg.  The inputs are zero; they do not reach that boundary."""
    topo = Topology(2, on_ramps=(OnRamp(2),) if ramp is not None else (),
                    off_ramps=(OffRamp(1, alpha),) if off is not None else ())
    legs = [leg for leg in (ramp, off) if leg is not None]
    x = np.array([up, down, *legs], dtype=float).ravel()
    return compute_fluxes(x, np.zeros(topo.n_u), topo, params)


def flux_one_to_one(up: tuple[float, float], down: tuple[float, float],
                    params: ModelParams) -> tuple[float, float]:
    """Flux across a plain cell boundary: q = min(demand, supply).

    ``up`` and ``down`` are (rho, psi) pairs.  Returns (q, phi) where phi is
    the relative flux q * w_up.
    """
    fl = _one_junction(up, down, params)
    return float(fl.q_out[0]), float(fl.phi_out[0])


def flux_merge(main_up: tuple[float, float], ramp: tuple[float, float],
               down: tuple[float, float], params: ModelParams):
    """Merge junction fluxes with demand-proportional priority.

    Returns ``(q_main, phi_main, q_ramp, phi_ramp, q_down, phi_down)``: the
    two leg outflows and the combined inflow of the downstream cell.  The
    receiving supply is evaluated with the demand-weighted mixture of the
    two incoming characteristics.
    """
    fl = _one_junction(main_up, down, params, ramp=ramp)
    return tuple(map(float, (fl.q_out[0], fl.phi_out[0], fl.q_out[2],
                             fl.phi_out[2], fl.q_in[1], fl.phi_in[1])))


def flux_diverge(up: tuple[float, float], down: tuple[float, float],
                 off: tuple[float, float], alpha: float, params: ModelParams):
    """Diverge junction fluxes with a constant split fraction alpha.

    Returns ``(q_up, phi_up, q_off, phi_off, q_down, phi_down)``.  Both
    receiving supplies are evaluated with the upstream characteristic, and
    the relative flux splits in the same proportion as the flux.
    """
    fl = _one_junction(up, down, params, off=off, alpha=alpha)
    return tuple(map(float, (fl.q_out[0], fl.phi_out[0], fl.q_in[2],
                             fl.phi_in[2], fl.q_in[1], fl.phi_in[1])))


def build_update_matrices(topo: Topology, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Linear part A (relaxation) and input gain G = (T/l) I of the update."""
    n_x = topo.n_x
    A = np.zeros((n_x, n_x))
    r = np.arange(0, n_x, 2)
    A[r, r] = 1.0
    A[r + 1, r] = params.v_f / params.tau
    A[r + 1, r + 1] = 1.0 - 1.0 / params.tau
    G = (params.T / params.l) * np.eye(n_x)
    return A, G


@dataclass
class StepDiagnostics:
    """Mutable counters filled in by step()."""

    clamped: int = 0
    min_margin: float = math.inf


def _advance(x, u, topo: Topology, params: ModelParams, ds_scale=None,
             diag: StepDiagnostics | None = None) -> np.ndarray:
    """The update of ``step`` for one state or, row by row, a population."""
    x = np.asarray(x, dtype=float)
    f, margin = _net_flux(x, u, topo, params, ds_scale)
    return _update(x, f, topo, params, margin, diag)


def _update(x, f, topo: Topology, params: ModelParams, margin=math.inf,
            diag: StepDiagnostics | None = None) -> np.ndarray:
    """The update of ``step`` from the net fluxes ``f`` at ``x``: relaxation
    plus (T/l) f, clamped to the physical bounds.  ``margin`` is the
    branch-tie margin of the flux evaluation, recorded in ``diag``."""
    r = params.T / params.l
    x_new = np.empty_like(x)
    x_new[..., 0::2] = x[..., 0::2] + r * f[..., 0::2]
    x_new[..., 1::2] = ((1.0 - 1.0 / params.tau) * x[..., 1::2]
                        + r * f[..., 1::2]
                        + (params.v_f / params.tau) * x[..., 0::2])
    if not np.isfinite(x_new).all():
        rows = x_new.reshape(-1, topo.n_x)
        # the first state index that is non-finite in any row
        r, i = min(np.argwhere(~np.isfinite(rows)), key=lambda ri: ri[1])
        raise BlowupError(int(i), float(rows[r, i]))
    lo, hi = state_bounds(topo, params)
    clipped = np.clip(x_new, lo, hi)
    if diag is not None:
        diag.clamped += int(np.count_nonzero(clipped != x_new))
        diag.min_margin = min(diag.min_margin, float(np.min(margin)))
    return clipped


def step(x, u, topo: Topology, params: ModelParams, ds_scale=None,
         diag: StepDiagnostics | None = None) -> np.ndarray:
    """One Godunov update of the whole network, clamped to physical bounds.

    Raises BlowupError if the unclamped update is non-finite.  Clamp events
    are counted in ``diag`` when provided.
    """
    return _advance(x, u, topo, params, ds_scale, diag)


def measure_h(x, params: ModelParams) -> np.ndarray:
    """Full measurement vector: (density, speed) per segment.

    Speed rows use ``psi/rho - p(rho)`` with rho floored at ``EPS_RHO``.
    Any leading axes of ``x`` are kept, so a stack of states maps row by row.
    """
    x = np.asarray(x, dtype=float)
    rho = x[..., 0::2]
    psi = x[..., 1::2]
    rho_s = np.maximum(rho, EPS_RHO)
    v = psi / rho_s - params.v_f * (rho_s / params.rho_m) ** params.gamma
    h = np.empty_like(x)
    h[..., 0::2] = rho
    h[..., 1::2] = v
    return h


def speeds_from_state(x, params: ModelParams) -> np.ndarray:
    """Per-segment speeds (the odd rows of measure_h)."""
    return measure_h(x, params)[..., 1::2]


def equilibrium_state(topo: Topology, params: ModelParams, rho: float) -> np.ndarray:
    """Uniform state at density rho with drivers at equilibrium (w = v_f)."""
    x = np.empty(topo.n_x)
    x[0::2] = rho
    x[1::2] = rho * params.v_f
    return x


def pack_inputs(topo: Topology, d_in: float, w_in: float, rho_out: float,
                ramp_demand=(), ramp_w=(), offramp_rho_out=()) -> np.ndarray:
    """Assemble an input vector in the canonical layout."""
    if len(ramp_demand) != topo.n_onramps or len(ramp_w) != topo.n_onramps:
        raise ModelError("need one (demand, w) pair per on-ramp")
    if len(offramp_rho_out) != topo.n_offramps:
        raise ModelError("need one exit density per off-ramp")
    u = [d_in, w_in, rho_out]
    for d, w in zip(ramp_demand, ramp_w):
        u.extend([d, w])
    u.extend(offramp_rho_out)
    return np.asarray(u, dtype=float)


def step_batch(X, u, topo: Topology, params: ModelParams,
               ds_scale=None) -> np.ndarray:
    """Godunov update of a population of states; rows clamped like step()."""
    return _advance(X, u, topo, params, ds_scale)
