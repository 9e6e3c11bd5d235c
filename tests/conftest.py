import numpy as np
import pytest

from arzest.model import (
    ModelParams,
    OffRamp,
    OnRamp,
    Topology,
    equilibrium_state,
    pack_inputs,
    step,
)


@pytest.fixture
def params() -> ModelParams:
    return ModelParams(v_f=102.0, rho_m=345.0, tau=20.0, gamma=1.75,
                       T=1.0 / 3600.0, l=0.1)


@pytest.fixture
def topo() -> Topology:
    return Topology(
        n_mainline=9,
        on_ramps=(OnRamp(merge_into=6),),
        off_ramps=(OffRamp(diverge_from=3, alpha=0.2),
                   OffRamp(diverge_from=8, alpha=0.2)),
    )


def random_states(rng: np.random.Generator, topo: Topology, n: int,
                  rho_lo: float = 1.0, rho_hi: float = 340.0,
                  w_lo: float = 5.0, w_hi: float = 102.0) -> np.ndarray:
    """Physically plausible random states: rho in range, psi = rho * w."""
    rho = rng.uniform(rho_lo, rho_hi, (n, topo.n_segments))
    w = rng.uniform(w_lo, w_hi, (n, topo.n_segments))
    X = np.empty((n, topo.n_x))
    X[:, 0::2] = rho
    X[:, 1::2] = rho * w
    return X


def paper_inputs(topo: Topology) -> np.ndarray:
    """The reference feed as one input vector: 8800 veh/h in at 102 km/h,
    30 veh/km downstream, 600 veh/h on the on-ramp, 20 veh/km past each
    off-ramp."""
    return pack_inputs(topo, 8800.0, 102.0, 30.0, (600.0,), (102.0,),
                       (20.0, 20.0))


def warmed_state(topo: Topology, params: ModelParams,
                 steps: int = 300) -> np.ndarray:
    """The state ``steps`` constant ``paper_inputs`` steps after the
    20 veh/km equilibrium."""
    x = equilibrium_state(topo, params, 20.0)
    u = paper_inputs(topo)
    for _ in range(steps):
        x = step(x, u, topo, params)
    return x
