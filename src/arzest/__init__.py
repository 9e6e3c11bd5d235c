"""Highway traffic state estimation with fixed and moving sensors.

Discrete second-order traffic flow on a mainline with on/off-ramps,
step-wise affine approximations of the dynamics, a moving-horizon
estimator whose box-constrained QP is solved by projected Newton from a
direct solve, and Kalman-family baselines, plus the twin-experiment
machinery to compare them under different sensor layouts.
"""

from . import kalman, linearize, mhe, model, scenarios, sensing
from .kalman import *  # noqa: F401,F403
from .linearize import *  # noqa: F401,F403
from .mhe import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .sensing import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for mod in (model, linearize, sensing, kalman, mhe, scenarios)
           for name in mod.__all__] + ["__version__"]
