"""Set-up of one workload in a fresh process, up to its first estimator step.

Prints ``ready`` once the first step has returned; ``run.py`` times it from
process start to that line.  Then prints the calibration kernel's time
(``calibrate.py``), by which ``run.py`` rescales it.
Usage: ``setup_probe.py WORKLOAD [--tiny]``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import arzest as az  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    sc = workloads.build_scenario(sys.argv[1], tiny="--tiny" in sys.argv[2:])
    truth = az.generate_truth(sc)
    est = az.make_estimator(sc.estimators[0], truth.traj[0].copy(), sc.topo,
                            sc.params, np.random.default_rng(0))
    C = az.build_observation(az.positions_at(sc.schedule, sc.topo, 0), sc.topo)
    est.step(sc.inputs[0], C @ truth.obs[1], C)
    print("ready", flush=True)
    print(calibrate.sample(9), flush=True)  # the host's speed, after timing


if __name__ == "__main__":
    main()
