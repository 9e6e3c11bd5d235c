"""The traced benchmark checks the QP solves the MHE makes, and the
untraced set-up probe reaches a first estimator step.

One traced round of ``perfbench/run.py`` wraps ``mhe.solve_box_qp`` and
applies its solve checks to every call, so on the MHE workloads the call
count must equal the number of MHE steps.  ``perfbench/setup_probe.py``
builds the first selector and measurement and takes the first step with
the package's own functions, outside any traced round.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, extra, mhe_steps", [
    ("ref-mhe", ["--tiny"], 80),
    ("noise-sweep", [], 160),
])
def test_traced_round_checks_every_mhe_solve(tmp_path, workload, extra,
                                             mhe_steps):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", "1", "--out", str(tmp_path), *extra],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    calls = result["metrics"]["mhe.solve_box_qp.calls"]["value"]
    assert calls == mhe_steps


@pytest.mark.parametrize("workload", ["ref-mhe", "ref-filters",
                                      "long-highway", "noise-sweep"])
def test_setup_probe_reaches_the_first_step(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         workload, "--tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "ready"
