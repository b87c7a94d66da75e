"""The benchmark's circuits workload runs end to end and passes its gates.

``perfbench/run.py`` exits 1 when a correctness gate fails or a call raises:
the gate counts against the closed forms, and the simulated GAS iteration's
marginal against ``ExactEngine.variable_distribution``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
def test_circuits_workload_passes(trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "circuits", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
