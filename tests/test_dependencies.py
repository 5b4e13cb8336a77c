"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies.  A fresh interpreter
imports the public entry points and runs greedy on a small batch, then
checks that NumPy was never imported — a fresh process, because the test
runner's own plugins may import it into this one.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """\
import sys
sys.path.insert(0, "src")
import repro, repro.execution, repro.service
from repro import Algorithm, MQOptimizer
from repro.catalog import psp_catalog
from repro.workloads.scaleup import scaleup_queries

result = MQOptimizer(psp_catalog()).optimize(scaleup_queries(1), Algorithm.GREEDY)
assert result.cost > 0
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def test_greedy_runs_without_importing_numpy():
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
