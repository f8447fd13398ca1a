"""The benchmark harness runs end to end on the current sources.

Its untimed correctness check calls ``goldman.sample_element(family, n,
SeedSequence, 1.0, basis)`` positionally, among other library entry points,
so an API change that would break a benchmark run fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["numeric", "symbolic"])
def test_tiny_benchmark_run_is_correct(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--size", "tiny"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no bytecode under perfbench/
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
