"""The benchmark's own test: machine-independent counters repeat exactly for a
seed and change with it.

    python3 -m pytest perfbench/test_counters.py

Takes about a minute and a half on a 2-core machine (each workload runs three
short traced runs).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import EXACT_COUNTERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload, seed):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split("inputs_sha256=")[1] for l in lines if "inputs_sha256=" in l)
    counters = tuple(result["metrics"][name]["value"] for name in EXACT_COUNTERS)
    return result, digest, counters


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_for_a_seed_and_move_with_it(workload):
    first, digest, counters = traced_run(workload, 7)
    _, digest_again, counters_again = traced_run(workload, 7)
    _, other_digest, other_counters = traced_run(workload, 8)
    assert first["attempted"] >= 1
    assert digest_again == digest and counters_again == counters
    assert other_digest != digest and other_counters != counters
