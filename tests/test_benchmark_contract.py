"""The benchmark's traced run holds on every workload.

``perfbench/run.py --trace 1`` checks each workload's exact call counts
(solves, environment steps, actions, estimates), that its artifacts are
byte-stable across calls, the power balance of every solve, and that no
public gridpilot function is referenced where its tracer cannot wrap it. A
change that breaks any of these makes the run print ``"correct": false``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
