"""The benchmark's tiny runs: each workload of BENCHMARK.json, at the tiny
size, must finish with status 0, correct and with no failed operation.  The
tiny runs compare outputs against the stored digests, so a library change
that breaks an attribute or an output the benchmark reads fails here.  Each
run is a subprocess, because the benchmark's fresh imports drop the
``cluster_loc`` modules from ``sys.modules``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_tiny_run_is_correct(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          workload, "--seconds", "0", "--size", "tiny"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
