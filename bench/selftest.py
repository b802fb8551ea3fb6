"""Self-tests of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

Every workload, at the tiny size, prints every metric of BENCHMARK.json with
its unit, traced and untraced.  Two negative controls must report failed
operations: a corrupted stored digest, and a classify whose in_S verdict is
flipped.  Without the package sources the benchmark must fail without
printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(name: str, stored, wrap=None):
    """One tiny untraced run in this process; ``wrap`` is installed around
    the program's work in every round, as the tracer would be."""
    workload = WORKLOADS[name](run.DEFAULT_SEED, True)
    if wrap is not None:
        plain = workload.round
        workload.round = lambda r, tracer=None: plain(r, tracer or wrap)
    return run.run(workload, 0, False, stored)[0]


class FlipInS:
    """Rebinds classify so that every verdict has in_S flipped."""

    def install(self):
        def flipped(orig):
            def classify(*args, **kwargs):
                cls = orig(*args, **kwargs)
                return dataclasses.replace(cls, in_S=not cls.in_S)
            return classify
        self.done = tracing.rebind("localization.classify", flipped)

    def uninstall(self):
        tracing.restore(self.done)


class Metrics(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for name in WORKLOADS:
            for trace, wanted in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seconds", "0",
                                 "--size", "tiny", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in wanted})
                    for m in wanted:
                        self.assertRegex(proc.stdout,
                                         rf"(?m)^{m['name']}: \S+ {m['unit']}$")
                    self.assertIn("op_fail_frac: 0 (0 failed of", proc.stdout)
                    self.assertIn('"digest_checked": true', proc.stdout)

    def test_bare_directory_fails_without_result(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "map-battery", "--seconds", "1",
                         cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class NegativeControls(unittest.TestCase):
    def stored(self, name):
        got = run.stored_digests(name, run.DEFAULT_SEED, True)
        self.assertTrue(got, f"no stored tiny digests for {name}")
        return got

    def test_stored_digests_pass(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = tiny_run(name, self.stored(name))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_digest_fails(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                corrupted = [d[::-1] for d in self.stored(name)]
                result = tiny_run(name, corrupted)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_flipped_in_S_fails(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = tiny_run(name, self.stored(name), FlipInS())
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
