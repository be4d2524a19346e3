"""Self-test of the benchmark on tiny workloads.

    python3 perfbench/selftest.py

Checks that run.py emits every metric BENCHMARK.json names, with its unit,
on every workload, traced and untraced; that a table with one flipped
expectation is counted as exactly one failed operation (the negative
control); and that traced self-times sum to no more than the traced wall
time.  Needs the abpsim source tree under src/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

TMP_PREFIX = ".perfbench-tmp-"


class RunEmitsEveryMetric(unittest.TestCase):
    def test_tiny_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", workload,
                         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=180)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)


class NegativeControl(unittest.TestCase):
    def test_one_flipped_expectation_is_one_failure(self):
        rows = inputs.table_rows(5, 60)
        flipped = next(row for row in rows if row["machine"] == "receiver")
        flipped["expectState"] = "false" if flipped["expectState"] == "true" else "true"
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as workdir:
            table = workloads.TableCoverage(5, workdir, tiny=True, rows=rows)
            self.assertEqual(self.counts(table), (60, 1))

    def test_unchanged_table_passes(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as workdir:
            table = workloads.TableCoverage(5, workdir, tiny=False, rows=inputs.table_rows(5, 60))
            self.assertEqual(self.counts(table), (60, 0))

    @staticmethod
    def counts(table):
        """(attempted, failed) of one repetition and its deferred check."""
        _, _, attempted, failed = table.rep(0)
        extra_attempted, extra_failed = table.finish()
        return attempted + extra_attempted, failed + extra_failed


class TracedSelfTimes(unittest.TestCase):
    def test_self_times_within_traced_wall_time(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), \
                    tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as workdir:
                workload = workloads.make_workload(name, 7, workdir, tiny=True)
                with workloads.ContentionProbe() as probe:
                    tracer, _, _, _, _, failed = workloads.timed_phase(
                        workload, 0, True, probe)
                    _, _, layer_failed = workloads.layer_metrics(tracer, workload, 7, workdir)
                self.assertEqual(failed + layer_failed, 0)
                self_times = tracer.self_times()
                self.assertIn("layers", self_times)
                self.assertTrue(all(t >= -1e-9 for t in self_times.values()), self_times)
                self.assertLessEqual(sum(self_times.values()), tracer.root_time() + 1e-9)


class StandaloneCheckout(unittest.TestCase):
    def test_fails_without_the_source_tree(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as empty:
            shutil.copytree(HERE, Path(empty) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            (Path(empty) / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "identity_sweep",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
