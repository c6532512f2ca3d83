"""Per-request timeouts, the metric names and the refusal to run without sources.

    PYTHONPATH=src python3 -m unittest discover -s perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNAWAY = "GL(200,R)"  # enumerating it never ends


def _small_packet_requests():
    return [
        {"id": 0, "kind": "packet", "group": "U(3,3)", "subset": [1]},
        {"id": 1, "kind": "enumerate", "group": RUNAWAY, "weight": [0] * 200,
         "singular": list(range(1, 200))},
        {"id": 2, "kind": "packet", "group": "Sp(8,R)", "subset": [1, 2]},
    ]


class TimeoutTests(unittest.TestCase):
    def test_runaway_worker_request_fails_and_the_pass_finishes(self):
        t0 = time.perf_counter()
        p = run.worker_pass(_small_packet_requests(), False, t0 + 60, timeout=1.0)
        self.assertLess(time.perf_counter() - t0, 30)
        self.assertEqual(p.results[1]["error"], "timed out")
        self.assertIn("summary", p.results[0])
        self.assertIn("summary", p.results[2])

    def test_runaway_cli_command_fails_and_the_pass_finishes(self):
        reqs = [
            {"id": 0, "kind": "cli", "argv": ["enumerate", "--group", RUNAWAY]},
            {"id": 1, "kind": "cli", "argv": ["enumerate", "--group", "Sp(4,R)"]},
        ]
        t0 = time.perf_counter()
        p = run.cli_pass(reqs, False, t0 + 60, timeout=1.0)
        self.assertEqual(p.results[0]["error"], "timed out")
        self.assertEqual(p.results[1]["summary"]["exit"], 0)
        attempted, failed, _ = run.grade(reqs, [p], workloads.load_reference())
        self.assertEqual((attempted, failed), (2, 1))


class MetricNameTests(unittest.TestCase):
    def test_reported_metrics_are_the_declared_ones(self):
        reqs = [r for r in _small_packet_requests() if r["kind"] == "packet"]
        deadline = time.perf_counter() + 60
        passes = [run.worker_pass(reqs, traced, deadline) for traced in (False, True)]
        run.grade(reqs, passes, workloads.load_reference())
        run.scale(passes)

        e2e, _ = run.end_to_end(passes, [(0.2, run.speed.NOMINAL_SPAWN_MS)])
        self.assertEqual(list(e2e), [m["name"] for m in BENCHMARK["end_to_end"]])
        self.assertEqual({u for _, u in e2e.values()},
                         {m["unit"] for m in BENCHMARK["end_to_end"]})

        layers, notes = run.per_layer(passes)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in layers.items()}, declared)
        self.assertGreater(layers["trace.unattributed_s"][0], 0)
        self.assertIn("layer self times sum to no more than the traced wall time", notes)


class CheckoutTests(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE.parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                BENCHMARK["command"] + ["--workload", "cli-session", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
