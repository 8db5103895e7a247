"""Smoke test for the benchmark itself; standard library only.

    python3 perfbench/smoke_test.py      # from the repository root

Each test copies the program and the benchmark into a tree under
``perfbench/out`` and trims that copy's ``reference.json`` to one word
per stratum and a few strata, so a run is one short round.  The tests
check that the printed metrics are exactly those that ``BENCHMARK.json``
names, with the same units; that span self times are never negative; that
a wrong output counts as failed; and that the benchmark refuses to run
where the program's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STRATA_KEPT = 3  # the cheapest strata: one op for each of run.py's three workers


def tree(name: str, with_program: bool = True, corrupt: str | None = None) -> Path:
    """A copy of the benchmark (and the program) with a trimmed reference.

    ``corrupt`` names a workload whose kept digests are replaced by zeros."""
    root = OUT / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if not with_program:
        return root
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = root / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    for workload, pool in reference["workloads"].items():
        pool["strata"] = [
            {"count": 1, "words": stratum["words"][:1]} for stratum in pool["strata"][:STRATA_KEPT]
        ]
        if workload == corrupt:
            for stratum in pool["strata"]:
                for word in stratum["words"]:
                    word["sha256"] = "0" * 64
    path.write_text(json.dumps(reference))
    return root


def bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def parse(done):
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stderr
    info = json.loads(lines[-2].split(" ", 1)[1])
    return info, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = tree("small")

    def check_names(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info, result = parse(bench(self.root, workload, 0))
                self.check_names(result, "end_to_end")
                self.assertTrue(result["correct"], info["notes"])
                self.assertEqual(result["failed"], 0)
                keys = ("python", "nproc", "commit", "seed", "tail_percentile", "raw_latency_p50_s")
                for key in keys:
                    self.assertIn(key, info)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info, result = parse(bench(self.root, workload, 1))
                self.check_names(result, "per_layer")
                self.assertTrue(result["correct"], info["notes"])
                self.assertTrue(info["self_times_sum_to_op_time"])
                spans = json.loads((self.root / info["spans_file"]).read_text())["spans"]
                self.assertTrue(spans)
                self.assertTrue(all(span[-1] >= 0 for span in spans))

    def test_wrong_output_counts_as_failed(self):
        info, result = parse(bench(tree("corrupted", corrupt="verify-fuzz"), "verify-fuzz", 0))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(info["failed_share"], 0)
        self.assertLess(result["metrics"]["ok_share"]["value"], 1)

    def test_refuses_without_the_program(self):
        done = bench(tree("bare", with_program=False), "verify-fuzz", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
