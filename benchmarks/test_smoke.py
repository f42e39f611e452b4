"""Smoke test of the benchmark: each workload in miniature, and its gate.

Run from the repository root (about a minute):

    python3 -m unittest benchmarks/test_smoke.py
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
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple:
    """Run the miniature benchmark; (completed process, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--seconds", "1", "--mini", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc, result = bench("--workload", workload["name"], "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    lines = set(proc.stdout.splitlines())
                    for name, unit in want.items():
                        value = result["metrics"][name]["value"]
                        self.assertIsInstance(value, (int, float))
                        self.assertIn(f"{name} {value!r} {unit}", lines)
                        if kind == "end_to_end":
                            self.assertGreater(value, 0, name)

    def test_gate_fails_on_wrong_checksum(self):
        expected = json.loads((HERE / "expected.json").read_text())
        key = "cstar:500,100,0.05"
        expected[key]["sha256"] = "0" * 64
        OUT.mkdir(exist_ok=True)
        wrong = OUT / "expected-wrong.json"
        wrong.write_text(json.dumps(expected))
        proc, result = bench("--workload", "ladder", "--trace", "0", "--expected", str(wrong))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(key, proc.stdout)

    def test_fails_without_the_program(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc, result = bench("--workload", "small", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
