"""Self-test of the end-to-end benchmark.

    python3 -m unittest discover -s perfbench/tests -v

A smoke-size run of every workload, untraced and traced, must pass the
correctness gate and print every metric BENCHMARK.json names, with its unit.
The first test run builds the harness, which takes a minute or so.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeRunTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload, "--seed", "7",
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout.strip().splitlines()

    def test_every_metric_is_printed_with_its_unit(self):
        spec = load_spec()
        for workload in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    lines = self.run_bench(workload["name"], trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in spec[kind]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    printed = {tuple(line.split()[::2])
                               for line in lines[:-1]
                               if len(line.split()) == 3}
                    for name, unit in expected.items():
                        self.assertIn((name, unit), printed)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "zipf-read", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class CompareTest(unittest.TestCase):
    def write_set(self, path, ops_per_s):
        spec = load_spec()
        with open(path, "w") as f:
            for seed, v in enumerate(ops_per_s):
                e2e = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
                e2e["ops_per_s"]["value"] = v
                f.write(json.dumps({
                    "trace": 0, "end_to_end": e2e,
                    "provenance": {"workload": "zipf-read",
                                   "seed": seed}}) + "\n")

    def verdict_of(self, a, b):
        d = os.path.join(ROOT, ".bench_build", "selftest-compare")
        os.makedirs(d, exist_ok=True)
        pa, pb = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
        self.write_set(pa, a)
        self.write_set(pb, b)
        p = subprocess.run([sys.executable, RUN_PY, "--compare", pa, pb],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=60)
        self.assertEqual(p.returncode, 0, p.stderr)
        row = [line for line in p.stdout.splitlines()
               if line.startswith("zipf-read") and " ops_per_s " in line]
        self.assertEqual(len(row), 1, p.stdout)
        return row[0].split()[-2]

    def test_verdicts_follow_the_pairs_won_rule(self):
        parent = [100.0 + i for i in range(10)]
        self.assertEqual(self.verdict_of(parent, [v * 1.3 for v in parent]),
                         "better")
        self.assertEqual(self.verdict_of(parent, [v * 0.7 for v in parent]),
                         "worse")
        # Wins most pairs, but by less than the parent's own spread.
        self.assertEqual(self.verdict_of(parent, [v + 1 for v in parent]),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
