#!/usr/bin/env python3
"""Tests of the slot benchmark itself, at a reduced fleet size.

    python3 -m unittest perfbench/test_perfbench.py      # from the repo root

They build perfbench/ like run.py does, run perfbench_selftest (percentile
rule, span self time, digest), then drive every workload through run.py
with two seeds and check the output contract: every metric named in
BENCHMARK.json with its unit, no failed slot, exact repeats of the
deterministic metrics and the forecast digest within a seed, different
inputs across seeds, and no two metrics that are always equal.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Small fleets keep a run to a few seconds. With --seconds 1 each workload
# runs its floor of timed slots, the count the p99 and retrain-median rules
# need.
SMALL = {
    "inproc-alibaba4k": ["--nodes", "256"],
    "tcp-shards-google4k": ["--nodes", "256"],
    "retrain-bitbrains1k": ["--nodes", "128"],
}
# Metrics that depend only on the seed, never on timing.
EXACT_E2E = ["rmse_h1", "rmse_hmax", "traffic_fraction",
             "uplink_bytes_per_node_slot"]
EXACT_LAYER = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "B")]


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
        + SMALL[workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("forecast_digest"))
    return proc.returncode, json.loads(lines[-1]), digest


def always_equal_pairs(runs):
    """Metric pairs whose values are equal in every run of `runs`."""
    names = sorted(runs[0]["metrics"])
    value = lambda r, n: r["metrics"][n]["value"]
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
            if all(value(r, a) == value(r, b) for r in runs)]


class HelperTest(unittest.TestCase):
    def test_selftest_binary(self):
        run.build(run.build_dir())
        subprocess.run([os.path.join(run.build_dir(), "perfbench_selftest")],
                       check=True)

    def test_always_equal_pairs(self):
        mk = lambda **kw: {"metrics": {k: {"value": v} for k, v in kw.items()}}
        self.assertEqual(always_equal_pairs([mk(a=1, b=1, c=2),
                                             mk(a=3, b=3, c=3)]), [("a", "b")])
        self.assertEqual(always_equal_pairs([mk(a=1, b=1), mk(a=1, b=2)]), [])


class WorkloadTest(unittest.TestCase):
    def check_contract(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1000)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_two_seeds(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                code1, r1, d1 = bench(workload, 1, 0)
                code1b, r1b, d1b = bench(workload, 1, 0)
                code2, r2, d2 = bench(workload, 2, 0)
                self.assertEqual([code1, code1b, code2], [0, 0, 0])
                for r in (r1, r1b, r2):
                    self.check_contract(r, SPEC["end_to_end"])
                    for name in SPEC["end_to_end"]:
                        self.assertNotEqual(r["metrics"][name["name"]]["value"], 0)
                self.assertEqual(d1, d1b)
                self.assertNotEqual(d1, d2)
                for name in EXACT_E2E:
                    self.assertEqual(r1["metrics"][name], r1b["metrics"][name])
                self.assertEqual(always_equal_pairs([r1, r2]), [])

    def test_traced_run_repeats_counts(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                code, r1, d1 = bench(workload, 3, 1)
                code_b, r1b, d1b = bench(workload, 3, 1)
                self.assertEqual([code, code_b], [0, 0])
                self.check_contract(r1, SPEC["per_layer"])
                self.assertEqual(d1, d1b)
                for name in EXACT_LAYER:
                    self.assertEqual(r1["metrics"][name], r1b["metrics"][name],
                                     name)


if __name__ == "__main__":
    unittest.main()
