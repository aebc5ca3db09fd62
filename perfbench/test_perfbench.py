#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from anywhere with `python3 perfbench/test_perfbench.py`; the first run
builds the benchmark (see run.py). They check that the printed metric names
match BENCHMARK.json, that an injected checksum mismatch is counted in
failed_frac and fails the run, and that the traced pass reconciles exactly.
"""

import json
import subprocess
import sys
import unittest
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def run_py(*args):
    """run.py's exit code and its last stdout line, parsed."""
    p = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                       capture_output=True, text=True, timeout=300)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def run_binary(workload, *extra, trace=0):
    """The benchmark binary's exit code and JSON document."""
    p = subprocess.run([str(BINARY), "--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), *extra],
                       capture_output=True, text=True, timeout=300)
    return p.returncode, json.loads(p.stdout)


def metric(doc, name):
    return next(m for m in doc["metrics"] if m["name"] == name)


class MetricNames(unittest.TestCase):
    def check(self, result, group):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_names_match_every_workload(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result = run_py("--workload", w, "--seed", "3",
                                      "--seconds", "1", "--trace", "0")
                self.assertEqual(code, 0)
                self.check(result, "end_to_end")
                self.assertTrue(all(m["value"] > 0
                                    for m in result["metrics"].values()))

    def test_per_layer_names_match(self):
        code, result = run_py("--workload", "compile", "--seed", "3",
                              "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.check(result, "per_layer")

    def test_benchmark_json_workloads_are_the_runners(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)


class InjectedMismatch(unittest.TestCase):
    """A perturbed reference makes every task of one workload mismatch."""

    def check(self, workload, per_pass, tasks_per_pass):
        code, doc = run_binary(workload, "--corrupt-reference", "181.mcf")
        self.assertEqual(code, 1)
        passes = doc["attempted"] // tasks_per_pass
        self.assertGreaterEqual(passes, 1)
        self.assertEqual(doc["attempted"], passes * tasks_per_pass)
        self.assertEqual(doc["failed"], passes * per_pass)
        self.assertTrue(any("181.mcf" in e for e in doc["errors"]))
        frac = metric(doc, "failed_frac")
        self.assertEqual(frac["value"], doc["failed"] / doc["attempted"])
        self.assertEqual(frac["n"], doc["attempted"])

    def test_compile_scheduled_order_verification(self):
        self.check("compile", per_pass=5, tasks_per_pass=60)

    def test_fleet_run_suite_compare(self):
        self.check("fleet", per_pass=4, tasks_per_pass=48)

    def test_clean_run_passes(self):
        code, doc = run_binary("compile")
        self.assertEqual(code, 0)
        self.assertEqual(doc["failed"], 0)
        self.assertEqual(doc["errors"], [])
        self.assertEqual(metric(doc, "failed_frac")["value"], 0)


def covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur = 0, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur and a <= cur[1]:
            cur[1] = max(cur[1], b)
            continue
        if cur:
            total += cur[1] - cur[0]
        cur = [a, b]
    return total + (cur[1] - cur[0] if cur else 0)


class Reconciliation(unittest.TestCase):
    """Self times re-derived from the Chrome trace sum to the wall time."""

    def check(self, workload):
        path = run.TRACE_DIR / f"test-{workload}.json"
        run.TRACE_DIR.mkdir(parents=True, exist_ok=True)
        code, doc = run_binary(workload, "--trace-out", str(path), trace=1)
        self.assertEqual(code, 0, doc["errors"])
        rec = doc["reconciliation"]
        self.assertTrue(rec["exact"])
        self.assertEqual(rec["self_sum_ns"] + rec["unattributed_ns"],
                         rec["wall_ns"])

        trace = json.loads(path.read_text(), parse_float=Decimal)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertTrue(spans)
        ns = [(int(e["ts"] * 1000), int((e["ts"] + e["dur"]) * 1000))
              for e in spans]
        children = {i: [] for i in range(len(spans))}
        top = []
        for i, e in enumerate(spans):
            parent = e["args"]["parent"]
            self.assertIn("|", e["args"]["task"])
            if parent < 0:
                top.append(ns[i])
                continue
            lo, hi = ns[parent]
            self.assertTrue(lo <= ns[i][0] <= ns[i][1] <= hi)
            children[parent].append(ns[i])
        self_ns = {}
        for i, e in enumerate(spans):
            lo, hi = ns[i]
            self_ns[e["name"]] = (self_ns.get(e["name"], 0) + hi - lo -
                                  covered(children[i], lo, hi))
        wall = rec["wall_ns"]
        unattributed = wall - covered(top, 0, wall)
        self.assertEqual(unattributed, rec["unattributed_ns"])
        self.assertEqual(sum(self_ns.values()) + unattributed, wall)
        for name, value in self_ns.items():
            key = {"compile": "compile.busy_s",
                   "bench.task": "bench.self_s"}.get(name, name + "_s")
            self.assertAlmostEqual(metric(doc, key)["value"], value / 1e9,
                                   places=9)

    def test_fleet(self):
        self.check("fleet")

    def test_compile(self):
        self.check("compile")


if __name__ == "__main__":
    unittest.main()
