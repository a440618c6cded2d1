#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_bench.py

Builds perfbench/bench.exe, then checks the metric catalogue against
BENCHMARK.json, runs one short simulation to check the host-time
accounting and determinism, runs the benchmark command in both modes on
the cheapest workload, and checks that a checkout without the sources
fails without printing a result.  Takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
CHEAP = "synth-a-below-knee"


def load_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_cmd(*args):
    return subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")] + list(args),
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)


class Catalogue(unittest.TestCase):
    def test_names(self):
        spec = load_benchmark_json()
        names = (list(run.END_TO_END) + list(run.PER_LAYER)
                 + [w["name"] for w in spec["workloads"]])
        for name in names:
            self.assertRegex(name, NAME)

    def test_metric_sets_match_benchmark_json(self):
        spec = load_benchmark_json()
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        layer = {m["name"]: m for m in spec["per_layer"]}
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertEqual(set(layer), set(run.PER_LAYER))
        for name, m in e2e.items():
            self.assertEqual(m["unit"], run.END_TO_END[name], name)
        for name, m in layer.items():
            self.assertEqual(m["unit"], run.PER_LAYER[name][0], name)
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_workloads_have_reasons(self):
        spec = load_benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.SUBSEEDS))
        for w in spec["workloads"]:
            self.assertTrue(w["why"].strip(), w["name"])
            self.assertNotIn("\n", w["why"])

    def test_each_layer_metric_names_what_it_moves(self):
        for name, (unit, moves, where) in run.PER_LAYER.items():
            self.assertTrue(unit, name)
            for metric in moves.split(", "):
                self.assertIn(metric, run.END_TO_END, name)
            for workload in where.split(", "):
                self.assertIn(workload, run.SUBSEEDS, name)


class Simulation(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        short = ["--window-s", "2"]
        cls.a = run.simulate(CHEAP, 7, extra=short)
        cls.b = run.simulate(CHEAP, 7, extra=short)
        cls.traced = run.simulate(CHEAP, 7, traced=True, extra=short)

    def test_phases_sum_to_wall(self):
        # Set-up ends and the event loop starts and ends at probe events
        # inside the simulation; the harness's post-run tail is in no
        # phase, so the check fails if that tail, or a misplaced probe,
        # takes more than 1% of the run.
        for rep in (self.a, self.traced):
            phases = rep["setup_s"] + run.loop_self_s(rep) + rep["gen_s"] + rep["obs_s"]
            self.assertAlmostEqual(phases / rep["wall_s"], 1.0, delta=0.01)
            self.assertGreater(run.loop_self_s(rep), 0.0)

    def test_setup_only(self):
        times = run.setup_times(CHEAP, 7)
        self.assertEqual(len(times), 40)
        self.assertTrue(all(t > 0.0 for t in times))
        # Warm set-ups are no slower than the cold one of a full run.
        self.assertLess(min(times), self.a["setup_s"])
        self.assertAlmostEqual(run.scaled_setup_s([0.01, 0.03], run.REF_HOST_S / 2), 0.04)

    def test_gate_passes(self):
        run.gate(self.a, full_window=False)
        run.gate(self.traced, full_window=False)
        self.assertEqual(self.traced["spsi_violations"], 0)

    def test_deterministic(self):
        run.same_outcome(self.a, self.b, "repeat")
        run.same_outcome(self.a, self.traced, "traced")

    def test_gate_names_the_check(self):
        broken = dict(self.a, latency_count=self.a["latency_count"] + 1)
        with self.assertRaisesRegex(run.CheckFailed, "latency samples"):
            run.gate(broken, full_window=False)
        with self.assertRaisesRegex(run.CheckFailed, "determinism"):
            run.same_outcome(self.a, dict(self.a, fingerprint=self.a["fingerprint"] + 1), "x")

    def test_critpath_check(self):
        parts = dict(("critpath_us." + c, 10.0) for c in run.CRITPATH)
        rep = dict(parts, critpath_txs=50, latency_count=50, mean_us=100.5,
                   aborts=0, commits=50, critpath_total_us=100.0)
        run.check_critpath(rep, "ok")
        for broken in (dict(rep, mean_us=110.0), dict(rep, mean_us=99.0),
                       dict(rep, critpath_txs=49)):
            with self.assertRaisesRegex(run.CheckFailed, "critical.path"):
                run.check_critpath(broken, "broken")
        run.check_critpath(dict(rep, mean_us=110.0, aborts=5), "retried")

    def test_held_out_seed_runs(self):
        rep = run.simulate(CHEAP, run.subseed(9001, 0), extra=["--window-s", "2"])
        run.gate(rep, full_window=False)


class Command(unittest.TestCase):
    def check_mode(self, trace, expected):
        proc = bench_cmd("--workload", CHEAP, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        if trace == 0:
            # Every sub-seed once, and the first repeated.
            self.assertGreater(result["attempted"], run.SUBSEEDS[CHEAP])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], run.END_TO_END.get(name) or run.PER_LAYER[name][0])
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_mode(self):
        self.check_mode(0, run.END_TO_END)

    def test_per_layer_mode(self):
        self.check_mode(1, run.PER_LAYER)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", CHEAP, "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
