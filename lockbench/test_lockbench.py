#!/usr/bin/env python3
"""Tests of the lock-service benchmark itself (smoke, schema, determinism,
correctness gate). Every run lasts one second plus set-up (traced runs
add a short TCP mesh probe), so the whole file takes about a minute once
the binary is built.

    python3 lockbench/test_lockbench.py
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "lockbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, extra=(), cwd=ROOT, run=RUN):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(out):
    return json.loads(out.stdout.strip().split("\n")[-1])


def printed(out):
    """'name value unit' lines above the result line, by name."""
    lines = {}
    for line in out.stdout.strip().split("\n")[:-1]:
        parts = line.split()
        if len(parts) == 3:
            lines.setdefault(parts[0], []).append(parts)
    return lines


def exact_line(out):
    return [l for l in out.stdout.split("\n")
            if l.startswith("exact sim probe:")]


class ContractFile(unittest.TestCase):
    def test_keys_bounds_and_names(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))

    def test_every_layer_metric_has_a_prediction(self):
        layers = json.loads((ROOT / "lockbench" / "layers.json").read_text())
        self.assertEqual(sorted(layers["metrics"]),
                         sorted(m["name"] for m in SPEC["per_layer"]))


class Smoke(unittest.TestCase):
    def check_result(self, out, wanted, trace):
        self.assertEqual(out.returncode, 0, out.stderr)
        result = result_of(out)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        lines = printed(out)
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
            self.assertEqual(len(lines.get(m["name"], [])), 1, m["name"])
            self.assertEqual(lines[m["name"]][0][2], m["unit"], m["name"])

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(bench(workload), SPEC["end_to_end"], False)

    def test_every_workload_traced_and_span_file_parses(self):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        for workload in WORKLOADS + ["tcp-mesh"]:
            with self.subTest(workload=workload):
                out = bench(workload, seed=5, trace=1)
                self.check_result(out, SPEC["per_layer"], True)
                spans = ROOT / target / "lockbench" / "spans" / \
                    f"{workload}-5.json"
                events = json.loads(spans.read_text())["traceEvents"]
                names = {e["name"] for e in events}
                self.assertTrue({"op", "acquire", "cs", "release"} <= names)
                self.assertIn("micro.rtt", names)
                if workload != "tcp-mesh":
                    self.assertIn("tcp-mesh probe:", out.stdout)
                for e in events:
                    self.assertGreaterEqual(e["dur"], 0)


class Determinism(unittest.TestCase):
    def test_sim_exact_counts_repeat_per_seed(self):
        exact = ("proto.request_msgs_per_entry", "proto.token_msgs_per_entry",
                 "proto.entries_per_kilotick", "proto.mean_wait_ticks",
                 "proto.max_wait_ticks", "sim.events_per_entry")
        lines = {}
        for seed in (7, 8):
            first = bench("threaded-hot", seed, trace=1)
            second = bench("threaded-spread", seed, trace=1)
            for out in (first, second):
                self.assertEqual(out.returncode, 0, out.stderr)
            self.assertEqual(len(exact_line(first)), 1)
            self.assertEqual(exact_line(first), exact_line(second))
            for name in exact:
                self.assertEqual(result_of(first)["metrics"][name],
                                 result_of(second)["metrics"][name], name)
            lines[seed] = exact_line(first)
        self.assertNotEqual(lines[7], lines[8])


class CorrectnessGate(unittest.TestCase):
    def test_broken_runs_exit_nonzero_without_a_result(self):
        # tcp-mesh is no benchmark workload, but its gate guards the mesh
        # probe of every traced run.
        for workload in WORKLOADS + ["tcp-mesh"]:
            for fault in ("witness", "count"):
                with self.subTest(workload=workload, fault=fault):
                    out = bench(workload, extra=("--inject", fault))
                    self.assertNotEqual(out.returncode, 0)
                    self.assertNotIn('"metrics"', out.stdout)
                    self.assertIn("correctness check failed", out.stderr)

    def test_checkout_without_sources_fails(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(ROOT / "lockbench", Path(scratch) / "lockbench")
            out = bench("threaded-hot", cwd=scratch,
                        run=Path(scratch) / "lockbench" / "run.py")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
