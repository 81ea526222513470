#!/usr/bin/env python3
"""Determinism and result-shape tests for the perfbench binary.

    python3 perfbench/tests/test_determinism.py <path to perfbench binary>

For every workload, one cycle (`--seconds 0`: every instance or world
once) with the same seed gives the same simulated outputs (hops, rounds,
relay counts, deliveries, latency quantiles) with SELECT_THREADS=1 and with
one thread per usable CPU, and a traced run gives them too; another seed changes them. Every run is correct with no failed
operation, and its result line carries exactly the metrics BENCHMARK.json
names.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

BINARY = ""
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, seed, threads, trace=0):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SEL_", "SELECT_"))}
    env.update(SEL_OBS="off", SELECT_THREADS=str(threads))
    with tempfile.TemporaryDirectory() as traces:
        out = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace), "--trace-dir", traces],
            env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    outputs = next(l for l in lines if l.startswith("outputs "))
    return json.loads(outputs[len("outputs "):]), json.loads(lines[-1])


class Determinism(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_outputs_depend_on_the_seed_alone(self):
        cores = len(os.sched_getaffinity(0))
        for w in self.bench["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                one, result = run(name, 7, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in self.bench["end_to_end"]})
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

                many, _ = run(name, 7, cores)
                self.assertEqual(one, many)

                traced, traced_result = run(name, 7, cores, trace=1)
                self.assertEqual(one, traced)
                self.assertEqual(set(traced_result["metrics"]),
                                 {m["name"] for m in self.bench["per_layer"]})

                other, _ = run(name, 8, cores)
                self.assertNotEqual(one, other)


if __name__ == "__main__":
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()
