#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark through perfbench/run.py on first use (about a
minute), then checks that
  * one seed fixes the request stream and its reference digests, and
    another seed changes them;
  * each serve workload has the caching property it claims: serve_repeat
    hits the AST memo and the plan cache (>= 0.99), serve_unique misses
    both (<= 0.01);
  * a run prints exactly the metrics BENCHMARK.json names, with no
    output mismatch;
  * without the fro sources next to it the benchmark exits non-zero and
    prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(*args, cwd=ROOT, runner=RUN):
    return subprocess.run([sys.executable, runner, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SeedTest(unittest.TestCase):
    def dump(self, workload, seed):
        proc = run("--workload", workload, "--seed", str(seed),
                   "--dump-stream", "40")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(proc.stdout.strip())
        return proc.stdout

    def test_seed_fixes_stream_and_digests(self):
        for workload in ("serve_repeat", "serve_unique", "analytic_oj"):
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertEqual(first, self.dump(workload, 7))
                self.assertNotEqual(first, self.dump(workload, 8))

    def test_unique_texts_never_repeat(self):
        texts = [line.split("\t")[-1]
                 for line in self.dump("serve_unique", 7).splitlines()]
        self.assertEqual(len(texts), len(set(texts)))


class CachingPropertyTest(unittest.TestCase):
    def traced(self, workload):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "4",
                   "--trace", "1")
        return proc, result_of(proc)["metrics"]

    def test_serve_repeat_hits(self):
        proc, m = self.traced("serve_repeat")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertGreaterEqual(m["server.ast_hit_rate"]["value"], 0.99)
        self.assertGreaterEqual(m["optimizer.plan_cache_hit_rate"]["value"],
                                0.99)

    def test_serve_unique_misses(self):
        # serve_unique can report wrong results (plan-cache key collisions,
        # perfbench/README.md), which makes the run exit 1; the caching
        # property is checked on its output either way.
        _, m = self.traced("serve_unique")
        self.assertLessEqual(m["server.ast_hit_rate"]["value"], 0.01)
        self.assertLessEqual(m["optimizer.plan_cache_hit_rate"]["value"],
                             0.01)
        self.assertGreater(m["optimizer.plan_cache_evictions"]["value"], 0)


class ResultLineTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = benchmark_spec()
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        per_layer = {m["name"] for m in spec["per_layer"]}
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, names in (("0", end_to_end), ("1", per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run("--workload", workload, "--seed", "5",
                               "--seconds", "3", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), names)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "serve_repeat", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=bare,
                   runner=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
