"""Smoke test of the benchmark at tiny sizes.

    python3 -m unittest perfbench/test_bench.py

Checks that every metric is emitted with its unit, that traced self times
plus trace.unattributed_s sum to the traced wall time, that traced counts
repeat exactly, that every wrapped cbp function is restored, that the
output checks reject wrong answers, and that the benchmark fails without
a result when the cbp sources are missing.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sweep", "analyze", "dp")


def bench(workload: str, trace: int, seed: int = 3, root: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


class EndToEnd(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        self.assertEqual({w["name"] for w in declared["workloads"]}, set(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]], list(tracing.PER_LAYER))
        for workload in WORKLOADS:
            code, lines = bench(workload, 0)
            self.assertEqual(code, 0, workload)
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(
                {n: m["unit"] for n, m in result["metrics"].items()}, dict(run.END_TO_END), workload
            )
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), workload)
            self.assertEqual(json.loads(lines[-2])["fail_ratio"], 0.0)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines = bench("dp", 0, root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class Traced(unittest.TestCase):
    def test_self_times_sum_to_wall_and_counts_repeat(self):
        for workload in WORKLOADS:
            runs = []
            for _ in range(2):
                code, lines = bench(workload, 1)
                self.assertEqual(code, 0, workload)
                runs.append(json.loads(lines[-1])["metrics"])
            first, second = runs
            self.assertEqual({n: m["unit"] for n, m in first.items()}, dict(tracing.PER_LAYER))
            attributed = sum(first[n]["value"] for n in tracing.SELF_BUCKETS)
            wall = first["trace.wall_s"]["value"]
            self.assertAlmostEqual(attributed + first["trace.unattributed_s"]["value"], wall, places=9)
            self.assertGreater(first["trace.unattributed_s"]["value"], 0)
            counts = [n for n, unit in tracing.PER_LAYER if unit == "count"]
            self.assertEqual({n: first[n]["value"] for n in counts}, {n: second[n]["value"] for n in counts})

    def test_wrappers_are_restored(self):
        importlib.import_module("cbp.cli")
        before = tracing.public_functions()
        with tracing.Tracer() as tracer:
            wrapped = tracing.public_functions()
            skeleton = importlib.import_module("cbp.skeleton")
            self.assertIsNot(skeleton.adjacent_geometric, dict((a, f) for _, a, f in before)["adjacent_geometric"])
            workload = workloads.DP(tiny=True)
            inputs = workload.generate(1, None)
            for _, call in workload.units(inputs, trace=True):
                call()
        self.assertEqual(tracing.public_functions(), before)
        self.assertEqual(len(wrapped), len(before))
        self.assertGreater(len(tracer.spans), 0)
        self.assertTrue(all(s[3] <= s[4] for s in tracer.spans))


class Checks(unittest.TestCase):
    def test_oracles_agree_with_the_package(self):
        graphs = importlib.import_module("cbp.graphs")
        corpus = importlib.import_module("cbp.corpus")
        optimize = importlib.import_module("cbp.optimize")
        vertices = importlib.import_module("cbp.vertices")
        rng = random.Random(5)
        for size in range(1, 8):
            g = corpus.random_block_tree(rng, size)
            d = graphs.block_decomposition(g)
            blocks = oracles.find_blocks(g.vertex_count, g.sorted_edges())
            self.assertEqual([(b.vertices, b.edges) for b in d.blocks], blocks)
            self.assertEqual(oracles.count_connected_blocksets(blocks), len(vertices.enumerate_vertices(d)))
            w = [workloads.rational(rng, 5, 3) for _ in blocks]
            self.assertEqual(oracles.best_value(blocks, w), optimize.brute_force_optimum(d, w).value)

    def test_wrong_answers_are_rejected(self):
        optimize = importlib.import_module("cbp.optimize")
        dp = workloads.DP(tiny=True)
        inputs = dp.generate(2, None)
        item, call = next(iter(dp.units(inputs)))
        sol = call()
        self.assertIsNone(dp.check(item, sol))
        worse = optimize.Solution(blockset=sol.blockset, value=sol.value + 1)
        self.assertIsNotNone(dp.check(item, worse))
        if sol.value:
            self.assertIsNotNone(dp.check(item, optimize.Solution(blockset=(), value=Fraction(0))))
        sweep = workloads.Sweep(tiny=True)
        entry = sweep.generate(2, None).items[0]
        report = json.loads(sweep.verify(entry))
        report["graphs"][0]["checks"][0]["status"] = "fail"
        self.assertIsNotNone(sweep.check(entry, json.dumps(report)))


if __name__ == "__main__":
    unittest.main()
