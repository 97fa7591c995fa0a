"""Self-tests of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

They run acceptance criterion 9's small config (N=6 quadratic, 25
iterations), so they take a few seconds, and write under perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest

import run
from checks import check_run, labels, poisson_ticks
from tracing import HOOKS, Tracer
from worker import call
from workloads import DEFAULT_SEED, WORKLOADS, criterion9

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def traced_run(name):
    bench = run.Run(f"selftest-{name}", criterion9(), trace=1)
    values, missing = run.per_layer(bench, 0, PER_LAYER)
    return bench, values, missing


class TracedCriterion9(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first = traced_run("a")
        cls.second = traced_run("b")

    def test_every_metric_appears(self):
        bench, values, missing = self.first
        self.assertEqual(missing, [])
        self.assertEqual(sorted(values), sorted(PER_LAYER))
        self.assertEqual((bench.failed, bench.problems), (0, []))
        self.assertGreater(values["objective.grad.calls"][0], 0)
        self.assertGreater(values["almethods.run_s.rand_gradient"][0], 0)

    def test_counts_repeat_across_traced_runs(self):
        exact = [n for n, unit in PER_LAYER.items() if unit in run.EXACT_UNITS]
        self.assertTrue(exact)
        for name in exact:
            self.assertEqual(self.first[1][name][0], self.second[1][name][0], name)


class OutputChecks(unittest.TestCase):
    def test_nan_in_a_copy_raises_fail_frac(self):
        cfg = criterion9()
        bench = run.Run("selftest-checks", cfg, trace=0)
        bench.collect(0, 1)
        self.assertEqual(bench.failed, 0, bench.problems)
        copy = bench.work / "corrupted"
        shutil.copytree(bench.work / "sample0", copy)
        self.assertFalse(any(check_run(cfg, copy)["problems"].values()))
        csv = copy / f"trace_{labels(cfg)[1]}.csv"
        lines = csv.read_text().splitlines()
        row = lines[5].split(",")
        row[4] = "nan"
        lines[5] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n")
        problems = check_run(cfg, copy)["problems"]
        failed = [label for label, p in problems.items() if p]
        self.assertEqual(failed, [labels(cfg)[1]])
        self.assertIn("non-finite value", problems[labels(cfg)[1]])

    def test_poisson_ticks_match_the_package_schedule(self):
        from dalopt.almethods import sample_poisson_schedule

        sched = sample_poisson_schedule(7, 3, 20, 11)
        expected = [0]
        for s in sched:
            expected.append(expected[-1] + s.tick_count)
        self.assertEqual(poisson_ticks(7, 3, 11, 20), expected)


class Hooks(unittest.TestCase):
    def test_missing_hook_is_tolerated(self):
        from dalopt import almethods, harness
        from dalopt.cli import main

        hooks = dict(HOOKS, **{"almethods.gone": ["dalopt.almethods:no_such_function"]})
        original = harness.run_variant
        work = run.Run("selftest-hooks", criterion9(), trace=1).work
        cfg = work / "config.json"
        cfg.write_text(json.dumps(dict(criterion9(), output_dir=str(work / "out"))))
        with Tracer(hooks) as tracer:
            self.assertIsNot(harness.run_variant, original)
            status, _, error = call(main, ["run", str(cfg)])
            self.assertEqual(status, "ok", error)
        self.assertIs(harness.run_variant, original)
        self.assertIs(almethods.run_variant, original)
        self.assertEqual(tracer.missing, ["almethods.gone"])
        totals, _ = tracer.totals()
        self.assertNotIn("almethods.gone", totals)
        self.assertGreater(totals["objective.grad"][0], 0)
        spans = {"missing": tracer.missing, "totals": totals}
        self.assertIsNone(run._span_metric("almethods.gone.self_s", spans, {}))


class Definitions(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        for name in WORKLOADS:
            ref = sorted(p.name for p in (run.REFERENCE / name).glob("trace_*.csv"))
            cfg = WORKLOADS[name](DEFAULT_SEED)
            self.assertEqual(ref, sorted(f"trace_{label}.csv" for label in labels(cfg)))

    def test_layer_map_covers_every_per_layer_metric(self):
        groups = json.loads((run.BENCH / "layer_map.json").read_text())
        mapped = [m for g in groups for m in g["metrics"]]
        self.assertEqual(sorted(mapped), sorted(PER_LAYER))
        names = {w["name"] for w in SPEC["workloads"]}
        ends = {m["name"] for m in SPEC["end_to_end"]}
        for g in groups:
            self.assertLessEqual(set(g["on"]), names)
            self.assertLessEqual(set(g["moves"]), ends)


if __name__ == "__main__":
    unittest.main()
