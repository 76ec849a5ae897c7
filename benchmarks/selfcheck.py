"""Fast self-check of the benchmark harness (no workload is run).

    python3 benchmarks/selfcheck.py

Covers the self-time arithmetic with overlapping pool spans, span parents
across the sweep's thread pool, the tail-percentile rule, the seed ->
inputs mapping, and the counts and checks built from program output.
"""

import os
import sys
import unittest
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(tracing.covered([]), 0.0)
        self.assertEqual(tracing.covered([(1, 5), (3, 7), (8, 9)]), 7.0)
        self.assertEqual(tracing.covered([(0, 10), (2, 3)]), 10.0)

    def test_pool_children_are_not_double_counted(self):
        # a sweep span whose two pool workers overlap, plus a grandchild
        spans = [Span(1, None, "spectrum.track_branches", 0.0, 10.0),
                 Span(2, 1, "eigen.eigvals", 1.0, 5.0),
                 Span(3, 1, "eigen.eigvals", 3.0, 7.0),
                 Span(4, 1, "operator.assemble", 8.0, 9.0),
                 Span(5, 4, "soliton.eval_profile", 8.0, 8.5)]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertAlmostEqual(selfs[4], 0.5)
        self.assertAlmostEqual(selfs[2], 4.0)
        layers = tracing.layer_metrics(
            [Span(s.sid, s.parent, s.name, s.start, s.end,
                  {"dim": 10, "vectors": s.sid == 2, "backend": "lapack",
                   "iterations": 0, "isolated": 0, "residual_max": 0.0,
                   "events": 0}) for s in spans], 0, 0, "")
        self.assertAlmostEqual(layers["spectrum.track_branches.self_s"], 3.0)
        self.assertAlmostEqual(layers["spectrum.track_branches.overlap"], 0.9)
        self.assertAlmostEqual(layers["eigen.eigvals.s"], 8.0)
        self.assertEqual(layers["eigen.eigvals.flops_computed"],
                         (25 + 10) * 10 ** 3)
        self.assertEqual(layers["eigen.eigvals.vector_calls"], 1)
        self.assertEqual(layers["operator.assemble.bytes_computed"], 1600)

    def test_child_self_time_clipped_to_parent(self):
        spans = [Span(1, None, "cli.main", 0.0, 2.0),
                 Span(2, 1, "operator.assemble", 1.5, 3.0)]
        self.assertAlmostEqual(tracing.self_times(spans)[1], 1.5)

    def test_pool_spans_keep_their_parent(self):
        from diracstab import spectrum
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            with tracer.span("outer") as outer:
                with spectrum.ThreadPoolExecutor(max_workers=2) as pool:
                    list(pool.map(lambda i: _span(tracer, f"w{i}"), range(4)))
        workers = [s for s in tracer.spans if s.name.startswith("w")]
        self.assertEqual(len(workers), 4)
        self.assertTrue(all(s.parent == outer.sid for s in workers))
        # uninstalling restores the module's own bindings
        self.assertIs(spectrum.ThreadPoolExecutor, ThreadPoolExecutor)


def _span(tracer, name):
    with tracer.span(name):
        pass


class Percentiles(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(1))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_summary(self):
        s = run.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual((s["median"], s["n"]), (3.0, 5))
        self.assertIsNone(s["tail"])
        self.assertEqual(run.summarize([2.0])["q1"], 2.0)
        s = run.summarize([float(i) for i in range(20)])
        self.assertEqual(s["tail"], (50.0, 10.0))


class SeedMapping(unittest.TestCase):
    def test_seed_zero_is_the_chosen_configuration(self):
        sweep = ["sweep", "--model", "gn", "--omega", "0.6667", "--n", "160",
                 "--p-range", "0.05:1.0:0.05", "--jobs", "2"]
        self.assertEqual(workloads.entry_for("validate-p0", 0).calls,
                         (["validate", "--n-values", "100,300"],))
        calls = workloads.entry_for("sweeps", 0).calls
        self.assertEqual(calls[0], sweep)
        self.assertEqual(calls[1], ["sweep", "--model", "mtm", "--omega", "0",
                                    "--n", "22", "--p-range", "0.05:1.0:0.05"])
        self.assertEqual([c[:3] for c in calls[2:]],
                         [["asymptotics", "--model", "mtm"],
                          ["asymptotics", "--model", "gn"]])

    def test_same_seed_same_inputs_and_equal_work(self):
        for name, pool in workloads.WORKLOADS.items():
            self.assertEqual(len({e.calls.__repr__() for e in pool}), len(pool))
            for seed in range(10):
                self.assertIs(workloads.entry_for(name, seed),
                              workloads.entry_for(name, seed + len(pool)))
            # seeds vary the numbers, never the grids and so the dimensions
            self.assertEqual(len({e.grids for e in pool}), 1, name)


class OutputChecks(unittest.TestCase):
    LINE = ("gn omega=+0.6667 N=300: metric=1.680e-03 reference=1.680e-03 "
            "ceiling=1.000e-02 {}")

    def test_validate_lines(self):
        checks = workloads.Checks()
        workloads._check_validate(checks, [self.LINE.format("FAIL") + "\n"])
        self.assertEqual(checks.attempted, 2)
        self.assertEqual(len(checks.failures), 2)  # the FAIL, the cell count
        self.assertAlmostEqual(
            tracing.spurious_ratio_max(self.LINE.format("PASS")), 0.168)

    def test_exit_code_failure_skips_output_checks(self):
        checks = workloads.Checks()
        entry = workloads.entry_for("validate-p0", 1)
        workloads.check("validate-p0", entry, [0, 4], ["", ""], checks)
        self.assertEqual((checks.attempted, len(checks.failures)), (2, 1))


if __name__ == "__main__":
    unittest.main()
