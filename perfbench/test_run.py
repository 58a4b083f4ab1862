# SPDX-License-Identifier: MIT
"""Self-tests of the benchmark harness (python3 perfbench/run.py --selftest).

They need no build: they cover the spec generator, the statistics, the
result-line parser and the trace validator.
"""
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SpecGenerator(unittest.TestCase):
    def test_same_seed_same_specs(self):
        for workload in run.WORKLOAD_BY_NAME:
            self.assertEqual(run.make_specs(workload, 7),
                             run.make_specs(workload, 7))

    def test_only_base_seed_differs_between_seeds(self):
        for workload in run.WORKLOAD_BY_NAME:
            a = run.make_specs(workload, 3)
            b = run.make_specs(workload, 4)
            self.assertEqual(a.keys(), b.keys())
            for name in a:
                lines_a = a[name].splitlines()
                lines_b = b[name].splitlines()
                self.assertEqual(len(lines_a), len(lines_b))
                diff = [(x, y) for x, y in zip(lines_a, lines_b) if x != y]
                self.assertEqual(diff, [("base_seed = 3", "base_seed = 4")])

    def test_pooled_workloads_use_at_most_nproc_participants(self):
        for workload in run.WORKLOAD_BY_NAME:
            for text in run.make_specs(workload, 1).values():
                for line in text.splitlines():
                    if line.startswith("threads ="):
                        self.assertLessEqual(int(line.split("=")[1]) + 1, 4)


class Statistics(unittest.TestCase):
    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 100), 4.0)
        self.assertAlmostEqual(run.percentile(values, 50), 2.5)
        self.assertAlmostEqual(run.percentile(values, 90), 3.7)
        self.assertEqual(run.percentile([5.0], 99), 5.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_percentile_matches_median(self):
        values = [0.3, 9.1, 2.2, 7.5, 5.0, 1.1, 8.8]
        self.assertAlmostEqual(run.percentile(values, 50),
                               statistics.median(values))

    def test_quartile_spread(self):
        values = list(range(1, 11))  # quantiles: 2.75, 5.5, 8.25
        self.assertAlmostEqual(run.quartile_spread(values), 5.5 / 5.5)
        self.assertAlmostEqual(run.quartile_spread([2.0] * 10), 0.0)


class ResultLine(unittest.TestCase):
    GOOD = {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"campaign_s": {"value": 1.5, "unit": "s"}}}

    def test_parses_last_line(self):
        stdout = '{"header": {}}\n# table\n' + json.dumps(self.GOOD) + "\n"
        self.assertEqual(run.parse_result_line(stdout), self.GOOD)

    def test_rejects_malformed(self):
        bad = [
            "",
            "not json",
            json.dumps({**self.GOOD, "extra": 1}),
            json.dumps({**self.GOOD, "attempted": 0}),
            json.dumps({**self.GOOD, "failed": 1.5}),
            json.dumps({**self.GOOD, "correct": "yes"}),
            json.dumps({**self.GOOD,
                        "metrics": {"x": {"value": "1", "unit": "s"}}}),
        ]
        for stdout in bad:
            with self.assertRaises(ValueError, msg=stdout):
                run.parse_result_line(stdout)

    def test_manifest_matches_tables(self):
        manifest = run.manifest()
        self.assertEqual(set(manifest), {"command", "paths", "run_seconds",
                                         "workloads", "end_to_end",
                                         "per_layer"})
        names = [m["name"] for m in manifest["end_to_end"]]
        self.assertIn("setup_s", names)
        setup = next(m for m in manifest["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in manifest["end_to_end"]))
        all_names = names + [m["name"] for m in manifest["per_layer"]]
        self.assertEqual(len(all_names), len(set(all_names)))
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.assertEqual(json.load(handle), manifest)


def span(sid, parent, ts, dur, tid=1):
    return {"name": f"s{sid}", "ph": "X", "pid": 1, "tid": tid, "ts": ts,
            "dur": dur, "args": {"id": sid, "parent": parent, "job": -1}}


class TraceJson(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)

    def check(self, events):
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run.OUT_DIR,
                                         delete=False) as handle:
            json.dump({"traceEvents": events}, handle)
        try:
            return run.check_trace(handle.name)
        finally:
            os.unlink(handle.name)

    def test_accepts_nested(self):
        events = [span(0, -1, 0, 100), span(1, 0, 10, 50),
                  span(2, 1, 20, 10), span(3, -1, 0, 5, tid=2),
                  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "participant 1"}}]
        self.assertEqual(self.check(events), 4)

    def test_rejects_child_outside_parent(self):
        with self.assertRaises(ValueError):
            self.check([span(0, -1, 0, 100), span(1, 0, 90, 50)])

    def test_rejects_dangling_parent_and_thread_hop(self):
        with self.assertRaises(ValueError):
            self.check([span(1, 7, 0, 1)])
        with self.assertRaises(ValueError):
            self.check([span(0, -1, 0, 100), span(1, 0, 10, 5, tid=2)])

    def test_rejects_non_json_and_empty(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run.OUT_DIR,
                                         delete=False) as handle:
            handle.write("{\"traceEvents\": [")
        try:
            with self.assertRaises(ValueError):
                run.check_trace(handle.name)
        finally:
            os.unlink(handle.name)
        with self.assertRaises(ValueError):
            self.check([])


class PerLayer(unittest.TestCase):
    def spec(self, batched):
        probe = {"trial_ms": [2.0, 4.0], "tx": 600,
                 "batched_trial_ms": [1.0, 1.0] if batched else [],
                 "batched_na": "" if batched else "nullptr",
                 "bitwise": True, "faulty_trial_ms": [3.0, 5.0]}
        return {"plan_s": [0.001, 0.002, 0.003], "append_ms": [1.0, 3.0],
                "lock_wait_ms": 0.5, "sink_flush_ms": 2.0,
                "cache_wait_ms": 4.0, "build_ms": [10.0, 30.0],
                "build_edges": 4000, "solo_build_ms": [10.0, 20.0],
                "replay_build_ms_sum": 40.0, "graph_bytes": 1000,
                "alias_build_ms": 1.5, "failed_trials": 0,
                "busy_s": [1.0, 1.0], "participants": 2,
                "replay_wall_s": 1.25, "queue_wait_ms": 0.1,
                "serial_replay_wall_s": 2.0, "campaign_off_s": [1.0, 3.0],
                "campaign_on_s": [2.2, 2.2], "dist_wall_s": 3.0,
                "probe": {p: probe for p in run.PROBED}}

    def test_metrics_from_samples(self):
        metrics, na = run.per_layer([self.spec(True)])
        self.assertEqual(na, {})
        self.assertEqual(set(metrics), set(run.PER_LAYER_UNITS))
        self.assertAlmostEqual(metrics["scenario.plan_ms"], 2.0)
        self.assertAlmostEqual(metrics["graph.edges_per_s"], 1e5)
        self.assertAlmostEqual(metrics["graph.concurrency_slowdown"], 40 / 30)
        self.assertAlmostEqual(metrics["sim.pool_utilization"], 0.8)
        self.assertAlmostEqual(metrics["sim.parallel_efficiency"], 0.8)
        self.assertAlmostEqual(metrics["obs.telemetry_overhead"], 1.1)
        self.assertAlmostEqual(metrics["dist.vs_pool"], 1.5)
        self.assertAlmostEqual(metrics["core.tx_per_s.cobra"], 1e5)
        self.assertAlmostEqual(metrics["sim.batched_speedup.bips"], 3.0)

    def test_missing_batched_engine_is_reported(self):
        metrics, na = run.per_layer([self.spec(False)])
        self.assertNotIn("sim.batched_speedup.cobra", metrics)
        self.assertEqual(na["sim.batched_speedup.cobra"], "nullptr")


if __name__ == "__main__":
    unittest.main()
