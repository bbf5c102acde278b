#!/usr/bin/env python3
"""Unit tests for bench/perf/run.py on fixture JSONs; no build needed.

    python3 bench/perf/test_run.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def fixture(name):
    return json.loads((HERE / "testdata" / name).read_text())


def scaled(doc, workload, metric, factor):
    """Copy of `doc` with every sample of one metric multiplied by factor."""
    doc = copy.deepcopy(doc)
    m = doc["sets"][0][workload]["metrics"][metric]
    m["values"] = [v * factor for v in m["values"]]
    return doc


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()
        self.base = fixture("base.json")
        self.bound = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}

    def verdict(self, cand, workload, metric):
        verdicts, _, _ = run.compare(self.base, cand, self.bench)
        for w, name, *_, v in verdicts:
            if (w, name) == (workload, metric):
                return v
        self.fail(f"no verdict for {workload}/{metric}")

    def test_self_compare_is_unchanged(self):
        verdicts, errors, code = run.compare(self.base, self.base, self.bench)
        self.assertEqual(code, 0)
        self.assertEqual(errors, [])
        self.assertEqual({v[-1] for v in verdicts}, {"unchanged"})
        self.assertEqual(len(verdicts), 2 * len(self.bench["end_to_end"]))

    def test_slower_beyond_bound_regresses(self):
        cand = scaled(self.base, "lan_n32", "wall_s", 1 + 1.5 * self.bound["wall_s"])
        self.assertEqual(self.verdict(cand, "lan_n32", "wall_s"), "regressed")
        self.assertEqual(run.compare(self.base, cand, self.bench)[2], 1)

    def test_slower_within_bound_is_unchanged(self):
        cand = scaled(self.base, "lan_n32", "wall_s", 1 + 0.5 * self.bound["wall_s"])
        self.assertEqual(self.verdict(cand, "lan_n32", "wall_s"), "unchanged")

    def test_higher_is_better_direction(self):
        step = 1.5 * self.bound["events_per_s"]
        cand = scaled(self.base, "votes_n128", "events_per_s", 1 - step)
        self.assertEqual(self.verdict(cand, "votes_n128", "events_per_s"),
                         "regressed")
        cand = scaled(self.base, "votes_n128", "events_per_s", 1 + step)
        self.assertEqual(self.verdict(cand, "votes_n128", "events_per_s"),
                         "improved")

    def test_faster_beyond_spread_improves(self):
        cand = scaled(self.base, "lan_n32", "wall_s", 0.9)
        self.assertEqual(self.verdict(cand, "lan_n32", "wall_s"), "improved")

    def test_wide_spread_is_unresolved(self):
        cand = copy.deepcopy(self.base)
        m = cand["sets"][0]["lan_n32"]["metrics"]["peak_rss_mb"]
        m["values"] = [80.0, 85.0, 90.0, 95.0, 100.0]
        self.assertEqual(self.verdict(cand, "lan_n32", "peak_rss_mb"),
                         "unresolved")

    def test_digest_drift_is_an_error(self):
        cand = copy.deepcopy(self.base)
        cand["sets"][0]["lan_n32"]["digest"]["events"] += 1
        _, errors, code = run.compare(self.base, cand, self.bench)
        self.assertEqual(code, 2)
        self.assertIn("lan_n32", errors[0])

    def test_build_type_mismatch_is_an_error(self):
        cand = copy.deepcopy(self.base)
        cand["host"]["build_type"] = "Debug"
        self.assertEqual(run.compare(self.base, cand, self.bench)[2], 2)

    def test_command_line_exit_code(self):
        cand = copy.deepcopy(self.base)
        cand["sets"][0]["votes_n128"]["digest"]["events"] -= 7
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "base.json"), os.path.join(tmp, "cand.json")]
            for path, doc in zip(paths, (self.base, cand)):
                Path(path).write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(run.main(["--compare"] + paths), 2)
                self.assertEqual(run.main(["--compare", paths[0], paths[0]]), 0)


class MetricsTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()
        self.point = fixture("point_traced.json")

    def measured(self):
        return {"points": {"plain": [self.point], "traced": [self.point],
                           "serial": []}}

    def test_every_declared_metric_is_computed(self):
        run_ = self.measured()
        self.assertEqual(set(run.end_to_end_samples(run_)),
                         {m["name"] for m in self.bench["end_to_end"]})
        self.assertEqual(set(run.layer_samples(run_)),
                         {m["name"] for m in self.bench["per_layer"]})

    def test_result_line_contract(self):
        table = run.summaries(run.end_to_end_samples(self.measured()),
                              self.bench["end_to_end"])
        line = json.loads(run.result_line(True, 3, 0, table))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["wall_s"],
                         {"value": self.point["times"]["wall_s"], "unit": "s"})

    def test_point_checks(self):
        self.assertEqual(run.point_failures(self.point, self.point["digest"]), [])
        bad = copy.deepcopy(self.point)
        bad["checks"]["liveness_violations"] = 2
        bad["digest"]["views"] += 1
        failures = run.point_failures(bad, self.point["digest"])
        self.assertEqual(len(failures), 2)
        self.assertEqual(run.point_failures({"exit": 1}, None),
                         ["runner exited with 1"])

    def test_summary_quartiles(self):
        s = run.summarize("setup_s", [1.0, 2.0, 3.0, 4.0, 5.0], "s")
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]), (1.5, 3.0, 4.5, 5))
        self.assertEqual(s["value"], 3.0)
        one = run.summarize("setup_s", [2.5], "s")
        self.assertEqual((one["q1"], one["median"], one["q3"]), (2.5, 2.5, 2.5))

    def test_throughput_times_report_the_best_point(self):
        samples = [1.3, 1.0, 1.6, 1.05, 1.02]
        self.assertEqual(run.summarize("wall_s", samples, "s")["value"], 1.0)
        self.assertEqual(run.summarize("events_per_s", samples, "1/s")["value"], 1.6)


if __name__ == "__main__":
    unittest.main()
