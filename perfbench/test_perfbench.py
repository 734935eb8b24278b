"""Tests of the benchmark itself (no build, no `sa` run needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that the metric names the benchmark prints are exactly the ones
BENCHMARK.json declares, and that tampered outputs raise the error count.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
import run  # noqa: E402


def declared(kind):
    return [m["name"] for m in benchlib.benchmark_spec()[kind]]


class MetricNames(unittest.TestCase):
    def test_workloads_match(self):
        names = [w["name"] for w in benchlib.benchmark_spec()["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_end_to_end_line_has_exactly_the_declared_names(self):
        values = {name: 1.5 for name in declared("end_to_end")}
        line = json.loads(benchlib.result_line(values, 10, 0, trace=False))
        self.assertEqual(list(line["metrics"]), declared("end_to_end"))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])

    def test_per_layer_values_cover_every_declared_name(self):
        # A traced run with one span of every layer; layer_values must
        # produce every per_layer name (serve-mix adds the jobs/serve ones
        # on top of the same dictionary).
        spans = [{"id": 1, "parent": 0, "name": "run", "req": "r", "lane": 0,
                  "start": 0, "end": 100}]
        for i, name in enumerate(benchlib.LAYER_OF_SPAN, start=2):
            spans.append({"id": i, "parent": 1, "name": name, "req": "r", "lane": 0,
                          "start": i, "end": i + 1})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.jsonl")
            with open(path, "w") as f:
                f.write("\n".join(json.dumps(s) for s in spans))
            values = run.layer_values(path, {"steps": 1, "activated": 2, "changed": 1}, 1.0)
        line = json.loads(benchlib.result_line(values, 1, 0, trace=True))
        self.assertEqual(list(line["metrics"]), declared("per_layer"))

    def test_missing_metric_is_refused(self):
        values = {name: 1.0 for name in declared("end_to_end")[1:]}
        with self.assertRaises(KeyError):
            benchlib.result_line(values, 1, 0, trace=False)


class SpanAccounting(unittest.TestCase):
    def test_self_time_subtracts_children_union_and_folded(self):
        spans = [
            {"id": 1, "parent": 0, "name": "run", "start": 0, "end": 100},
            {"id": 2, "parent": 1, "name": "sweep.unit", "start": 10, "end": 60,
             "folded": {"executor.step": [20, 4]}},
            {"id": 3, "parent": 2, "name": "topology.build", "start": 10, "end": 20},
            {"id": 4, "parent": 1, "name": "sweep.unit", "start": 50, "end": 90},
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[1], 100 - 80)     # children cover [10, 90]
        self.assertEqual(selfs[2], 50 - 10 - 20)  # child 10, folded 20
        layers, unattributed, wall = benchlib.layer_self_seconds(spans)
        self.assertAlmostEqual(layers["executor.step_s"], 20e-9)
        self.assertAlmostEqual(layers["topology.build_s"], 10e-9)
        self.assertAlmostEqual(unattributed, 20e-9)
        self.assertAlmostEqual(wall, 100e-9)


class HostCounters(unittest.TestCase):
    def test_steal_share_is_stolen_over_total_ticks(self):
        before = [100, 0, 50, 800, 0, 0, 0, 50]
        after = [130, 0, 60, 850, 0, 0, 0, 60]
        self.assertAlmostEqual(benchlib.steal_share(before, after), 10 / 100)
        self.assertIsNone(benchlib.steal_share(None, after))


class TamperedOutputs(unittest.TestCase):
    """Each tampering must surface as a problem, i.e. raise error_rate."""

    VERIFY = {
        "certified": False,
        "units": [
            {"unit": "AU-algau-cycle-4-full", "space": "full",
             "convergence_mode": "fair-schedule", "closure": "certified",
             "convergence": "certified"},
            {"unit": "MIS-mis-path-2-reachable-r2", "space": "reachable-r2",
             "convergence_mode": "reachability-only", "closure": "certified",
             "convergence": "certified"},
            {"unit": "RESET-reset-attempt-p3-cycle-7-full", "space": "full",
             "convergence_mode": "fair-schedule", "closure": "certified",
             "convergence": "VIOLATED"},
        ],
    }

    def test_expected_verdicts_pass(self):
        self.assertEqual(benchlib.check_verify(self.VERIFY), [])

    def test_flipped_verify_verdict_fails(self):
        for i, key, value in ((0, "convergence", "VIOLATED"), (2, "convergence", "certified"),
                              (1, "closure", "VIOLATED")):
            doc = json.loads(json.dumps(self.VERIFY))
            doc["units"][i][key] = value
            self.assertTrue(benchlib.check_verify(doc), (i, key, value))

    def test_missing_verify_unit_fails(self):
        doc = json.loads(json.dumps(self.VERIFY))
        doc["units"].pop(1)
        self.assertTrue(benchlib.check_verify(doc))

    SCALE = {"units": [
        {"id": f"u{s}", "result": {"stabilization_rounds": 5, "violations": [],
                                   "verification_rounds": 64, "unrecovered": 0}}
        for s in range(2)]}

    def test_clean_scale_units_pass(self):
        self.assertEqual(benchlib.check_scale(self.SCALE, 2, 400, 64), [])

    def test_unclean_scale_unit_fails(self):
        for key, value in (("violations", ["round 9: clock skew"]),
                           ("stabilization_rounds", None),
                           ("stabilization_rounds", 401),
                           ("verification_rounds", 3)):
            doc = json.loads(json.dumps(self.SCALE))
            doc["units"][1]["result"][key] = value
            self.assertTrue(benchlib.check_scale(doc, 2, 400, 64), key)

    def test_error_response_fails(self):
        self.assertEqual(benchlib.check_response({"ok": True, "job": "j1"}, "job"), [])
        self.assertTrue(benchlib.check_response(
            {"ok": False, "code": "overloaded", "error": "queue full"}))
        self.assertTrue(benchlib.check_response({"ok": True}, "job"))
        self.assertTrue(benchlib.check_response(None))

    def test_unfinished_job_fails(self):
        finished = {"event": "job-finished", "status": {
            "state": "finished", "clean": True, "units_clean": 6, "units_done": 6}}
        self.assertEqual(benchlib.check_job_finished(finished, 6), ([], True))
        for state in ("failed", "cancelled", "interrupted"):
            event = json.loads(json.dumps(finished))
            event["status"]["state"] = state
            problems, _ = benchlib.check_job_finished(event, 6)
            self.assertTrue(problems, state)

    def test_unclean_job_is_flagged_for_the_batch_check(self):
        event = {"event": "job-finished", "status": {
            "state": "finished", "clean": False, "units_clean": 5, "units_done": 6}}
        self.assertEqual(benchlib.check_job_finished(event, 6), ([], False))


class Hygiene(unittest.TestCase):
    def test_sa_variables_are_scrubbed(self):
        os.environ["SA_NO_FSYNC"] = "1"
        try:
            self.assertNotIn("SA_NO_FSYNC", benchlib.scrubbed_env())
        finally:
            del os.environ["SA_NO_FSYNC"]

    def test_inputs_follow_the_seed(self):
        self.assertEqual(run.serve_jobs(3, 5), run.serve_jobs(3, 5))
        self.assertNotEqual(run.serve_jobs(3, 5), run.serve_jobs(4, 5))
        self.assertEqual(run.verify_spec(3), run.verify_spec(4))


if __name__ == "__main__":
    unittest.main()
