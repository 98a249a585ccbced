"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s bench_e2e/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def span(sid, parent, name, phase, start, end):
    return {"id": sid, "parent": parent, "name": name, "phase": phase,
            "start": float(start), "end": float(end)}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_highest_percentile_with_ten_beyond(self):
        cases = {19: None, 20: 50.0, 99: 50.0, 100: 90.0, 999: 90.0,
                 1000: 99.0, 9999: 99.0, 10000: 99.9, 100000: 99.99}
        for n, want in cases.items():
            got = benchlib.tail_percentile([float(i) for i in range(n)])
            if want is None:
                self.assertIsNone(got, n)
                continue
            p, value, beyond = got
            self.assertEqual(p, want, n)
            self.assertGreaterEqual(beyond, benchlib.MIN_BEYOND, n)
            self.assertEqual(value, benchlib.percentile(range(n), p))

    def test_sample_count_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(2400, 99), 24)
        self.assertEqual(benchlib.samples_beyond(10, 50), 5)


class SpanTree(unittest.TestCase):
    # phase 1: root [0, 100] with sequential children a [10, 40] and
    # c [50, 80]; c has a child d [60, 70].  phase 2: root [100, 130] with
    # one child covering [105, 130].
    SPANS = [
        span(0, -1, "analyze", 1, 0, 100),
        span(1, 0, "a", 1, 10, 40),
        span(2, 0, "c", 1, 50, 80),
        span(3, 2, "d", 1, 60, 70),
        span(4, -1, "serve", 2, 100, 130),
        span(5, 4, "a", 2, 105, 130),
    ]

    def test_self_times(self):
        selfs = benchlib.self_times(self.SPANS)
        self.assertEqual(selfs, {0: 40.0, 1: 30.0, 2: 20.0, 3: 10.0,
                                 4: 5.0, 5: 25.0})

    def test_layers_and_unattributed_add_up_to_wall(self):
        summary = benchlib.phase_summary(self.SPANS)
        analyze = summary["analyze"]
        self.assertEqual(analyze["wall"], 100.0)
        self.assertEqual(analyze["unattributed"], 40.0)
        self.assertEqual(analyze["layers"], {"a": 30.0, "c": 20.0, "d": 10.0})
        for phase in summary.values():
            self.assertAlmostEqual(
                sum(phase["layers"].values()) + phase["unattributed"],
                phase["wall"])
        # Same layer name in another phase is kept apart.
        self.assertEqual(summary["serve"]["layers"], {"a": 25.0})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, "p", 1, 0, 100), span(1, 0, "x", 1, 10, 60),
                 span(2, 0, "y", 1, 40, 70), span(3, 0, "z", 1, 90, 120)]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 60 - 10)

    def test_durations_by_phase(self):
        self.assertEqual(benchlib.durations(self.SPANS, "analyze", "a"), [30.0])
        self.assertEqual(benchlib.durations(self.SPANS, "serve", "a"), [25.0])

    def test_chrome_trace_round_trip(self):
        events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "analyze"}}]
        for s in self.SPANS:
            events.append({"name": s["name"], "ph": "X", "pid": 1,
                           "tid": s["phase"], "ts": s["start"],
                           "dur": s["end"] - s["start"],
                           "args": {"id": s["id"], "parent": s["parent"]}})
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": events}, f)
            self.assertEqual(benchlib.load_chrome_trace(path), self.SPANS)


class MetricNames(unittest.TestCase):
    def test_validity(self):
        for good in ("setup_s", "trace.unattributed_frac.analyze",
                     "query.count_p50_us", "a-b", "9lives"):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "a{worker=1}",
                    "x/y", "x" * 65):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_declared_names_valid_and_unique(self):
        with open(BENCHMARK_JSON) as f:
            doc = json.load(f)
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in doc[key]]
        names += [w["name"] for w in doc["workloads"]]
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in doc["workloads"]},
                         set(run.WORKLOADS))

    def test_traced_run_yields_exactly_the_declared_layer_metrics(self):
        spans, sid = [], 0
        for phase_no, phase in enumerate(run.PHASES, start=1):
            root = sid
            spans.append(span(root, -1, phase, phase_no, 0, 1000))
            names = (run.ANALYZE_LAYERS + ["sim.campaign", "sim.faults_only",
                                           "dataset.finalize", "index.open",
                                           "query.count", "query.impact",
                                           "query.availability",
                                           "query.verify", "serve.open",
                                           "serve.tick", "serve.tick_ckpt",
                                           "serve.checkpoint",
                                           "serve.finalize"])
            for i, name in enumerate(names):
                sid += 1
                spans.append(span(sid, root, name, phase_no, i, i + 1))
            sid += 1
        counts = {k: 1.0 for k in (
            "des.events_dispatched", "slurm.jobs_started", "io.day_bytes",
            "stage1.lines", "stage1.xid_records", "stage2.errors_coalesced",
            "accounting.bytes", "accounting.rows", "accounting.rows_rejected",
            "index.bytes", "query.cache_hit_ratio", "serve.ticks",
            "serve.ckpt_writes", "serve.ckpt_bytes", "serve.bytes_ingested")}
        untraced = {"setup": 1.0, "analyze": 1.0, "query": 1.0, "serve": 1.0}
        got = run.layer_metrics(spans, counts, untraced)
        with open(BENCHMARK_JSON) as f:
            declared = {m["name"] for m in json.load(f)["per_layer"]}
        self.assertEqual(set(got), declared)


class FailureCounting(unittest.TestCase):
    def test_phases_queries_and_checks(self):
        t = benchlib.Tally()
        self.assertTrue(t.check(True, "gpures-analyze"))
        self.assertFalse(t.check(False, "gpures-serve"))
        self.assertFalse(t.count("queries", 1000, 3))
        self.assertTrue(t.count("queries", 1000, 0))
        self.assertEqual((t.attempted, t.failed), (2002, 4))
        self.assertAlmostEqual(t.failed_frac, 4 / 2002)
        self.assertEqual(len(t.reasons), 2)
        self.assertIn("gpures-serve", t.reasons[0])

    def test_empty_tally(self):
        self.assertEqual(benchlib.Tally().failed_frac, 0.0)


class Datasets(unittest.TestCase):
    def test_digest_ignores_provenance_and_sees_every_byte(self):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "syslog"))
            with open(os.path.join(d, "syslog", "syslog-2023-01-01.log"), "w") as f:
                f.write("line\n")
            with open(os.path.join(d, "run_manifest.json"), "w") as f:
                f.write('{"started_at": "1"}')
            first = benchlib.dataset_digest(d)
            with open(os.path.join(d, "run_manifest.json"), "w") as f:
                f.write('{"started_at": "2"}')
            self.assertEqual(benchlib.dataset_digest(d), first)
            with open(os.path.join(d, "syslog", "syslog-2023-01-01.log"), "w") as f:
                f.write("lime\n")
            self.assertNotEqual(benchlib.dataset_digest(d), first)

    def test_export_error_count(self):
        doc = {"error_stats": {"by_code": {
            "xid_31": {"pre": {"count": 2}, "op": {"count": 3}},
            "xid_79": {"pre": {"count": 0}, "op": {"count": 4}}}}}
        self.assertEqual(benchlib.export_error_count(doc), 9)


if __name__ == "__main__":
    unittest.main()
