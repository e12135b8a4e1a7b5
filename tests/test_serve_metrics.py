"""The service telemetry layer: deterministic metrics and request
traces.

Unit coverage for :mod:`repro.serve.metrics` (fixed-bucket histograms,
snapshots, the Prometheus exposition round-trip, the ``repro top``
frame) and :mod:`repro.obs.telemetry` (trace ids, span records, the
per-job trace).  The byte-identity claim the service makes — quantiles
are exact functions of the integer bucket counts — is pinned here with
dyadic-rational observations so float addition cannot smuggle in order
dependence.
"""

import json

import pytest

from repro.obs import telemetry
from repro.serve.metrics import (
    LATENCY_BUCKETS_S,
    SERVEMETRICS_SCHEMA,
    BucketHistogram,
    ServiceMetrics,
    dump_servemetrics,
    exposition_problems,
    metrics_rows,
    parse_exposition,
    render_exposition,
    render_top,
    sample_value,
    validate_servemetrics,
)

#: Dyadic rationals: exactly representable, so float sums are
#: associative and the byte-identity assertions below are honest.
DYADIC = [0.0005, 0.001, 0.001953125, 0.0078125, 0.015625, 0.03125,
          0.125, 0.25, 0.5, 2.0, 8.0, 64.0]


class TestBucketHistogram:
    def test_empty_histogram_is_all_zero(self):
        hist = BucketHistogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["counts"] == [0] * (len(LATENCY_BUCKETS_S) + 1)

    def test_observations_land_in_their_buckets(self):
        hist = BucketHistogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        # le=1.0 holds 0.5 and the boundary value 1.0 (le = "less than
        # or equal"), le=2.0 holds 1.5, le=4.0 holds 3.0, +Inf holds
        # the overflow.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5

    def test_quantiles_are_exact_bucket_upper_bounds(self):
        hist = BucketHistogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(90):
            hist.observe(0.5)
        for _ in range(9):
            hist.observe(1.5)
        hist.observe(3.0)
        assert hist.quantile(0.50) == 1.0
        assert hist.quantile(0.95) == 2.0
        assert hist.quantile(0.99) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_overflow_quantile_reports_the_last_finite_bound(self):
        hist = BucketHistogram(bounds=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.5) == 2.0

class TestServiceMetrics:
    def _populated(self):
        metrics = ServiceMetrics()
        metrics.inc("requests.total", 3)
        metrics.inc("requests.kind.litmus", 2)
        metrics.inc("requests.kind.validate")
        metrics.gauge("queue.depth", 2)
        for value in DYADIC[:5]:
            metrics.observe("request.latency_s", value)
        metrics.sample("queue.depth", 2)
        metrics.sample("queue.depth", 1)
        return metrics

    def test_snapshot_validates_and_dumps_stably(self):
        snap = self._populated().snapshot()
        assert snap["schema"] == SERVEMETRICS_SCHEMA
        assert validate_servemetrics(snap) == []
        assert dump_servemetrics(snap) == dump_servemetrics(snap)
        assert snap["counters"]["requests.total"] == 3
        assert snap["samples"]["queue.depth"] == [2, 1]

    def test_sample_ring_is_bounded(self):
        metrics = ServiceMetrics(sample_ring=4)
        for value in range(10):
            metrics.sample("queue.depth", value)
        assert metrics.snapshot()["samples"]["queue.depth"] \
            == [6, 7, 8, 9]

    def test_validate_catches_malformed_summaries(self):
        snap = self._populated().snapshot()
        broken = json.loads(json.dumps(snap))
        broken["histograms"]["request.latency_s"]["counts"] = [1, 2]
        assert validate_servemetrics(broken)
        broken = json.loads(json.dumps(snap))
        broken["histograms"]["request.latency_s"]["count"] += 1
        assert validate_servemetrics(broken)
        assert validate_servemetrics({"schema": "nope"})


class TestExposition:
    def _snapshot(self):
        metrics = ServiceMetrics()
        metrics.inc("requests.total", 4)
        metrics.inc("serve.store.lru_hits", 2)
        metrics.gauge("utilization", 0.5)
        for value in DYADIC[:6]:
            metrics.observe("request.latency_s", value)
        return metrics.snapshot()

    def test_prometheus_text_agrees_with_the_json(self):
        snap = self._snapshot()
        text = render_exposition(snap)
        assert exposition_problems(text) == []
        parsed = parse_exposition(text)
        assert sample_value(parsed, "repro_serve_requests_total") == 4.0
        assert sample_value(parsed,
                            "repro_serve_store_lru_hits_total") == 2.0
        assert sample_value(parsed, "repro_serve_utilization") == 0.5
        latency = snap["histograms"]["request.latency_s"]
        assert sample_value(
            parsed, "repro_serve_request_latency_seconds_count") \
            == latency["count"]
        assert sample_value(
            parsed, "repro_serve_request_latency_seconds_sum") \
            == latency["sum"]
        assert sample_value(
            parsed, "repro_serve_request_latency_seconds_bucket",
            le="+Inf") == latency["count"]
        # Cumulative buckets are monotone and agree with the JSON's
        # per-bucket counts.
        running = 0
        for bound, count in zip(latency["le"], latency["counts"]):
            running += count
            assert sample_value(
                parsed, "repro_serve_request_latency_seconds_bucket",
                le=repr(float(bound))) == running

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not an exposition\n")

    def test_problems_flag_nonmonotonic_buckets(self):
        text = ('# TYPE repro_serve_x_seconds histogram\n'
                'repro_serve_x_seconds_bucket{le="1.0"} 5\n'
                'repro_serve_x_seconds_bucket{le="2.0"} 3\n'
                'repro_serve_x_seconds_bucket{le="+Inf"} 5\n'
                'repro_serve_x_seconds_sum 2.0\n'
                'repro_serve_x_seconds_count 5\n')
        assert any("monoton" in problem
                   for problem in exposition_problems(text))

    def test_problems_flag_inf_count_disagreement(self):
        text = ('# TYPE repro_serve_x_seconds histogram\n'
                'repro_serve_x_seconds_bucket{le="1.0"} 3\n'
                'repro_serve_x_seconds_bucket{le="+Inf"} 3\n'
                'repro_serve_x_seconds_sum 2.0\n'
                'repro_serve_x_seconds_count 5\n')
        assert exposition_problems(text)

    def test_problems_flag_missing_type_lines(self):
        assert exposition_problems("repro_serve_mystery_total 3\n")


class TestConsumers:
    def _snapshot(self):
        metrics = ServiceMetrics()
        metrics.inc("requests.total", 8)
        metrics.inc("requests.kind.litmus", 8)
        metrics.inc("served.store", 4)
        metrics.inc("jobs.executed", 4)
        metrics.gauge("queue.depth", 1)
        metrics.gauge("inflight", 1)
        metrics.gauge("utilization", 0.5)
        for value in DYADIC[:8]:
            metrics.observe("request.latency_s", value)
        return metrics.snapshot()

    def test_metrics_rows_flatten_every_metric(self):
        rows = metrics_rows(self._snapshot())
        assert all(row["ev"] == "metric" for row in rows)
        kinds = {row["type"] for row in rows}
        assert kinds == {"counter", "gauge", "histogram"}
        latency = next(row for row in rows
                       if row["name"] == "request.latency_s")
        assert latency["buckets"]["+Inf"] == 0
        assert latency["count"] == 8
        # Rank 4 of the 8 dyadic observations falls in the le=0.01
        # bucket — the quantile is that bucket's exact upper bound.
        assert latency["p50"] == 0.01

    def test_render_top_reports_the_headline_numbers(self):
        stats = {"submitted": 8, "executed": 4, "deduped": 0,
                 "failed": 0, "uptime_s": 12.0, "jobs": 2,
                 "states": {"done": 8},
                 "store": {"entries": 4, "hits": 4, "misses": 4,
                           "hit_rate": 0.5, "lru_hits": 2,
                           "lru_misses": 2, "size_bytes": 1024}}
        frame = render_top(stats, self._snapshot(), qps=2.0,
                           base="http://127.0.0.1:1")
        assert "p50" in frame and "p95" in frame and "p99" in frame
        assert "queue" in frame
        assert "litmus" in frame
        assert "2.0" in frame  # the supplied QPS


class TestTelemetry:
    def test_sanitize_trace_id(self):
        assert telemetry.sanitize_trace_id("abc-DEF_1.2") \
            == "abc-DEF_1.2"
        assert telemetry.sanitize_trace_id("a/b") is None
        assert telemetry.sanitize_trace_id("  padded  ") == "padded"
        assert telemetry.sanitize_trace_id("") is None
        assert telemetry.sanitize_trace_id(None) is None
        assert telemetry.sanitize_trace_id("bad space") is None
        assert telemetry.sanitize_trace_id("x" * 65) is None

    def test_job_trace_emits_one_meta_and_a_root_span(self):
        trace = telemetry.JobTrace(trace_id="t-1", meta={"job": "j-x"})
        trace.record("serve.normalize", 0.25)
        trace.close(job="j-x", state="done")
        lines = trace.lines()
        head = json.loads(lines[0])
        assert head["ev"] == "meta"
        assert head["schema"] == "repro-trace/1"
        assert head["trace"] == "t-1"
        records = [json.loads(line) for line in lines[1:]]
        assert [r["name"] for r in records] \
            == ["serve.normalize", "serve.request"]
        root = records[-1]
        assert root["depth"] == 0 and root["state"] == "done"
        # Children parent on the root span by default.
        assert records[0]["parent"] == root["span"]
        assert all(r["trace"] == "t-1" for r in records)

    def test_close_is_idempotent(self):
        trace = telemetry.JobTrace()
        trace.close()
        trace.close()
        assert sum(1 for line in trace.lines()
                   if '"serve.request"' in line) == 1

    def test_fresh_trace_id_when_client_sends_none(self):
        trace = telemetry.JobTrace(trace_id=None)
        assert trace.trace_id
