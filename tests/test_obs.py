"""Tests for the observability layer (repro.obs) and its wiring."""

import json

import pytest

from repro import obs
from repro.adequacy import check_adequacy
from repro.lang import node_count, parse
from repro.litmus.catalog import case_by_name
from repro.obs.metrics import Histogram, MetricsRegistry, diff_snapshots
from repro.obs.report import (
    BENCH_SCHEMA,
    STATS_SCHEMA,
    render_profile,
    render_stats_table,
    stats_payload,
    validate_bench_payload,
    validate_stats_payload,
    write_bench_report,
)
from repro.obs.trace import MemorySink, read_trace
from repro.opt import Optimizer
from repro.psna import PsConfig, explore, promise_free_config
from repro.seq import check_transformation

SB = ["x_rlx := 1; a := y_rlx; return a;",
      "y_rlx := 1; b := x_rlx; return b;"]
SLF_SRC = "x_na := 1; b := x_na; return b;"
SLF_TGT = "x_na := 1; b := 1; return b;"


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test must leave the module-level session deactivated."""
    assert not obs.enabled()
    yield
    if obs.enabled():  # pragma: no cover - only on test bugs
        obs.stop()
        raise AssertionError("test leaked an active obs session")


def _sb_threads():
    return [parse(source) for source in SB]


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 4)
        registry.gauge("g", 2.5)
        registry.observe("h", 1)
        registry.observe("h", 3)
        snap = registry.snapshot()
        assert snap["counters"] == {"a.b": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"] == {
            "count": 2, "sum": 4, "min": 1, "max": 3, "mean": 2.0}

    def test_diff_snapshots(self):
        registry = MetricsRegistry()
        registry.inc("x", 2)
        registry.observe("h", 10)
        before = registry.snapshot()
        registry.inc("x", 3)
        registry.inc("y")
        registry.observe("h", 20)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"x": 3, "y": 1}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 20

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.observe("h", 7)
        a.merge_snapshot(b.snapshot())
        assert a.counters["c"] == 3
        assert a.histograms["h"].count == 1

    def test_histogram_merge_empty(self):
        h = Histogram()
        h.merge(Histogram())
        assert h.count == 0 and h.min is None


class TestSessionApi:
    def test_disabled_hooks_are_noops(self):
        assert obs.metrics() is None
        obs.inc("nope")
        obs.event("nope")
        with obs.span("nope"):
            pass  # shared null span

    def test_nested_sessions_rejected(self):
        with obs.session():
            with pytest.raises(RuntimeError):
                obs.start()

    def test_span_durations_feed_profile(self):
        with obs.session() as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        snap = session.metrics.snapshot()
        assert snap["histograms"]["span.outer"]["count"] == 1
        assert "span.inner" in snap["histograms"]
        assert "outer" in render_profile(snap)


class TestExplorationCounters:
    def test_sb_counters_exact(self):
        """Acceptance: counters on SB are exact and deterministic."""
        first = explore(_sb_threads(), promise_free_config())
        second = explore(_sb_threads(), promise_free_config())
        assert (first.states, first.dedup_hits, first.dedup_misses,
                first.stuck_states) == (32, 21, 31, 0)
        assert (second.states, second.dedup_hits, second.dedup_misses) \
            == (first.states, first.dedup_hits, first.dedup_misses)
        # every miss is one push, every push is one pop (complete run)
        assert first.states == first.dedup_misses + 1
        assert first.complete and first.incomplete_reason is None
        assert first.peak_frontier > 0
        assert 0 < first.dedup_rate() < 1

    def test_counters_flushed_to_session(self):
        with obs.session() as session:
            explore(_sb_threads(), promise_free_config())
        counters = session.metrics.snapshot()["counters"]
        assert counters["psna.explore.runs"] == 1
        assert counters["psna.explore.states"] == 32
        assert counters["psna.explore.dedup_hits"] == 21

    def test_state_bound_reason(self):
        result = explore(_sb_threads(),
                         PsConfig(allow_promises=False, max_states=3))
        assert not result.complete
        assert result.incomplete_reason == "state-bound"

    def test_depth_bound_reason(self):
        result = explore(_sb_threads(),
                         PsConfig(allow_promises=False, max_depth=2))
        assert not result.complete
        assert result.incomplete_reason == "depth-bound"


class TestSeqGameCounters:
    def test_obligations_and_game_counters(self):
        with obs.session() as session:
            verdict = check_transformation(parse(SLF_SRC), parse(SLF_TGT))
        assert verdict.valid and verdict.notion == "simple"
        counters = session.metrics.snapshot()["counters"]
        assert counters["seq.game.states"] == verdict.game_states
        assert counters["seq.check.transformations"] == 1
        assert counters["seq.check.notion.simple"] == 1
        assert counters["seq.game.obligations.partial"] > 0
        assert counters["seq.game.obligations.terminal"] > 0

    def test_simple_game_reads_the_prune_off_the_frontier(self):
        # The closed frontier decides the beh-failure prune of a simple
        # game: no escape search runs.
        with obs.session() as session:
            check_transformation(parse(SLF_SRC), parse(SLF_TGT))
        counters = session.metrics.snapshot()["counters"]
        assert counters["seq.game.escape_searches"] == 0
        assert "rule.seq.game.escape" not in counters

    def test_advanced_game_still_searches_escapes(self):
        case = case_by_name("na-reorder-same-loc")
        with obs.session() as session:
            verdict = check_transformation(case.source, case.target)
        assert verdict.advanced is not None
        counters = session.metrics.snapshot()["counters"]
        assert counters["seq.game.escape_searches"] > 0

    @pytest.mark.parametrize("name, notion", [
        ("rel-then-na-write", "advanced"), ("na-reorder-same-loc", "none")])
    def test_game_states_counted_once_per_game(self, name, notion):
        # A game plays every initial configuration in turn and its
        # game_states is cumulative: it must enter the verdict once.
        case = case_by_name(name)
        with obs.session() as session:
            verdict = check_transformation(case.source, case.target)
        assert verdict.notion == notion
        counters = session.metrics.snapshot()["counters"]
        assert counters["seq.game.states"] == verdict.game_states

    def test_incomplete_reasons_named(self):
        from repro.seq.refinement import Limits, check_simple_refinement

        verdict = check_simple_refinement(
            parse(SLF_SRC), parse(SLF_TGT), limits=Limits(max_game_states=2))
        assert not verdict.complete
        assert "game-states" in verdict.incomplete_reasons

    def test_counterexample_depth_recorded(self):
        bad_src = parse("a := x_na; x_na := 1; return a;")
        bad_tgt = parse("x_na := 1; a := x_na; return a;")
        with obs.session() as session:
            verdict = check_transformation(bad_src, bad_tgt)
        assert not verdict.valid
        histograms = session.metrics.snapshot()["histograms"]
        assert histograms["seq.game.cex_depth"]["count"] >= 1


class TestTraceRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with obs.session(trace=path, meta={"command": "test"}):
            with obs.span("phase", detail=1):
                obs.event("hello", value=42)
            obs.event("result", behaviors=["a", "b"])
        events = read_trace(path)
        assert events[0]["ev"] == "meta"
        assert events[0]["schema"] == obs.TRACE_SCHEMA
        assert events[0]["command"] == "test"
        kinds = [event["ev"] for event in events[1:]]
        assert kinds == ["event", "span", "event"]
        hello = events[1]
        assert hello["name"] == "hello" and hello["value"] == 42
        span = events[2]
        assert span["name"] == "phase" and span["dur_s"] >= 0
        assert span["depth"] == 0
        assert events[-1]["behaviors"] == ["a", "b"]

    def test_every_line_is_json(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with obs.session(trace=path):
            explore(_sb_threads(), promise_free_config())
        with open(path) as handle:
            for line in handle:
                json.loads(line)

    def test_memory_sink(self):
        sink = MemorySink()
        with obs.session(trace=sink):
            obs.event("x")
        assert [event["ev"] for event in sink.events] == ["meta", "event"]


class TestReport:
    def test_stats_payload_schema(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        payload = stats_payload(registry, meta={"command": "t"})
        assert payload["schema"] == STATS_SCHEMA
        assert validate_stats_payload(payload) == []
        assert "a" in render_stats_table(payload)

    def test_stats_validation_catches_problems(self):
        assert validate_stats_payload({"schema": "bogus"}) != []
        bad = {"schema": STATS_SCHEMA, "counters": {"x": "NaN"},
               "gauges": {}, "histograms": {}}
        assert any("x" in problem for problem in validate_stats_payload(bad))

    def test_bench_report_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_demo.json")
        entries = [{"name": "case", "rounds": 3, "min_s": 0.1,
                    "mean_s": 0.2, "max_s": 0.3, "stddev_s": 0.05,
                    "extra": {"states": 7}}]
        payload = write_bench_report("demo", entries, path)
        assert payload["schema"] == BENCH_SCHEMA
        with open(path) as handle:
            assert json.load(handle) == payload
        assert validate_bench_payload(payload) == []

    def test_bench_validation_rejects_bad_entries(self, tmp_path):
        assert validate_bench_payload({"schema": BENCH_SCHEMA,
                                       "bench": "x", "entries": []}) != []
        bad = {"schema": BENCH_SCHEMA, "bench": "x",
               "entries": [{"name": "n", "rounds": 1, "min_s": -1,
                            "mean_s": 0.1, "max_s": 0.1}]}
        assert any("min_s" in problem
                   for problem in validate_bench_payload(bad))
        with pytest.raises(ValueError):
            write_bench_report("x", [], str(tmp_path / "BENCH_x.json"))


class TestOptimizerInstrumentation:
    def test_pass_records_carry_timing_and_sizes(self):
        program = parse(SLF_SRC)
        with obs.session() as session:
            result = Optimizer(validate=True).optimize(program)
        changed = [record for record in result.records if record.changed]
        assert changed, "SLF must fire on the SLF example"
        for record in result.records:
            assert record.duration_s >= 0
            assert record.size_before == node_count(record.before)
            assert record.size_after == node_count(record.after)
        validated = [record for record in changed
                     if record.verdict is not None]
        assert validated and all(record.universe_size > 0
                                 for record in validated)
        counters = session.metrics.snapshot()["counters"]
        assert counters["opt.validate.checks"] == len(validated)
        assert counters["opt.validate.valid"] == len(validated)
        assert counters["opt.pipeline.rewrites"] == len(changed)


class TestAdequacyInstrumentation:
    def test_context_counters(self):
        with obs.session() as session:
            report = check_adequacy(parse(SLF_SRC), parse(SLF_TGT),
                                    config=PsConfig(allow_promises=False))
        counters = session.metrics.snapshot()["counters"]
        assert counters["adequacy.checks"] == 1
        assert counters["adequacy.contexts.checked"] == len(report.contexts)
        assert (counters.get("adequacy.contexts.skipped", 0)
                == len(report.skipped))
        assert counters["adequacy.adequate"] == 1


class TestDisabledOverhead:
    def test_disabled_explore_pays_no_registry_cost(self):
        """With no session, exploration must not touch any registry."""
        assert obs.metrics() is None
        result = explore(_sb_threads(), promise_free_config())
        assert result.states == 32
        assert not obs.enabled()
