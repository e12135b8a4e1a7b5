"""Tests for the benchmark's own logic.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import pytest

from perfbench import answers, bench, ledger, workloads
from repro.litmus import EXTENDED_CASES
from repro.serve.jobs import job_id_for, normalize_request


class TestRefinement:
    def test_source_undef_matches_any_target_value(self):
        # load-load-pair-intro under racy-writer: only the undef source
        # behaviour matches the target's 10; a subset check fails here.
        assert answers.unmatched(["⟨ret (10, 0)⟩"],
                                 ["⟨ret (undef, 0)⟩"]) == []
        assert answers.unmatched(["⟨ret (10, 0)⟩"],
                                 ["⟨ret (0, 0)⟩", "⟨ret (5, 0)⟩"]) \
            == ["⟨ret (10, 0)⟩"]

    def test_load_load_pair_intro_under_racy_writer(self):
        from repro.adequacy import contexts_for
        from repro.litmus import case_by_name
        from repro.psna import PsConfig, explore

        case = case_by_name("load-load-pair-intro")
        context = {c.name: c for c in contexts_for(case.source, case.target)
                   }["racy-writer"]

        def behaviors(program):
            result = explore([program, *context.threads],
                             PsConfig(promise_budget=1))
            return sorted(repr(b) for b in result.behaviors)

        source, target = behaviors(case.source), behaviors(case.target)
        assert "⟨ret (undef, 0)⟩" in source
        assert not set(target) <= set(source)
        assert answers.unmatched(target, source) == []

    def test_source_bottom_matches_everything(self):
        assert answers.unmatched(["⟨ret (1, 2)⟩", "⟨⊥⟩"], ["⟨⊥⟩"]) == []

    def test_syscall_prefix_of_source_bottom(self):
        source = ["⟨print(1); ⊥⟩"]
        assert answers.unmatched(["⟨print(1); ret (0,)⟩"], source) == []
        assert answers.unmatched(["⟨print(2); ret (0,)⟩"], source) \
            == ["⟨print(2); ret (0,)⟩"]

    def test_real_violation(self):
        assert answers.unmatched(
            ["⟨ret (1, 1)⟩", "⟨ret (0, 0)⟩"],
            ["⟨ret (0, 0)⟩", "⟨ret (1, 0)⟩"]) == ["⟨ret (1, 1)⟩"]
        assert answers.unmatched(["⟨⊥⟩"], ["⟨ret (0, 0)⟩"]) == ["⟨⊥⟩"]
        assert answers.check_pair(
            {"complete": True, "behaviors": ["⟨ret (0, 0)⟩"]},
            {"complete": True, "behaviors": ["⟨ret (1, 1)⟩"]})

    def test_incomplete_exploration_is_wrong(self):
        assert answers.check_pair(
            {"complete": True, "behaviors": ["⟨⊥⟩"]},
            {"complete": False, "behaviors": []})


def test_catalog_verdicts_are_the_papers():
    assert answers.CATALOG_VERDICTS == {case.name: case.expected
                                        for case in EXTENDED_CASES}


def _requests(workload):
    return [(r.label, r.spec) for r in workload.warmup + workload.timed
            + (workload.populate or [])]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other(name):
    first = _requests(workloads.build(name, 1, 2))
    assert first == _requests(workloads.build(name, 1, 2))
    assert first != _requests(workloads.build(name, 2, 2))


@pytest.mark.parametrize("name", ("cold-verify", "promise-explore"))
def test_cold_requests_are_all_distinct(name):
    workload = workloads.build(name, 1, 2)
    ids = [job_id_for(normalize_request(r.spec))
           for r in workload.warmup + workload.timed]
    assert len(ids) == len(set(ids))


def test_every_spelling_variant_is_the_same_job():
    workload = workloads.build("warm-restart", 1, 1)
    canonical = {r.label: job_id_for(normalize_request(r.spec))
                 for r in workload.populate}
    respelled = 0
    for request in workload.timed:
        assert job_id_for(normalize_request(request.spec)) \
            == canonical[request.label]
        respelled += request.spec != next(
            r.spec for r in workload.populate if r.label == request.label)
    assert respelled > len(workload.timed) // 2


def test_generated_pairs_keep_the_shape_shares():
    taken = set()
    pairs = workloads.generated_pairs("test", 400, taken)
    counts = {}
    for request in pairs:
        key = workloads.shape_class(request.spec["source"])
        counts[key] = counts.get(key, 0) + 1
    assert counts == {key: round(400 * share) for key, share
                      in workloads.SHAPE_SHARES.items() if round(400 * share)}
    assert len(taken) == len(pairs)


class TestTail:
    def test_ten_samples_beyond_p90(self):
        values = [float(v) for v in range(100)]
        assert bench.samples_beyond(values, 90) == 10
        assert bench.tail_percentile(values) == 89.0

    def test_thin_tail_refused(self):
        with pytest.raises(ValueError):
            bench.tail_percentile([float(v) for v in range(99)])

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 95 + [2.0] * 5
        assert bench.samples_beyond(values, 90) == 5
        with pytest.raises(ValueError):
            bench.tail_percentile(values)


def _synthetic_dumps():
    """One request on job ``j-1`` across client, service and a pool
    worker; the comments give each layer's self time in seconds."""
    client = {"spans": [
        ["client.submit", 0.0, 2.0, -1, "j-1", None],          # 0.5
        ["client.stream_events", 2.5, 10.0, -1, "j-1", None],  # 0.1
    ]}
    service = {"spans": [
        ["http.do_POST", 0.5, 1.5, -1, None, None],            # 0.1
        ["service.submit", 0.6, 1.4, 0, "j-1", None],          # 0.6
        ["jobs.normalize_request", 0.7, 0.8, 1, None, None],   # 0.1
        ["http.do_GET", 3.0, 9.9, -1, "j-1", None],            # 0.1
        ["service.read_events", 3.1, 9.8, 3, "j-1", None],     # 1.3
        ["service.complete", 8.0, 9.0, -1, "j-1", None],       # 0.2
        ["service.finish_stream", 8.5, 8.9, 5, "j-1", None],
        ["store.put", 8.2, 8.3, 5, "j-1", None],               # 0.1
    ], "jobs": [{"id": "j-1", "enqueued": 1.3, "started": 4.0,
                 "phases": {"serve.execute": 3.5, "serve.render": 0.8}}]}
    worker = {"spans": [
        ["runner.subprocess_entry", 4.5, 7.0, -1, "j-1", None],  # 1.0
        ["jobs.serve_job_worker", 5.0, 6.5, 0, "j-1", None],     # 1.0
        ["seq.check_transformation", 5.5, 6.0, 1, None,          # 0.5
         {"game_states": 42}],
    ]}
    # queue 1.3..4.0 (2.7), execute 4.0..7.5 (dispatch 1.0), render
    # 8.1..8.9 (0.7)
    return [client, service, worker]


def test_self_time_and_unattributed_share():
    metrics = ledger.analyze(_synthetic_dumps(), [("j-1", -0.2, 10.0)],
                             jobs=2)
    expected_ms = {
        "client.self_ms": 600, "http.self_ms": 200,
        "service.submit_self_ms": 600, "jobs.normalize_ms": 100,
        "service.queue_wait_ms": 2700, "pool.dispatch_ms": 1000,
        "obs.job_overhead_ms": 1000, "jobs.execute_ms": 1000,
        "seq.check_ms": 500, "service.stream_self_ms": 1500,
        "service.render_ms": 700, "store.put_ms": 100,
    }
    for name, value in expected_ms.items():
        assert metrics[name] == pytest.approx(value), name
    assert sum(metrics[name] for name in ledger.SELF_METRICS) \
        == pytest.approx(10_000)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.2 / 10.2)
    assert metrics["http.requests"] == 2
    assert (metrics["seq.checks"], metrics["seq.game_states"]) == (1, 42)


def test_exploration_time_splits_into_inner_calls():
    hot = {"psna.certifiable": [10, 0.5, 0.3], "psna.intern": [4, 0.1, 0.1]}
    dumps = [{"spans": [
        ["jobs.serve_job_worker", 0.0, 2.0, -1, "j-2", None],
        ["psna.explore", 0.5, 1.5, 0, None,
         {"states": 50, "dedup_hits": 1, "dedup_misses": 3,
          "cert_hits": 6, "cert_misses": 4, "hot": hot}],
    ]}]
    metrics = ledger.analyze(dumps, [("j-2", 0.0, 2.0)], jobs=1)
    assert metrics["psna.explore_ms"] == pytest.approx(600)
    assert metrics["psna.certify_ms"] == pytest.approx(300)
    assert metrics["psna.intern_ms"] == pytest.approx(100)
    assert metrics["jobs.execute_ms"] == pytest.approx(1000)
    assert metrics["psna.states_per_s"] == pytest.approx(50)
    assert metrics["psna.dedup_share"] == pytest.approx(0.25)
    assert metrics["psna.cert_cache_hit_share"] == pytest.approx(0.6)
    assert metrics["psna.certify_calls"] == 10
