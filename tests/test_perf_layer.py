"""Tests for the hot-path performance layer.

Covers the three tentpoles of the perf PR: certification memoization
(:class:`CertCache`), canonical-key caching/interning
(:class:`KeyCache`, SEQ game closure memoization and successor
table), and the parallel sweep runner (:mod:`repro.runner`,
``--jobs``) — plus the exact ``max_states`` bound regression.

The load-bearing property throughout: caches and parallelism are pure
performance artifacts.  Every observable result — behavior sets, state
counts, SEQ verdicts, rendered CLI tables — must be identical with them
on or off.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro import obs, runner
from repro.cli import main
from repro.lang import parse
from repro.lang.interp import WhileThread
from repro.litmus import EXTENDED_CASES, case_by_name
from repro.litmus.generator import ProgramGenerator
from repro.obs.metrics import MetricsRegistry
from repro.opt import Optimizer
from repro.psna import (
    CertCache,
    KeyCache,
    Memory,
    Message,
    PsConfig,
    ThreadLts,
    View,
    canonical_key,
    certifiable,
    certification_key,
    decode_state,
    explore,
    initial_state,
)
from repro.seq import refinement
from repro.seq.machine import seq_steps
from repro.seq.refinement import Limits, check_transformation

CACHED = PsConfig(promise_budget=1)
UNCACHED = replace(CACHED, enable_cert_cache=False, enable_key_cache=False)

SB = [parse("x_rlx := 1; a := y_rlx; return a;"),
      parse("y_rlx := 1; b := x_rlx; return b;")]


class TestStateBoundExact:
    """Regression for the off-by-one in ``_explore``'s state bound."""

    def test_bound_equal_to_space_is_complete(self):
        full = explore(SB, PsConfig(allow_promises=False))
        assert full.complete
        exact = explore(SB, PsConfig(allow_promises=False,
                                     max_states=full.states))
        assert exact.complete
        assert exact.states == full.states
        assert exact.behaviors == full.behaviors

    def test_bound_one_below_space_is_exact_and_incomplete(self):
        full = explore(SB, PsConfig(allow_promises=False))
        short = explore(SB, PsConfig(allow_promises=False,
                                     max_states=full.states - 1))
        assert not short.complete
        assert short.incomplete_reason == "state-bound"
        assert short.states == full.states - 1


class TestCertCache:
    def _promised(self, program: str, value: int = 1):
        promise = Message("x", Fraction(1), value,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(WhileThread.start(parse(program)),
                           promises=frozenset({promise}))
        memory = Memory.initial(["x"]).add(promise)
        return thread, memory

    def test_hit_returns_memoized_verdict(self):
        config = PsConfig(values=(0, 1), allow_promises=False)
        thread, memory = self._promised("x_rlx := 1; return 0;")
        cache = CertCache()
        assert certifiable(thread, memory, config, cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert certifiable(thread, memory, config, cache)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_negative_verdicts_are_cached_too(self):
        config = PsConfig(values=(0, 1), allow_promises=False)
        thread, memory = self._promised("return 0;")
        cache = CertCache()
        assert not certifiable(thread, memory, config, cache)
        assert not certifiable(thread, memory, config, cache)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_empty_promises_bypass_the_cache(self):
        config = PsConfig(allow_promises=False)
        thread = ThreadLts(WhileThread.start(parse("return 0;")))
        cache = CertCache()
        assert certifiable(thread, Memory.initial(["x"]), config, cache)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_key_invariant_under_timestamp_renaming(self):
        """Order-isomorphic timestamps canonicalize to the same key."""
        def build(ts: Fraction):
            promise = Message("x", ts, 1, View.singleton("x", ts))
            thread = ThreadLts(WhileThread.start(
                parse("x_rlx := 1; return 0;")),
                promises=frozenset({promise}))
            return thread, Memory.initial(["x"]).add(promise)

        low = certification_key(*build(Fraction(1)))
        high = certification_key(*build(Fraction(7, 2)))
        assert low == high

    def test_key_distinguishes_different_values(self):
        thread_a, memory_a = self._promised("x_rlx := 1; return 0;", 1)
        thread_b, memory_b = self._promised("x_rlx := 1; return 0;", 7)
        assert (certification_key(thread_a, memory_a)
                != certification_key(thread_b, memory_b))


class TestKeyCache:
    def test_canonical_key_memoized_per_state(self):
        state = initial_state(SB, PsConfig(allow_promises=False))
        cache = KeyCache()
        first = canonical_key(state, cache)
        second = canonical_key(state, cache)
        assert first == second
        assert isinstance(first, int)
        assert decode_state(first, cache.interner) == canonical_key(state)
        assert cache.hits == 1 and cache.misses == 1

    def test_exploration_reports_cache_counters(self):
        result = explore(SB, CACHED)
        assert result.key_cache_misses > 0
        assert result.key_cache_hits > 0
        assert result.key_cache_hits + result.key_cache_misses == (
            result.dedup_hits + result.dedup_misses + 1)  # +1 initial state

    def test_counters_flushed_into_obs_session(self):
        with obs.session() as session:
            explore(SB, CACHED)
            counters = session.metrics.snapshot()["counters"]
        assert counters.get("psna.key.cache_hits", 0) > 0
        assert counters.get("psna.cert.cache_misses", 0) > 0


class TestCacheTransparency:
    """Caches on vs. off must be observationally identical (full catalog)."""

    @pytest.mark.parametrize(
        "case", EXTENDED_CASES, ids=lambda case: case.name)
    def test_explore_behaviors_identical(self, case):
        for program in (case.source, case.target):
            cached = explore([program], CACHED)
            plain = explore([program], UNCACHED)
            assert cached.behaviors == plain.behaviors
            assert cached.states == plain.states
            assert cached.complete == plain.complete
            assert plain.cert_cache_hits == plain.key_cache_hits == 0

    @staticmethod
    def _seq_game(source, target, **kwargs):
        """What a check reports: verdict, bounds and counterexamples.
        ``caching=False`` plays the reference game: every escape search
        runs, where the cached game reads the prune off the frontier."""
        verdict = check_transformation(source, target, **kwargs)
        return (verdict.valid, verdict.notion, verdict.complete,
                verdict.game_states, verdict.incomplete_reasons,
                [repr(v.counterexample) for v in (verdict.simple,
                                                  verdict.advanced)
                 if v is not None])

    @pytest.mark.parametrize(
        "case", EXTENDED_CASES, ids=lambda case: case.name)
    def test_seq_verdicts_identical(self, case):
        assert self._seq_game(case.source, case.target, caching=True) \
            == self._seq_game(case.source, case.target, caching=False)

    def test_seq_generated_pairs_identical(self):
        """Seeded 3–4 statement programs against their optimized form
        (valid) and against another program (mostly invalid)."""
        valid = []
        for seed in range(12):
            generator = ProgramGenerator(seed=seed)
            source = generator.straightline(3 + seed % 2)
            other = generator.straightline(3 + seed % 2)
            for target in (Optimizer().optimize(source).optimized, other):
                cached = self._seq_game(source, target, caching=True)
                assert cached == self._seq_game(source, target,
                                                caching=False)
                valid.append(cached[0])
        assert True in valid and False in valid

    def test_seq_truncated_closure_identical(self):
        """Once a closure truncates, the frontier no longer decides the
        beh-failure prune and the cached game searches escapes again."""
        case = case_by_name("na-read-then-acq")
        limits = Limits(max_closure_states=1)
        with obs.session() as session:
            cached = self._seq_game(case.source, case.target, limits=limits)
        assert "closure-states" in cached[4]
        counters = session.metrics.snapshot()["counters"]
        assert counters["seq.game.escape_searches"] > 0
        assert cached == self._seq_game(case.source, case.target,
                                        limits=limits, caching=False)

    def test_promise_heavy_exploration_actually_hits_the_cert_cache(self):
        lb = [parse("a := x_rlx; y_rlx := a; return a;"),
              parse("b := y_rlx; x_rlx := 1; return b;")]
        cached = explore(lb, CACHED)
        plain = explore(lb, UNCACHED)
        assert cached.behaviors == plain.behaviors
        assert cached.cert_cache_hits > 0


class TestStepTableTransparency:
    """The SEQ game's successor table only saves work: with every step
    enumerated afresh by ``seq_steps`` the game searches, answers and
    counts exactly the same — ``rule.seq.machine.*`` included, where a
    counterexample stops part-way through an enumeration."""

    @staticmethod
    def _observed(case):
        with obs.session() as session:
            verdict = check_transformation(case.source, case.target)
        snapshot = session.metrics.snapshot()
        counters = {name: value
                    for name, value in snapshot["counters"].items()
                    if not name.startswith("span.")}
        cexes = [repr(v.counterexample) for v in (verdict.simple,
                                                  verdict.advanced)
                 if v is not None]
        return (verdict.valid, verdict.notion, verdict.game_states,
                cexes, counters)

    @pytest.mark.parametrize(
        "case", EXTENDED_CASES, ids=lambda case: case.name)
    def test_table_leaves_game_unchanged(self, case, monkeypatch):
        tabled = self._observed(case)
        monkeypatch.setattr(refinement._Game, "_steps",
                            lambda game, cfg: seq_steps(cfg, game.universe))
        assert self._observed(case) == tabled


LB = [parse("a := x_rlx; y_rlx := a; return a;"),
      parse("b := y_rlx; x_rlx := 1; return b;")]
LB2 = PsConfig(promise_budget=2)

#: Exploration inputs for the observer-parity check: every catalog
#: program alone at budget 1, and LB at budget 2 complete, state-bound
#: and depth-bound.
OBSERVED_RUNS = [
    pytest.param([program], CACHED, id=f"{case.name}-{side}")
    for case in EXTENDED_CASES
    for side, program in (("source", case.source), ("target", case.target))
] + [
    pytest.param(LB, LB2, id="lb2-complete"),
    pytest.param(LB, replace(LB2, max_states=50), id="lb2-state-bound"),
    pytest.param(LB, replace(LB2, max_depth=3), id="lb2-depth-bound"),
]


class TestObserverParity:
    """Graph recorder, event stream and strict monitor are pure observers:
    an exploration under all three searches exactly what it searches with
    none.  ``key_cache_hits`` is left out — the graph recorder re-reads
    each popped state's key, one extra key-cache hit per state."""

    FIELDS = ("behaviors", "complete", "states", "incomplete_reason",
              "stuck_states", "dedup_hits", "dedup_misses", "peak_frontier",
              "cert_cache_hits", "cert_cache_misses", "key_cache_misses")

    @pytest.mark.parametrize("programs, config", OBSERVED_RUNS)
    def test_observed_search_matches_plain_search(self, programs, config):
        plain = explore(programs, config)
        with obs.session(graph=True, stream=True, monitor="strict"):
            observed = explore(programs, config)
        for field in self.FIELDS:
            assert getattr(observed, field) == getattr(plain, field), field


class TestRunner:
    NAMES = ["slf-basic", "na-reorder-diff-loc", "store-load-forward"]

    def _strip_timing(self, sweep):
        return [{key: value for key, value in payload.items()
                 if key != "time_s"}
                for payload, _counters in sweep]

    def test_parallel_payloads_match_serial(self):
        serial = runner.run_sweep(runner.litmus_case_worker, self.NAMES,
                                  jobs=1)
        parallel = runner.run_sweep(runner.litmus_case_worker, self.NAMES,
                                    jobs=2)
        assert self._strip_timing(serial) == self._strip_timing(parallel)

    def test_parallel_counters_merge_into_parent_session(self):
        with obs.session() as session:
            sweep = runner.run_sweep(runner.litmus_case_worker, self.NAMES,
                                     jobs=2)
            counters = session.metrics.snapshot()["counters"]
        assert counters.get("seq.game.states", 0) > 0
        # Per-case counters come back alongside each payload too.
        assert all(c.get("seq.game.states", 0) > 0 for _p, c in sweep)

    def test_serial_without_session_reports_empty_counters(self):
        sweep = runner.run_sweep(runner.litmus_case_worker, self.NAMES[:2],
                                 jobs=1)
        assert all(counters == {} for _payload, counters in sweep)

    def test_single_descriptor_never_pools(self):
        [(payload, _)] = runner.run_sweep(
            runner.litmus_case_worker, self.NAMES[:1], jobs=8)
        assert payload["case"] == self.NAMES[0]


class TestMergeSnapshot:
    def test_counters_gauges_histograms_fold_in(self):
        registry = MetricsRegistry()
        registry.inc("shared", 2)
        registry.observe("latency", 1.0)
        worker = MetricsRegistry()
        worker.inc("shared", 3)
        worker.inc("fresh")
        worker.gauge("depth", 7)
        worker.observe("latency", 5.0)
        registry.merge_snapshot(worker.snapshot())
        snap = registry.snapshot()
        assert snap["counters"] == {"shared": 5, "fresh": 1}
        assert snap["gauges"] == {"depth": 7}
        latency = snap["histograms"]["latency"]
        assert latency["count"] == 2
        assert latency["min"] == 1.0 and latency["max"] == 5.0


class TestJobsParityCLI:
    def test_litmus_table_byte_identical_across_jobs(self, capsys):
        assert main(["litmus", "--jobs", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["litmus", "--jobs", "2"]) == 0
        two = capsys.readouterr().out
        assert one == two

    def test_adequacy_verdicts_identical_across_jobs(self, capsys):
        source = "x_na := 1; b := x_na; return b;"
        target = "x_na := 1; b := 1; return b;"
        assert main(["adequacy", source, target, "--jobs", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["adequacy", source, target, "--jobs", "2"]) == 0
        two = capsys.readouterr().out
        assert one == two
