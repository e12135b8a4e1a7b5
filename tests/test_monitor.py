"""The runtime semantic invariant monitor (:mod:`repro.obs.monitor`).

Four angles, mirroring the acceptance criteria of the monitor PR:

* **clean runs** — real explorations and optimizations under ``strict``
  checking report zero violations while every probe family actually
  fires (checks > 0);
* **canaries** — every registered invariant class is triggerable via
  :func:`inject_violation` (the ``--monitor-inject`` machinery), so a
  monitor that silently stopped checking cannot pass CI;
* **merge discipline** — worker snapshots merge commutatively and the
  rendered table stays byte-identical across ``--jobs``;
* **CLI surface** — ``--monitor`` / ``--monitor-json`` /
  ``--monitor-inject`` end-to-end, including the auto-shrunk
  regression-corpus witness.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.lang import parse
from repro.obs.monitor import (
    DEFAULT_DIVERGENCE_STRIDE,
    INVARIANTS,
    MONITOR_SCHEMA,
    Monitor,
    check_interval_disjoint,
    check_unique_timestamps,
    check_view_in_memory,
    inject_violation,
    monitor_payload,
    parse_monitor_spec,
    render_monitor_table,
    validate_monitor_payload,
    write_monitor_report,
)
from repro.psna import (
    MachineState,
    Memory,
    Message,
    PsConfig,
    ThreadLts,
    View,
    ZERO,
    explore,
    fresh_between,
)

SB = [parse("x_rlx := 1; a := y_rlx; return a;"),
      parse("y_rlx := 1; b := x_rlx; return b;")]

MP_REL_ACQ = [parse("x_na := 1; y_rel := 1; return 0;"),
              parse("a := y_acq; if (a == 1) { b := x_na; } else "
                    "{ b := 0; } return b;")]


class TestSpec:
    def test_strict_spellings(self):
        for spec in (None, True, "", "strict"):
            assert parse_monitor_spec(spec) == ("strict", 1)

    def test_sample(self):
        assert parse_monitor_spec("sample:4") == ("sample", 4)
        assert parse_monitor_spec("sample:1") == ("sample", 1)

    @pytest.mark.parametrize("bad", ["sample:0", "sample:-3", "sample:x",
                                     "loose", "sample"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_monitor_spec(bad)

    def test_from_spec(self):
        checker = Monitor.from_spec("sample:3")
        assert (checker.mode, checker.stride) == ("sample", 3)
        assert checker.divergence_stride == 3
        strict = Monitor.from_spec("strict")
        assert (strict.mode, strict.stride) == ("strict", 1)
        assert strict.divergence_stride == DEFAULT_DIVERGENCE_STRIDE


class TestCleanRuns:
    """Real runs violate nothing, and every probe family fires."""

    def test_exploration_with_promises_is_clean(self):
        with obs.session(monitor="sample:1"):
            checker = obs.monitor()
            result = explore(MP_REL_ACQ, PsConfig(promise_budget=1))
            assert result.complete
            assert checker.total_violations() == 0
            # Every PS^na probe family observed real steps.
            for invariant_id in ("psna.memory.unique-timestamps",
                                 "psna.memory.interval-disjoint",
                                 "psna.view.monotonic",
                                 "psna.view.in-memory",
                                 "psna.promise.subset-memory",
                                 "psna.promise.shrink",
                                 "cache.key-divergence"):
                assert checker.checks.get(invariant_id, 0) > 0, invariant_id

    def test_freeze_probe_and_cert_oracle_fire(self):
        # A racy non-atomic read makes ``freeze`` a genuine ``choose``
        # step, and promise_budget=1 lets threads hold promises across
        # it — exactly the freeze/promise interplay the dedicated
        # ``psna.cert.fulfillable`` probe re-certifies.  The same run
        # feeds the sampled cert-cache divergence oracle real hits.
        threads = [parse("x_na := 1; return 0;"),
                   parse("a := x_na; b := freeze(a); y_rlx := b; "
                         "return b;")]
        with obs.session(monitor="sample:1"):
            checker = obs.monitor()
            explore(threads, PsConfig(promise_budget=1))
            assert checker.total_violations() == 0
            assert checker.checks.get("psna.cert.fulfillable", 0) > 0
            assert checker.checks.get("cache.cert-divergence", 0) > 0

    def test_seq_and_opt_probes_fire(self):
        from repro.opt import Optimizer
        from repro.seq import Limits, check_transformation

        limits = Limits(max_game_states=8_000)
        with obs.session(monitor="strict"):
            checker = obs.monitor()
            result = Optimizer(validate=True, limits=limits).optimize(
                parse("x_na := 1; a := x_na; return a;"))
            assert result.validated
            # Atomic-access labels drive the game's push obligations.
            program = parse("y_rel := 1; a := y_acq; return a;")
            assert check_transformation(program, program,
                                        limits=limits).valid
            assert checker.total_violations() == 0
            assert checker.checks.get("seq.frontier.consistent", 0) > 0
            assert checker.checks.get("seq.simulation.step", 0) > 0
            assert checker.checks.get("opt.pass.consistent", 0) > 0

    def test_sampling_stride_reduces_checks(self):
        with obs.session(monitor="strict"):
            explore(SB, PsConfig(allow_promises=False))
            dense = obs.monitor().checks.get("psna.view.monotonic", 0)
        with obs.session(monitor="sample:4"):
            explore(SB, PsConfig(allow_promises=False))
            sparse = obs.monitor().checks.get("psna.view.monotonic", 0)
        assert dense > 0 and sparse > 0
        assert sparse < dense


class TestCanaries:
    """Every registered invariant class must be triggerable."""

    @pytest.mark.parametrize("invariant_id", sorted(INVARIANTS))
    def test_injected_violation_fires(self, invariant_id):
        checker = Monitor("strict", 1)
        witness = inject_violation(checker, invariant_id)
        assert checker.violations.get(invariant_id) == 1
        assert checker.injected.get(invariant_id) == 1
        assert checker.total_violations() == 1
        assert checker.violated_ids() == (invariant_id,)
        assert witness["invariant"] == invariant_id
        assert witness["injected"] is True
        assert witness["detail"]

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError):
            inject_violation(Monitor("strict", 1), "no.such.invariant")

    def test_rendered_table_flags_the_violation(self):
        checker = Monitor("strict", 1)
        inject_violation(checker, "psna.view.monotonic")
        table = render_monitor_table(monitor_payload(checker))
        assert "!! psna.view.monotonic (injected):" in table


class TestTimestampDetails:
    """Violation details print bisected timestamps as rationals."""

    @staticmethod
    def _stamps():
        half = fresh_between(ZERO, fresh_between(ZERO, None))
        return fresh_between(ZERO, half), half

    def test_duplicate_timestamp(self):
        _, half = self._stamps()
        memory = Memory(frozenset({Message("x", half, 0, None),
                                   Message("x", half, 1, None)}))
        assert check_unique_timestamps(memory) \
            == "duplicate timestamp x@1/2"

    def test_rmw_intervals(self):
        quarter, half = self._stamps()
        inside = Memory(frozenset({
            Message("x", half, 0, None, attach=ZERO),
            Message("x", quarter, 1, None)}))
        assert check_interval_disjoint(inside) \
            == "message x@1/4 inside RMW interval (0, 1/2]"
        empty = Memory(frozenset({
            Message("x", quarter, 0, None, attach=half)}))
        assert check_interval_disjoint(empty) \
            == "empty RMW interval (1/2, 1/4] at x"

    def test_view_names_a_missing_message(self):
        _, half = self._stamps()
        state = MachineState(
            (ThreadLts(program=None, view=View.singleton("x", half)),),
            Memory.initial({"x"}))
        assert check_view_in_memory(state) == (
            "thread 0 view names x@1/2 with no such message in memory")


class TestMergeDiscipline:
    def _monitor_with(self, *invariant_ids):
        checker = Monitor("strict", 1)
        for invariant_id in invariant_ids:
            inject_violation(checker, invariant_id)
        checker.checks["psna.view.monotonic"] = (
            checker.checks.get("psna.view.monotonic", 0) + 10)
        return checker

    def test_merge_sums_counters_commutatively(self):
        a = self._monitor_with("psna.view.monotonic").snapshot()
        b = self._monitor_with("psna.view.monotonic",
                               "opt.pass.consistent").snapshot()
        ab, ba = Monitor("strict", 1), Monitor("strict", 1)
        ab.merge_snapshot(a)
        ab.merge_snapshot(b)
        ba.merge_snapshot(b)
        ba.merge_snapshot(a)
        assert ab.checks == ba.checks
        assert ab.violations == ba.violations
        assert ab.injected == ba.injected
        assert ab.violations["psna.view.monotonic"] == 2
        assert ab.violations["opt.pass.consistent"] == 1

    def test_witness_merge_is_first_wins(self):
        first = self._monitor_with("psna.view.monotonic")
        first.witnesses["psna.view.monotonic"]["detail"] = "FIRST"
        merged = Monitor("strict", 1)
        merged.merge_snapshot(first.snapshot())
        merged.merge_snapshot(
            self._monitor_with("psna.view.monotonic").snapshot())
        assert merged.witnesses["psna.view.monotonic"]["detail"] == "FIRST"


class TestPayload:
    def test_round_trip_validates(self, tmp_path):
        checker = Monitor("strict", 1)
        inject_violation(checker, "cache.key-divergence")
        path = tmp_path / "monitor.json"
        payload = write_monitor_report(str(path), checker,
                                       meta={"argv": "test"})
        assert payload["schema"] == MONITOR_SCHEMA
        assert validate_monitor_payload(payload) == []
        assert validate_monitor_payload(json.loads(path.read_text())) == []

    def test_validation_catches_corruption(self):
        payload = monitor_payload(Monitor("strict", 1))
        assert validate_monitor_payload(payload) == []
        payload["invariants"]["psna.view.monotonic"]["violations"] = -1
        assert validate_monitor_payload(payload)
        assert validate_monitor_payload({"schema": "bogus/9"})

    def test_payload_covers_every_registered_invariant(self):
        payload = monitor_payload(Monitor("strict", 1))
        assert set(payload["invariants"]) == set(INVARIANTS)


class TestCLI:
    def test_litmus_monitor_byte_identical_across_jobs(self, capsys):
        """Strict and sampled: a pool worker's monitor checks with the
        parent's mode and stride."""
        for spec in ("strict", "sample:4"):
            assert main(["litmus", "--monitor", spec, "--jobs", "1"]) == 0
            one = capsys.readouterr().out
            assert main(["litmus", "--monitor", spec, "--jobs", "2"]) == 0
            two = capsys.readouterr().out
            assert one == two, spec
            assert f"-- invariant monitor ({spec}) --" in one
            assert "!!" not in one

    def test_clean_explore_exits_zero_with_table(self, capsys):
        assert main(["explore", "y_rel := 1; return 0;",
                     "a := y_acq; return a;", "--monitor", "strict"]) == 0
        out = capsys.readouterr().out
        assert "-- invariant monitor (strict) --" in out
        assert "violations" in out

    def test_inject_canary_fails_run_and_shrinks_witness(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["explore", "return 0;", "--monitor", "strict",
                     "--monitor-inject", "psna.view.monotonic",
                     "--monitor-json", "monitor.json"]) == 1
        out = capsys.readouterr().out
        assert "!! psna.view.monotonic (injected):" in out
        payload = json.loads((tmp_path / "monitor.json").read_text())
        assert validate_monitor_payload(payload) == []
        entry = payload["invariants"]["psna.view.monotonic"]
        assert entry["violations"] == 1 and entry["injected"] == 1
        witness = os.path.join("corpus", "monitor",
                               "monitor-psna.view.monotonic-seed0.repro")
        assert os.path.exists(witness)
        corpus_entry = open(witness).read()
        assert corpus_entry.startswith("# repro-fuzz/1\n")
        assert "# oracle: monitor-psna.view.monotonic\n" in corpus_entry
        assert "=== thread 0\nreturn 0;" in corpus_entry

    def test_bad_monitor_spec_exits_two(self, capsys):
        assert main(["litmus", "--monitor", "sample:zero"]) == 2
        assert "bad monitor mode" in capsys.readouterr().err

    def test_unknown_inject_target_exits_two(self, capsys):
        assert main(["explore", "return 0;", "--monitor-inject",
                     "psna.not-a-thing"]) == 2
        assert "unknown invariant" in capsys.readouterr().err
