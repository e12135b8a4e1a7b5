"""Time/visit attribution: exact self-time, folded export, merges."""

import re
import time

from repro import obs, runner
from repro.obs import attrib


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestRecorder:
    def test_self_time_sums_to_top_level_total(self):
        with obs.session(attrib=True) as session:
            with obs.span("outer"):
                _spin(0.003)
                with obs.span("inner"):
                    _spin(0.002)
                with obs.span("inner"):
                    _spin(0.001)
            recorder = session.attrib
        frames = recorder.frames
        assert set(frames) == {("outer",), ("outer", "inner")}
        outer_self, outer_total, outer_visits = frames[("outer",)]
        inner_self, inner_total, inner_visits = frames[("outer", "inner")]
        assert outer_visits == 1 and inner_visits == 2
        # Self-time is duration minus child time, so the frame self-times
        # sum exactly (modulo float error) to the top-level span total.
        assert abs((outer_self + inner_self) - outer_total) < 1e-9
        assert abs(recorder.total_s - outer_total) < 1e-9
        assert inner_self >= 0.002
        assert outer_self >= 0.002  # its own 3ms minus nothing

    def test_disabled_session_records_nothing(self):
        with obs.session() as session:
            with obs.span("outer"):
                pass
            assert session.attrib is None

    def test_sibling_stacks_are_distinct(self):
        with obs.session(attrib=True) as session:
            with obs.span("a"):
                with obs.span("x"):
                    pass
            with obs.span("b"):
                with obs.span("x"):
                    pass
            frames = session.attrib.frames
        assert ("a", "x") in frames and ("b", "x") in frames


class TestMerge:
    def test_merge_snapshot_is_commutative(self):
        left = {("a",): (0.5, 1.0, 2), ("a", "b"): (0.5, 0.5, 1)}
        right = {("a",): (0.25, 0.5, 1), ("c",): (0.1, 0.1, 4)}
        one = attrib.AttribRecorder()
        one.merge_snapshot(left)
        one.merge_snapshot(right)
        other = attrib.AttribRecorder()
        other.merge_snapshot(right)
        other.merge_snapshot(left)
        assert one.frames == other.frames
        assert one.frames[("a",)] == [0.75, 1.5, 3]

    def test_snapshot_is_plain_data(self):
        recorder = attrib.AttribRecorder()
        recorder.merge_snapshot({("a",): (0.5, 1.0, 2)})
        snapshot = recorder.snapshot()
        assert snapshot == {("a",): (0.5, 1.0, 2)}
        snapshot[("a",)] = (9, 9, 9)
        assert recorder.frames[("a",)] == [0.5, 1.0, 2]  # a copy


class TestRuleApportionment:
    def test_rules_attach_under_their_phase(self):
        frames = {("psna.explore",): [1.0, 1.0, 1]}
        counters = {"rule.psna.thread.read": 30,
                    "rule.psna.machine.lower": 10}
        result = attrib.rule_frames(frames, counters)
        read = result[("psna.explore", "rule:psna.thread.read")]
        lower = result[("psna.explore", "rule:psna.machine.lower")]
        assert read[1] == 30 and lower[1] == 10
        # The phase's self-time splits by visit share.
        assert abs(read[0] - 0.75) < 1e-9
        assert abs(lower[0] - 0.25) < 1e-9

    def test_orphan_rules_land_under_unattributed(self):
        result = attrib.rule_frames({}, {"rule.psna.cert.success": 5})
        (stack,) = result
        assert stack[0] == attrib.UNATTRIBUTED

    def test_non_rule_counters_are_ignored(self):
        assert attrib.rule_frames({}, {"seq.game.states": 100}) == {}


class TestPayloadAndFolded:
    def _payload(self):
        frames = {("outer",): [0.001, 0.003, 1],
                  ("outer", "inner"): [0.002, 0.002, 2]}
        return attrib.attrib_payload(frames, {}, meta={"command": "test"})

    def test_payload_validates(self):
        payload = self._payload()
        assert payload["schema"] == attrib.ATTRIB_SCHEMA
        assert attrib.validate_attrib_payload(payload) == []

    def test_validation_catches_damage(self):
        payload = self._payload()
        payload["frames"][0].pop("self_s")
        payload["total_s"] = -1
        problems = attrib.validate_attrib_payload(payload)
        assert any("self_s" in problem for problem in problems)
        assert any("total_s" in problem for problem in problems)

    def test_folded_format(self):
        lines = attrib.folded_lines(self._payload())
        assert lines == sorted(lines)
        for line in lines:
            assert re.fullmatch(r"[^ ]+(;[^ ]+)* \d+", line)
        assert "outer;inner 2000" in lines

    def test_zero_weight_stacks_are_kept(self):
        payload = attrib.attrib_payload({("fast",): [0.0, 0.0, 1]}, {})
        assert attrib.folded_lines(payload) == ["fast 0"]

    def test_read_folded_stacks_strips_weights(self):
        stacks = attrib.read_folded_stacks(["a;b 120", "c 0", "", "a;b 9"])
        assert stacks == {"a;b", "c"}

    def test_render_table_marks_rules(self):
        frames = {("psna.explore",): [1.0, 1.0, 1]}
        payload = attrib.attrib_payload(frames,
                                        {"rule.psna.thread.read": 4})
        table = attrib.render_attrib_table(payload)
        assert "rule:psna.thread.read" in table
        assert "~" in table


def _attrib_stacks(jobs):
    """The folded stack set of a 3-case litmus sweep at a jobs level."""
    names = ["slf-basic", "dse-across-acq-read", "example-3-1-chain"]
    with obs.session(attrib=True) as session:
        runner.run_sweep(runner.litmus_case_worker, names, jobs=jobs)
        payload = attrib.attrib_payload(session.attrib,
                                        session.metrics.snapshot()["counters"])
    return set(attrib.read_folded_stacks(attrib.folded_lines(payload)))


class TestDeterminism:
    def test_stack_set_is_identical_across_runs_and_jobs(self):
        serial_one = _attrib_stacks(jobs=1)
        serial_two = _attrib_stacks(jobs=1)
        pooled = _attrib_stacks(jobs=2)
        assert serial_one == serial_two
        assert serial_one == pooled
        assert serial_one  # the workload actually produced spans

    def test_worker_frames_merge_into_parent(self):
        with obs.session(attrib=True) as session:
            runner.run_sweep(runner.litmus_case_worker,
                             ["slf-basic", "dse-across-acq-read"], jobs=2)
            assert session.attrib.frames  # shipped across the pool
