"""Tests for load-to-load forwarding (Appendix D, Fig 8a)."""

from repro.lang import parse
from repro.opt import LlfPass, llf_pass
from repro.opt.llf import LlfState


class TestLlfState:
    def test_default_empty(self):
        assert LlfState().get("x") == frozenset()

    def test_kill_register(self):
        state = LlfState().set("x", frozenset({"a", "b"}))
        killed = state.kill_register("a")
        assert killed.get("x") == frozenset({"b"})

    def test_join_is_intersection(self):
        pass_ = LlfPass()
        left = LlfState().set("x", frozenset({"a", "b"}))
        right = LlfState().set("x", frozenset({"b", "c"}))
        assert pass_.join(left, right).get("x") == frozenset({"b"})

    def test_join_with_empty_is_empty(self):
        pass_ = LlfPass()
        left = LlfState().set("x", frozenset({"a"}))
        assert pass_.join(left, LlfState()).get("x") == frozenset()

    def test_release_marks_registers(self):
        state = LlfState().set("x", frozenset({"a"})).release()
        state = state.set("x", state.get("x") | {"b"})
        assert state.get("x") == frozenset({"a", "b"})
        assert state.get_released("x") == frozenset({"a"})

    def test_join_keeps_released_from_either_side(self):
        pass_ = LlfPass()
        left = LlfState().set("x", frozenset({"a"})).release()
        right = LlfState().set("x", frozenset({"a"}))
        joined = pass_.join(left, right)
        assert joined.get("x") == frozenset({"a"})
        assert joined.get_released("x") == frozenset({"a"})


class TestFig8aTransitions:
    def out_state(self, source):
        pass_ = LlfPass()
        return pass_.analyze(parse(source), pass_.initial())

    def test_load_adds_register(self):
        assert self.out_state("a := x_na;").get("x") == frozenset({"a"})

    def test_store_clears_location(self):
        state = self.out_state("a := x_na; x_na := 1;")
        assert state.get("x") == frozenset()

    def test_acquire_clears_everything(self):
        state = self.out_state("a := x_na; b := y_acq;")
        assert state.get("x") == frozenset()

    def test_relaxed_and_release_preserved(self):
        state = self.out_state("a := x_na; y_rel := 1; b := y_rlx;")
        assert state.get("x") == frozenset({"a"})

    def test_reassignment_kills(self):
        state = self.out_state("a := x_na; a := 5;")
        assert state.get("x") == frozenset()

    def test_freeze_kills(self):
        state = self.out_state("a := x_na; a := freeze(a);")
        assert state.get("x") == frozenset()

    def test_load_forwarded_from_released_register_is_released(self):
        # c := x_na becomes c := a, so c holds a's pre-release value.
        state = self.out_state("a := x_na; y_rel := 1; c := x_na;")
        assert state.get_released("x") == frozenset({"a", "c"})


class TestLlfRewrites:
    def test_basic_forwarding(self):
        optimized = llf_pass(parse("a := x_na; b := x_na; return a + b;"))
        assert "b := a" in repr(optimized)

    def test_forwarding_across_release(self):
        optimized = llf_pass(parse(
            "a := x_na; y_rel := 1; b := x_na; return a + b;"))
        assert "b := a" in repr(optimized)

    def test_blocked_by_acquire(self):
        optimized = llf_pass(parse(
            "a := x_na; l := y_acq; b := x_na; return a + b;"))
        assert "b := x_na" in repr(optimized)

    def test_blocked_by_intervening_store(self):
        optimized = llf_pass(parse(
            "a := x_na; x_na := 9; b := x_na; return a + b;"))
        assert "b := x_na" in repr(optimized)

    def test_chained_forwarding(self):
        optimized = llf_pass(parse(
            "a := x_na; b := x_na; c := x_na; return c;"))
        text = repr(optimized)
        assert "b := a" in text and "c := a" in text

    def test_branch_join(self):
        optimized = llf_pass(parse(
            "a := x_na; if c { d := x_na; } else { skip; } b := x_na; "
            "return b;"))
        text = repr(optimized)
        assert "d := a" in text and "b := a" in text

    def test_loop_invariant_register_survives(self):
        optimized = llf_pass(parse(
            "a := x_na; while c < 2 { b := x_na; c := c + 1; } return 0;"))
        assert "b := a" in repr(optimized)

    def test_loop_with_store_kills(self):
        optimized = llf_pass(parse(
            "a := x_na; while c < 2 { b := x_na; x_na := c; c := c + 1; }"
            " return 0;"))
        assert "b := x_na" in repr(optimized)

    def test_no_forwarding_into_freeze_across_release(self):
        # After the release b's load may read undef, whose freeze takes a
        # visible choose step; a forwarded defined value would not.
        optimized = llf_pass(parse(
            "a := x_na; y_rel := 1; b := x_na; c := freeze(b); return c;"))
        assert "b := x_na" in repr(optimized)

    def test_no_forwarding_into_print_across_release(self):
        optimized = llf_pass(parse(
            "a := x_na; y_rel := 1; b := x_na; print(b); return 0;"))
        assert "b := x_na" in repr(optimized)

    def test_no_forwarding_into_freeze_across_release_fence(self):
        optimized = llf_pass(parse(
            "a := x_na; fence_rel; b := x_na; c := freeze(b); return c;"))
        assert "b := x_na" in repr(optimized)

    def test_no_forwarding_into_freeze_through_a_forwarded_load(self):
        # c := x_na is not observed and becomes c := a; forwarding c into
        # b would still hand b the value from before the release.
        optimized = llf_pass(parse(
            "a := x_na; y_rel := 1; c := x_na; b := x_na; c := freeze(b);"
            " return 0;"))
        text = repr(optimized)
        assert "c := a" in text and "b := x_na" in text

    def test_load_after_release_forwards_into_freeze(self):
        optimized = llf_pass(parse(
            "a := x_na; y_rel := 1; b := x_na; d := x_na; print(b);"
            " c := freeze(d); return 0;"))
        text = repr(optimized)
        assert "b := x_na" in text and "d := b" in text

    def test_forwarding_prefers_a_load_after_release(self):
        optimized = llf_pass(parse(
            "a := x_na; y_rel := 1; b := x_na; d := x_na; print(b);"
            " return d;"))
        assert "d := b" in repr(optimized)

    def test_forwarding_into_freeze_without_release(self):
        optimized = llf_pass(parse(
            "a := x_na; b := x_na; c := freeze(b); return c;"))
        assert "b := a" in repr(optimized)

    def test_loop_carried_freeze_blocks_hoisted_forwarding(self):
        optimized = llf_pass(parse(
            "a := x_na; while i < 2 { y_rel := 1; c := freeze(b); "
            "b := x_na; i := i + 1; } return 0;"))
        assert "b := x_na" in repr(optimized)

    def test_fixpoint_fast(self):
        pass_ = LlfPass()
        pass_.run(parse(
            "a := x_na; while c < 2 { b := x_na; c := c + 1; } return 0;"))
        assert pass_.stats.max_iterations <= 3
