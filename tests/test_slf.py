"""Tests for store-to-load forwarding (§4, Fig 3, Fig 4)."""

import pytest

from repro.lang import parse
from repro.opt import (
    After,
    Before,
    SlfPass,
    Top,
    slf_annotations,
    slf_pass,
    token_join,
)
from repro.opt.absval import AbsConst, AbsReg

TOP = Top()


class TestTokenLattice:
    def test_order_chain(self):
        """◦(v) ⊑ •(v) ⊑ ⊤ (Fig 3)."""
        assert token_join(Before(AbsConst(1)), After(AbsConst(1))) == \
            After(AbsConst(1))
        assert token_join(After(AbsConst(1)), TOP) == TOP
        assert token_join(Before(AbsConst(1)), TOP) == TOP

    def test_join_of_different_values_is_top(self):
        assert token_join(Before(AbsConst(1)), Before(AbsConst(2))) == TOP

    def test_join_idempotent_commutative(self):
        tokens = [TOP, Before(AbsConst(1)), After(AbsConst(1)),
                  Before(AbsReg("a"))]
        for a in tokens:
            assert token_join(a, a) == a
            for b in tokens:
                assert token_join(a, b) == token_join(b, a)


class TestFigure3Transitions:
    def run_states(self, source):
        return slf_annotations(parse(source))

    def test_na_store_sets_before(self):
        rows = self.run_states("x_na := 1; return 0;")
        assert rows[1][1].get("x") == Before(AbsConst(1))

    def test_release_write_moves_to_after(self):
        rows = self.run_states("x_na := 1; y_rel := 1; return 0;")
        assert rows[2][1].get("x") == After(AbsConst(1))

    def test_acquire_read_kills_after(self):
        rows = self.run_states(
            "x_na := 1; y_rel := 1; l := z_acq; return 0;")
        assert rows[3][1].get("x") == TOP

    def test_acquire_read_preserves_before(self):
        """§4/Fig 4: a permissioned location survives an acquire."""
        rows = self.run_states("x_na := 1; l := z_acq; return 0;")
        assert rows[2][1].get("x") == Before(AbsConst(1))

    def test_relaxed_accesses_preserve_tokens(self):
        rows = self.run_states(
            "x_na := 1; y_rlx := 2; l := y_rlx; return 0;")
        assert rows[3][1].get("x") == Before(AbsConst(1))

    def test_register_store_forwards_register(self):
        rows = self.run_states("x_na := r; return 0;")
        assert rows[1][1].get("x") == Before(AbsReg("r"))

    def test_register_reassignment_kills_token(self):
        rows = self.run_states("x_na := r; r := 5; return 0;")
        assert rows[2][1].get("x") == TOP

    def test_complex_expression_store_is_top(self):
        rows = self.run_states("x_na := r + 1; return 0;")
        assert rows[1][1].get("x") == TOP


class TestFigure4:
    SOURCE = """
    x_na := 42;
    l := y_acq;
    if l == 0 { a := x_na; y_rel := 1; }
    b := x_na;
    return b;
    """

    def test_both_loads_forwarded(self):
        optimized = slf_pass(parse(self.SOURCE))
        assert repr(optimized) == (
            "x_na := 42; l := y_acq; if (l == 0) then { a := 42; "
            "y_rel := 1 } else { skip }; b := 42; return b")

    def test_annotations_match_figure(self):
        rows = slf_annotations(parse(self.SOURCE))
        # {x ↦ ⊤} before the store, ◦(42) after, join is •(42)
        assert rows[0][1].get("x") == TOP
        assert rows[1][1].get("x") == Before(AbsConst(42))
        assert rows[2][1].get("x") == Before(AbsConst(42))
        assert rows[3][1].get("x") == After(AbsConst(42))  # after the join

    def test_fixpoint_converges_quickly_on_loops(self):
        """§4: the analysis reaches a fixpoint in ≤ 3 loop iterations."""
        program = parse(
            "x_na := 1; while c < 9 { a := x_na; y_rel := 1; c := c + 1; }"
            " return 0;")
        pass_ = SlfPass()
        pass_.run(program)
        assert pass_.stats.max_iterations <= 3


class TestSlfRewrites:
    @pytest.mark.parametrize("alpha", [
        "", "q := y_rlx;", "y_rlx := 7;", "q := y_acq;", "y_rel := 7;"])
    def test_example_2_11_patterns(self, alpha):
        """SLF across atomics (Example 2.11) fires for every α."""
        program = parse(f"x_na := 1; {alpha} b := x_na; return b;")
        optimized = slf_pass(program)
        assert "b := 1" in repr(optimized)

    def test_example_2_12_pattern_blocked(self):
        """SLF across a release-acquire pair must not fire (Example 2.12)."""
        program = parse(
            "x_na := 1; y_rel := 7; q := z_acq; b := x_na; return b;")
        optimized = slf_pass(program)
        assert "b := x_na" in repr(optimized)

    def test_branches_join_conservatively(self):
        program = parse(
            "if c { x_na := 1; } else { x_na := 2; } b := x_na; return b;")
        optimized = slf_pass(program)
        assert "b := x_na" in repr(optimized)  # values differ: no forward

    def test_same_value_in_both_branches_forwards(self):
        program = parse(
            "if c { x_na := 1; } else { x_na := 1; } b := x_na; return b;")
        optimized = slf_pass(program)
        assert "b := 1" in repr(optimized)

    def test_loop_body_store_forwards_within_loop(self):
        program = parse(
            "while c < 3 { x_na := 5; a := x_na; c := c + 1; } return 0;")
        optimized = slf_pass(program)
        assert "a := 5" in repr(optimized)

    def test_store_before_loop_with_clobbering_body_not_forwarded(self):
        program = parse(
            "x_na := 5; while c < 3 { a := x_na; x_na := c; c := c + 1; }"
            " return 0;")
        optimized = slf_pass(program)
        assert "a := x_na" in repr(optimized)

    def test_single_rmw_crossable(self):
        """One acq-rel RMW acts like acq-then-rel: ◦ → ◦ → • (Fig 3)."""
        program = parse(
            "x_na := 1; q := fadd_acq_rel(z_rlx, 1); b := x_na; return b;")
        optimized = slf_pass(program)
        assert "b := 1" in repr(optimized)

    def test_two_rmws_form_release_acquire_pair(self):
        program = parse(
            "x_na := 1; q := fadd_acq_rel(z_rlx, 1); "
            "r := fadd_acq_rel(z_rlx, 1); b := x_na; return b;")
        optimized = slf_pass(program)
        assert "b := x_na" in repr(optimized)

    def test_fences_follow_release_acquire(self):
        forwarded = slf_pass(parse(
            "x_na := 1; fence_rel; b := x_na; return b;"))
        assert "b := 1" in repr(forwarded)
        blocked = slf_pass(parse(
            "x_na := 1; fence_rel; fence_acq; b := x_na; return b;"))
        assert "b := x_na" in repr(blocked)

    def test_no_forwarding_into_freeze_across_release(self):
        # •(1): b's load may read undef, whose freeze is a visible choose.
        optimized = slf_pass(parse(
            "x_na := 1; y_rel := 7; b := x_na; c := freeze(b); return c;"))
        assert "b := x_na" in repr(optimized)

    def test_no_forwarding_through_memory_into_print_across_release(self):
        optimized = slf_pass(parse(
            "x_na := 1; y_rel := 7; b := x_na; z_na := b; d := z_na; "
            "print(d); return 0;"))
        assert "b := x_na" in repr(optimized)
        assert "d := b" in repr(optimized)  # ◦(b): no release since

    def test_forwarding_into_freeze_without_release(self):
        optimized = slf_pass(parse(
            "x_na := 1; b := x_na; c := freeze(b); return c;"))
        assert "b := 1" in repr(optimized)
