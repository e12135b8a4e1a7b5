"""Tests for PS^na messages and memory."""

from fractions import Fraction

import pytest

from repro.psna import Memory, Message, NAMessage, View, ZERO, fresh_between


def test_initial_memory_has_zero_messages():
    memory = Memory.initial(["x", "y"])
    assert len(memory) == 2
    for message in memory:
        assert message.ts == ZERO
        assert message.value == 0
        assert message.view is None  # ⊥


def test_add_and_order():
    memory = Memory.initial(["x"])
    memory = memory.add(Message("x", Fraction(2), 1, None))
    memory = memory.add(Message("x", Fraction(1), 5, None))
    assert [m.value for m in memory.at("x")] == [0, 5, 1]


def _bisected():
    """``(1/4, 3/8, 1/2)``, made the way the machine makes stamps."""
    half = fresh_between(ZERO, fresh_between(ZERO, None))
    quarter = fresh_between(ZERO, half)
    return quarter, fresh_between(quarter, half), half


def test_bisected_timestamps_print_as_rationals():
    quarter, _, half = _bisected()
    view = View.singleton("x", half)
    assert repr(view) == "⟨x@1/2⟩"
    assert repr(Message("x", half, 1, view)) == "⟨x@1/2,1,⟨x@1/2⟩⟩"
    # The RMW attach form: the write occupies (1/4, 1/2].
    assert repr(Message("x", half, 2, view, attach=quarter)) \
        == "⟨x@(1/4,1/2],2,⟨x@1/2⟩⟩"
    assert repr(NAMessage("x", quarter)) == "⟨x@1/4⟩na"


def test_memory_errors_print_rational_timestamps():
    quarter, inside, half = _bisected()
    memory = Memory.initial(["x"]).add(
        Message("x", half, 2, None, attach=quarter))
    with pytest.raises(ValueError, match="^timestamp collision at x@1/2$"):
        memory.add(Message("x", half, 1, None))
    with pytest.raises(ValueError, match="^timestamp x@3/8 lies inside an "
                                         "RMW-occupied interval$"):
        memory.add(Message("x", inside, 1, None))


def test_timestamp_collision_rejected():
    memory = Memory.initial(["x"])
    with pytest.raises(ValueError, match="collision"):
        memory.add(Message("x", ZERO, 1, None))


def test_na_message_has_bottom_view():
    na = NAMessage("x", Fraction(1))
    assert na.view is None


def test_proper_at_filters_na_messages():
    memory = Memory.initial(["x"]).add(NAMessage("x", Fraction(1)))
    assert len(memory.at("x")) == 2
    assert len(memory.proper_at("x")) == 1


def test_replace_for_lowering():
    memory = Memory.initial(["x"])
    promise = Message("x", Fraction(1), 1, View.singleton("x", Fraction(1)))
    memory = memory.add(promise)
    lowered = Message("x", Fraction(1), 1, None)
    replaced = memory.replace(promise, lowered)
    assert lowered in replaced and promise not in replaced


def test_replace_missing_message_rejected():
    memory = Memory.initial(["x"])
    ghost = Message("x", Fraction(9), 1, None)
    with pytest.raises(ValueError):
        memory.replace(ghost, ghost)


def test_fresh_slots_cover_gaps_and_end():
    memory = Memory.initial(["x"]) \
        .add(Message("x", Fraction(1), 1, None)) \
        .add(Message("x", Fraction(2), 2, None))
    slots = list(memory.fresh_slots("x", ZERO))
    # between 0-1, between 1-2, and past 2
    assert len(slots) == 3
    assert all(slot not in memory.timestamps("x") for slot in slots)
    assert any(slot > Fraction(2) for slot in slots)


def test_fresh_slots_respect_lower_bound():
    memory = Memory.initial(["x"]).add(Message("x", Fraction(2), 1, None))
    slots = list(memory.fresh_slots("x", Fraction(1)))
    assert all(slot > Fraction(1) for slot in slots)


def test_max_ts():
    memory = Memory.initial(["x"]).add(Message("x", Fraction(5), 1, None))
    assert memory.max_ts("x") == 5
    assert memory.max_ts("unknown") == ZERO


def test_locations():
    memory = Memory.initial(["x", "y"])
    assert memory.locations() == frozenset({"x", "y"})
