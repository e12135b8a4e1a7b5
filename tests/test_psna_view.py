"""Tests for timestamps and views (PS^na, Fig 5 preliminaries)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import parse
from repro.lang.interp import WhileThread
from repro.psna import (
    MachineState,
    Memory,
    Message,
    ThreadLts,
    View,
    ZERO,
    canonical_key,
    fresh_between,
    join_opt,
    view_leq_opt,
)

times = st.fractions(min_value=0, max_value=8, max_denominator=8)
view_maps = st.dictionaries(st.sampled_from(["x", "y", "z"]), times,
                            max_size=3)
views = view_maps.map(View.of)


def test_default_timestamp_zero():
    assert View().get("x") == ZERO


def test_zero_entries_trimmed():
    assert View.of({"x": ZERO}) == View()


def test_set_get():
    view = View().set("x", Fraction(2))
    assert view.get("x") == 2
    assert view.get("y") == 0


def test_join_pointwise_max():
    a = View.of({"x": Fraction(1), "y": Fraction(3)})
    b = View.of({"x": Fraction(2)})
    joined = a.join(b)
    assert joined.get("x") == 2 and joined.get("y") == 3


def test_join_with_bottom_is_identity():
    view = View.of({"x": Fraction(1)})
    assert view.join(None) == view
    assert join_opt(None, view) == view
    assert join_opt(None, None) is None


@given(views)
def test_join_idempotent(view):
    assert view.join(view) == view


@given(views, views)
def test_join_commutative(a, b):
    assert a.join(b) == b.join(a)


@given(views, views, views)
def test_join_associative(a, b, c):
    assert a.join(b).join(c) == a.join(b.join(c))


@given(views, views)
def test_join_is_lub(a, b):
    joined = a.join(b)
    assert a.leq(joined) and b.leq(joined)


@given(views, views)
def test_leq_antisymmetric(a, b):
    if a.leq(b) and b.leq(a):
        assert a == b


def test_view_leq_opt_bottom():
    view = View.of({"x": Fraction(1)})
    assert view_leq_opt(None, view)
    assert view_leq_opt(None, None)
    assert not view_leq_opt(view, None)
    assert view_leq_opt(View(), None)  # the zero view has no entries


def test_fresh_between_midpoint():
    ts = fresh_between(Fraction(1), Fraction(2))
    assert Fraction(1) < ts < Fraction(2)


def test_fresh_between_open_end():
    assert fresh_between(Fraction(3), None) == Fraction(4)


def test_fresh_between_rejects_an_empty_interval():
    # A raise, not an assert: the check must survive ``python -O``.
    with pytest.raises(ValueError, match="no timestamp between 1/2 and"):
        fresh_between(0.5, 0.5)
    with pytest.raises(ValueError):
        fresh_between(Fraction(2), 1.0)


def _state(stamps):
    """One thread whose view names the last stamp of each location, over
    a memory holding a message at every stamp."""
    memory = Memory.initial(["x", "y"])
    for loc, ts in stamps:
        memory = memory.add(Message(loc, ts, 1, View.singleton(loc, ts)))
    view = View.of({loc: ts for loc, ts in stamps})
    thread = ThreadLts(WhileThread.start(parse("return 0;")), view=view)
    return MachineState((thread,), memory)


def test_float_stamps_stay_exact_past_double_precision():
    """80 nested bisections of one gap and 60 appends past 2**53 outrun
    what a double holds; the Fraction fallback keeps every stamp
    strictly ordered and distinct, and the state's canonical key equals
    that of the same state built from Fraction stamps."""
    low, high, bisected = 1.0, 2.0, []
    for _ in range(80):
        high = fresh_between(low, high)
        bisected.append(high)
    ts, appended = 2.0 ** 53 - 30, []
    for _ in range(60):
        ts = fresh_between(ts, None)
        appended.append(ts)
    assert all(a > b for a, b in zip(bisected, bisected[1:]))
    assert bisected[-1] > low
    assert all(a < b for a, b in zip(appended, appended[1:]))
    assert len(set(bisected)) == 80 and len(set(appended)) == 60
    for series in (bisected, appended):
        assert isinstance(series[0], float)
        assert isinstance(series[-1], Fraction)  # the fallback ran
    stamps = [("x", ts) for ts in bisected] + [("y", ts) for ts in appended]
    exact = [(loc, Fraction(ts)) for loc, ts in stamps]
    assert canonical_key(_state(stamps)) == canonical_key(_state(exact))


@given(views)
def test_views_hashable(view):
    assert hash(view) == hash(View.of(view.as_dict()))
