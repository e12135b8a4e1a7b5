"""Timestamps and views for PS^na (Fig 5).

``Time = {0} ∪ Q+``.  The machine only ever creates ``0``, ``low + 1``
and ``(low + high) / 2`` (:func:`fresh_between`), so every timestamp is
a dyadic rational, which a ``float`` holds exactly: timestamps are
exact floats, compared and hashed natively.  Should a float result not
land strictly inside its interval (about 50 nested bisections of one
gap, or appends past 2**53), :func:`fresh_between` computes that one
timestamp as a :class:`fractions.Fraction` instead; Python compares
floats and Fractions exactly and hashes equal values equally, so the
two mix freely.  Printed timestamps always go through ``Fraction`` so
they read as rationals (``x@1/2``).

A *view* maps locations to timestamps (default 0); the *bottom view* ⊥
(smaller than every view) annotates non-atomic messages and is
represented by ``None`` in message fields, with :data:`BOT` as a
convenience alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

Time = float

ZERO: Time = 0.0

#: The bottom view ⊥ (as stored in message view fields).
BOT: Optional["View"] = None


@dataclass(frozen=True)
class View:
    """A view ``Loc → Time``; absent locations map to timestamp 0."""

    items: tuple[tuple[str, Time], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, Time]) -> "View":
        trimmed = {loc: ts for loc, ts in mapping.items() if ts}
        return View(tuple(sorted(trimmed.items())))

    @staticmethod
    def singleton(loc: str, ts: Time) -> "View":
        return View.of({loc: ts})

    def get(self, loc: str) -> Time:
        for key, ts in self.items:
            if key == loc:
                return ts
        return ZERO

    def set(self, loc: str, ts: Time) -> "View":
        updated = dict(self.items)
        updated[loc] = ts
        return View.of(updated)

    def join(self, other: Optional["View"]) -> "View":
        """``V ⊔ V'``; joining with ⊥ (None) is the identity."""
        if other is None or not other.items:
            return self
        if not self.items:
            return other
        merged = dict(self.items)
        for loc, ts in other.items:
            if ts > merged.get(loc, ZERO):
                merged[loc] = ts
        return View.of(merged)

    def leq(self, other: "View") -> bool:
        return all(ts <= other.get(loc) for loc, ts in self.items)

    def locations(self) -> tuple[str, ...]:
        return tuple(loc for loc, _ in self.items)

    def as_dict(self) -> dict[str, Time]:
        return dict(self.items)

    def __repr__(self) -> str:
        if not self.items:
            return "⟨⟩"
        return "⟨" + ", ".join(f"{loc}@{Fraction(ts)}"
                               for loc, ts in self.items) + "⟩"

    def __hash__(self) -> int:
        # Views sit inside every message and thread state — cache the
        # hash on first use.  Dropped on pickling (__getstate__): string
        # hashes are salted per process.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.items)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def view_leq_opt(a: Optional[View], b: Optional[View]) -> bool:
    """``⊑`` on ``View ∪ {⊥}``: ⊥ is below everything."""
    if a is None:
        return True
    if b is None:
        return not a.items
    return a.leq(b)


def join_opt(a: Optional[View], b: Optional[View]) -> Optional[View]:
    if a is None:
        return b
    return a.join(b)


def fresh_between(low: Time, high: Optional[Time]) -> Time:
    """A timestamp strictly between ``low`` and ``high`` (or above ``low``).

    Exact: when the float result would round onto an end of the interval,
    this one timestamp is computed as a ``Fraction``.  Raises
    ``ValueError`` on an empty interval (``low >= high``).
    """
    if high is None:
        ts = low + 1
        return ts if ts > low else Fraction(low) + 1
    if not low < high:
        raise ValueError(f"no timestamp between {Fraction(low)} and "
                         f"{Fraction(high)}")
    ts = (low + high) / 2
    return ts if low < ts < high else (Fraction(low) + Fraction(high)) / 2
