"""Messages and memories of PS^na (Fig 5).

Memory is a set of timestamped messages:

* proper messages ``⟨x@t, v, V⟩`` carrying a value and a message view
  (``⊥``, represented by ``None``, for non-atomic and promised-na
  messages);
* valueless *non-atomic messages* ``x@t ∈ NAMsg`` introduced by the
  paper for race detection (their view is ⊥ by definition).

The initial memory holds ``⟨x@0, 0, ⊥⟩`` for every location.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from ..lang.values import Value
from .view import Time, View, ZERO, fresh_between


@dataclass(frozen=True)
class Message:
    """A proper message ``⟨x@t, v, V⟩``; ``view=None`` encodes ⊥.

    ``attach`` records the lower end of the half-open timestamp interval
    ``(attach, ts]`` the message occupies.  RMWs attach their write to the
    message they read (PS represents this with timestamp ranges); no other
    message may be inserted inside an occupied interval, which is what
    makes RMWs atomic.
    """

    loc: str
    ts: Time
    value: Value
    view: Optional[View]
    attach: Optional[Time] = None

    def __repr__(self) -> str:
        view = "⊥" if self.view is None else repr(self.view)
        stamp = (f"({Fraction(self.attach)},{Fraction(self.ts)}]"
                 if self.attach is not None else f"{Fraction(self.ts)}")
        return f"⟨{self.loc}@{stamp},{self.value},{view}⟩"

    def __hash__(self) -> int:
        # Messages live in frozensets that the certification search
        # hashes constantly.  Cached on first use, dropped on pickling
        # (string hashes are salted per process).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.loc, self.ts, self.value, self.view,
                           self.attach))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class NAMessage:
    """A valueless non-atomic message ``x@t`` (view is ⊥ by definition)."""

    loc: str
    ts: Time

    @property
    def view(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"⟨{self.loc}@{Fraction(self.ts)}⟩na"

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.loc, self.ts))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


AnyMessage = Message | NAMessage


@dataclass(frozen=True)
class Memory:
    """An immutable message set with per-location timestamp uniqueness."""

    messages: frozenset[AnyMessage]

    @staticmethod
    def initial(locs: Iterable[str]) -> "Memory":
        return Memory(frozenset(
            Message(loc, ZERO, 0, None) for loc in sorted(set(locs))))

    def add(self, message: AnyMessage) -> "Memory":
        if any(m.ts == message.ts for m in self.at(message.loc)):
            raise ValueError(f"timestamp collision at "
                             f"{message.loc}@{Fraction(message.ts)}")
        if self.blocked(message.loc, message.ts):
            raise ValueError(
                f"timestamp {message.loc}@{Fraction(message.ts)} lies "
                f"inside an RMW-occupied interval")
        return Memory(self.messages | {message})

    def blocked(self, loc: str, ts: Time) -> bool:
        """Is ``ts`` strictly inside an occupied interval of ``loc``?"""
        for m in self.at(loc):
            if (isinstance(m, Message)
                    and m.attach is not None and m.attach < ts < m.ts):
                return True
        return False

    def replace(self, old: AnyMessage, new: AnyMessage) -> "Memory":
        if old not in self.messages:
            raise ValueError(f"message {old!r} not in memory")
        return Memory((self.messages - {old}) | {new})

    def at(self, loc: str) -> tuple[AnyMessage, ...]:
        """Messages of ``loc`` sorted by timestamp.

        Memoized per (memory, location): the race helper and every read
        / write rule re-scan the same immutable memory.  The cache is
        process-local and dropped when pickling.
        """
        cache = self.__dict__.get("_at")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_at", cache)
        got = cache.get(loc)
        if got is None:
            got = tuple(sorted((m for m in self.messages if m.loc == loc),
                               key=lambda m: m.ts))
            cache[loc] = got
        return got

    def proper_at(self, loc: str) -> list[Message]:
        return [m for m in self.at(loc) if isinstance(m, Message)]

    def timestamps(self, loc: str) -> list[Time]:
        return [m.ts for m in self.at(loc)]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_at", None)
        return state

    def max_ts(self, loc: str) -> Time:
        stamps = self.timestamps(loc)
        return stamps[-1] if stamps else ZERO

    def fresh_slots(self, loc: str, above: Time) -> Iterator[Time]:
        """Candidate fresh timestamps for ``loc`` strictly above ``above``.

        One slot between every pair of adjacent existing timestamps above
        ``above`` (plus directly above ``above`` if a message sits between)
        and one beyond the maximum.  Up to renaming of timestamps, every
        insertion point is covered — the exploration canonicalizes states,
        so this enumeration is exhaustive for the bounded model checker.
        """
        stamps = [ts for ts in self.timestamps(loc)]
        cuts = sorted({above, *[ts for ts in stamps if ts > above]})
        for lower, upper in zip(cuts, cuts[1:]):
            slot = fresh_between(lower, upper)
            if not self.blocked(loc, slot):
                yield slot
        yield fresh_between(cuts[-1], None)

    def locations(self) -> frozenset[str]:
        return frozenset(m.loc for m in self.messages)

    def __contains__(self, message: AnyMessage) -> bool:
        return message in self.messages

    def __iter__(self) -> Iterator[AnyMessage]:
        return iter(sorted(self.messages, key=lambda m: (m.loc, m.ts)))

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(m) for m in self) + "}"
