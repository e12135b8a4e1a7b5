"""Thread configurations and thread steps of PS^na (Fig 5).

A thread state is ``T = ⟨σ, V, P⟩``: the program state, the thread view,
and the set of outstanding promises.  Thread configuration steps pair a
thread state with the (shared) memory.

The highlighted extensions of the paper relative to PS2.1 are all here:

* non-atomic reads behave like relaxed reads;
* non-atomic writes may emit multiple bottom-view messages before the
  final one (``memory: na-write``), which is what validates write
  splitting (Appendix B) — this implementation uses the extra messages to
  fulfill the thread's own promises and, optionally, to seed fresh
  valueless ``NAMsg`` race markers;
* ``racy-read`` returns undef, ``racy-write`` invokes UB;
* the ``lower`` step rewrites an outstanding promise to a ⊑-greater value
  (undef) and/or a smaller view (Appendix E).

Extensions mirroring the Coq development (not in the paper's fragment):
RMWs with adjacent-timestamp writes, and acquire/release fences in a
single-view simplification (an ``acq_pending`` view accumulates the views
of relaxedly-read messages; a release fence pins the view future relaxed
writes attach to their messages).  SC fences are handled by the machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .. import obs
from ..lang.events import ACQ, NA, REL, RLX, FenceKind
from ..lang.itree import (
    ChooseAction,
    Crashed,
    ErrAction,
    FailAction,
    FenceAction,
    ReadAction,
    RetAction,
    RmwAction,
    SyscallAction,
    TauAction,
    ThreadState,
    WriteAction,
)
from ..lang.values import UNDEF, Value
from ..util.fmap import FrozenMap
from .memory import AnyMessage, Memory, Message, NAMessage
from .view import View, fresh_between, join_opt


@dataclass(frozen=True)
class PsConfig:
    """Budgets and feature switches for bounded PS^na exploration."""

    values: tuple[int, ...] = (0, 1)
    promise_budget: int = 1
    allow_promises: bool = True
    allow_lower: bool = True
    allow_na_intermediates: bool = True  # App B ablation: multi-message na
    allow_na_message_promises: bool = True
    allow_fresh_na_race_messages: bool = False
    promise_undef_values: bool = True
    cert_depth: int = 64
    cert_promises: bool = False
    # PS2-style capped certification: during certification, RMWs may not
    # attach to a location's maximal message (the cap reserves it), so a
    # promise cannot rely on winning a future RMW.  Without this, a thread
    # could promise based on a CAS success that another thread then takes
    # away, leaving a stranded racy message (breaking DRF guarantees).
    capped_certification: bool = True
    certifying: bool = False  # internal: set during certification runs
    max_states: int = 200_000
    max_depth: int = 400
    # Performance-layer switches.  Both are semantics-preserving (tests
    # assert behavior equality with them off): with the key cache off,
    # states dedup on the structural key (canonical_key with no cache),
    # and with the cert cache off every certification searches afresh.
    # The switches exist for ablation benchmarks and cache-transparency
    # tests.
    enable_cert_cache: bool = True
    enable_key_cache: bool = True

    def promise_values(self) -> tuple[Value, ...]:
        if self.promise_undef_values:
            return self.values + (UNDEF,)
        return self.values


@dataclass(frozen=True)
class ThreadLts:
    """``T = ⟨σ, V, P⟩`` plus fence bookkeeping and promise budget.

    ``rel_views`` mirrors the full promising model's per-location release
    view ``tview.rel``: it records, for each location this thread has
    release-written, the view of that release.  A later relaxed write to
    the same location by this thread attaches that view to its message —
    the same-thread *release sequence* of C11.  ``rel_view`` is the
    release-fence analogue (applies to every location).
    """

    program: ThreadState
    view: View = View()
    promises: frozenset[AnyMessage] = frozenset()
    acq_pending: Optional[View] = None   # fence extension: deferred views
    rel_view: Optional[View] = None      # fence extension: pinned rel view
    rel_views: FrozenMap = FrozenMap()   # per-location release views
    promise_budget: int = 0
    promise_locs: tuple[str, ...] = ()

    def is_terminated(self) -> bool:
        return isinstance(self.program.peek(), RetAction)

    def is_bottom(self) -> bool:
        return isinstance(self.program.peek(), ErrAction)

    def return_value(self) -> Value:
        return self.program.return_value()

    # Thread states are hashed constantly (certification ``seen`` sets,
    # machine-state hashing, cache keys); the dataclass-generated hash
    # re-walks every field each call.  Cache it — all fields are
    # immutable.  The cached value is process-local (string hashes are
    # randomized per process), so it is dropped on pickling.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.program, self.view, self.promises,
                           self.acq_pending, self.rel_view, self.rel_views,
                           self.promise_budget, self.promise_locs))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def evolve(self, **changes) -> "ThreadLts":
        """``dataclasses.replace`` without the per-call field
        introspection — the stepper's hottest allocation site."""
        return ThreadLts(
            changes.get("program", self.program),
            changes.get("view", self.view),
            changes.get("promises", self.promises),
            changes.get("acq_pending", self.acq_pending),
            changes.get("rel_view", self.rel_view),
            changes.get("rel_views", self.rel_views),
            changes.get("promise_budget", self.promise_budget),
            changes.get("promise_locs", self.promise_locs))


def is_racy(view: View, promises: frozenset[AnyMessage], memory: Memory,
            loc: str, non_atomic: bool) -> bool:
    """The ``race-helper`` premise of Fig 5.

    ``⟨V, P, M⟩`` is racy on ``x`` with mode ``o`` if the thread is
    unaware of some message of ``x`` not among its own promises — for
    atomic accesses (``o ≠ na``) only valueless NA messages count.
    """
    known = view.get(loc)
    for message in memory.at(loc):
        if message in promises:
            continue
        if known < message.ts:
            if non_atomic or isinstance(message, NAMessage):
                return True
    return False


def _promise_condition(thread: ThreadLts) -> bool:
    """``∀m ∈ P. V(m.loc) < m.t`` — required by racy-write and fail."""
    return all(thread.view.get(m.loc) < m.ts for m in thread.promises)


@dataclass(frozen=True)
class ThreadStep:
    """One thread configuration step: tag (for inspection) + successors."""

    tag: str
    thread: ThreadLts
    memory: Memory


#: Every thread-level transition rule of PS^na (Fig 5 plus the Coq-dev
#: extensions), keyed by the :class:`ThreadStep` tag it fires as.  The
#: semantic-coverage layer (:mod:`repro.obs.coverage`) treats each entry
#: as a stable rule ID ``psna.thread.<tag>`` and reports rules that a
#: workload never exercised.
THREAD_RULE_TAGS: tuple[str, ...] = (
    "silent", "fail", "choose", "read", "racy-read", "write", "fulfill",
    "racy-write", "write+namsg", "rmw", "racy-rmw", "fence-acq",
    "fence-rel", "syscall", "promise", "lower",
)

_RULE_COUNTERS = {tag: f"rule.psna.thread.{tag}" for tag in THREAD_RULE_TAGS}


def thread_steps(thread: ThreadLts, memory: Memory,
                 config: PsConfig) -> Iterator[ThreadStep]:
    """Enumerate thread configuration steps ``⟨T, M⟩ −→ ⟨T', M'⟩``.

    When an observability session is active, every enumerated step also
    fires its rule counter (``rule.psna.thread.<tag>``) — the raw data of
    the semantic-coverage report.  The disabled path pays one ``None``
    check per call and nothing per step.
    """
    registry = obs.metrics()
    if registry is None:
        yield from _thread_steps(thread, memory, config)
        return
    counters = _RULE_COUNTERS
    for step in _thread_steps(thread, memory, config):
        registry.inc(counters[step.tag])
        yield step


def _thread_steps(thread: ThreadLts, memory: Memory,
                  config: PsConfig) -> Iterator[ThreadStep]:
    action = thread.program.peek()

    if isinstance(action, (RetAction, ErrAction)):
        return

    if isinstance(action, TauAction):
        yield ThreadStep("silent",
                         thread.evolve(program=thread.program.resume(None)),
                         memory)

    elif isinstance(action, FailAction):
        if _promise_condition(thread):
            yield ThreadStep(
                "fail",
                thread.evolve(program=Crashed(), promises=frozenset()),
                memory)

    elif isinstance(action, ChooseAction):
        for value in config.values:
            yield ThreadStep(
                "choose",
                thread.evolve(program=thread.program.resume(value)),
                memory)

    elif isinstance(action, ReadAction):
        yield from _read_steps(thread, memory, action.loc, action.mode)

    elif isinstance(action, WriteAction):
        yield from _write_steps(thread, memory, action.loc, action.value,
                                action.mode, config)

    elif isinstance(action, RmwAction):
        yield from _rmw_steps(thread, memory, action, config)

    elif isinstance(action, FenceAction):
        yield from _fence_steps(thread, memory, action.kind)

    elif isinstance(action, SyscallAction):
        # Recorded by the machine; the thread just advances.
        yield ThreadStep("syscall",
                         thread.evolve(program=thread.program.resume(None)),
                         memory)
    else:  # pragma: no cover - exhaustive over Action
        raise TypeError(f"unknown action {action!r}")

    # Steps available regardless of the pending action ----------------------
    if isinstance(action, (RetAction, ErrAction)):
        return
    yield from _promise_steps(thread, memory, config)
    yield from _lower_steps(thread, memory, config)


def _read_steps(thread: ThreadLts, memory: Memory, loc: str,
                mode) -> Iterator[ThreadStep]:
    for message in memory.proper_at(loc):
        if thread.view.get(loc) > message.ts:
            continue
        view = thread.view.join(View.singleton(loc, message.ts))
        acq_pending = thread.acq_pending
        if mode is ACQ:
            view = view.join(message.view)
        else:
            acq_pending = join_opt(acq_pending, message.view)
        yield ThreadStep(
            "read",
            thread.evolve(
                    program=thread.program.resume(message.value),
                    view=view, acq_pending=acq_pending),
            memory)
    if is_racy(thread.view, thread.promises, memory, loc,
               non_atomic=mode is NA):
        yield ThreadStep(
            "racy-read",
            thread.evolve(program=thread.program.resume(UNDEF)),
            memory)


def _write_steps(thread: ThreadLts, memory: Memory, loc: str, value: Value,
                 mode, config: PsConfig) -> Iterator[ThreadStep]:
    current = thread.view.get(loc)

    if mode is NA:
        yield from _na_write_steps(thread, memory, loc, value, config)
    elif mode is RLX:
        # Same-thread release sequence: the message carries the view of
        # this thread's latest release to ``loc`` (and of a release
        # fence, if any) — readers acquiring it synchronize with that
        # release.
        base_view = thread.rel_views.get(loc)
        if thread.rel_view is not None:
            base_view = (thread.rel_view if base_view is None
                         else base_view.join(thread.rel_view))
        # fresh message
        for ts in memory.fresh_slots(loc, current):
            msg_view = View.singleton(loc, ts)
            if base_view is not None:
                msg_view = msg_view.join(base_view)
            message = Message(loc, ts, value, msg_view)
            yield ThreadStep(
                "write",
                thread.evolve(
                        program=thread.program.resume(None),
                        view=thread.view.set(loc, ts)),
                memory.add(message))
        # fulfill an existing promise
        for promise in thread.promises:
            if (isinstance(promise, Message) and promise.loc == loc
                    and promise.ts > current and promise.value == value
                    and promise.view == View.singleton(loc, promise.ts)):
                yield ThreadStep(
                    "fulfill",
                    thread.evolve(
                            program=thread.program.resume(None),
                            view=thread.view.set(loc, promise.ts),
                            promises=thread.promises - {promise}),
                    memory)
    else:
        assert mode is REL
        yield from _rel_write_steps(thread, memory, loc, value)

    # racy-write (any mode)
    if (is_racy(thread.view, thread.promises, memory, loc,
                non_atomic=mode is NA)
            and _promise_condition(thread)):
        yield ThreadStep(
            "racy-write",
            thread.evolve(program=Crashed(), promises=frozenset()),
            memory)


def _rel_write_steps(thread: ThreadLts, memory: Memory, loc: str,
                     value: Value) -> Iterator[ThreadStep]:
    current = thread.view.get(loc)

    def remaining_ok(promises: frozenset[AnyMessage]) -> bool:
        return all(m.view is None for m in promises
                   if isinstance(m, Message) and m.loc == loc)

    for ts in memory.fresh_slots(loc, current):
        view = thread.view.set(loc, ts)
        if remaining_ok(thread.promises):
            yield ThreadStep(
                "write",
                thread.evolve(program=thread.program.resume(None),
                        view=view,
                        rel_views=thread.rel_views.set(loc, view)),
                memory.add(Message(loc, ts, value, view)))
    for promise in thread.promises:
        if (isinstance(promise, Message) and promise.loc == loc
                and promise.ts > current and promise.value == value):
            view = thread.view.set(loc, promise.ts)
            if promise.view == view and remaining_ok(
                    thread.promises - {promise}):
                yield ThreadStep(
                    "fulfill",
                    thread.evolve(program=thread.program.resume(None),
                            view=view,
                            rel_views=thread.rel_views.set(loc, view),
                            promises=thread.promises - {promise}),
                    memory)


def _na_write_steps(thread: ThreadLts, memory: Memory, loc: str,
                    value: Value, config: PsConfig) -> Iterator[ThreadStep]:
    """``(write)`` with ``o_W = na`` via ``memory: na-write``.

    The final message has bottom view; before it, the thread may fulfill
    any subset of its own promises to the same location whose timestamps
    lie strictly between ``V(x)`` and the final timestamp, and may insert
    a fresh valueless NA message (when enabled).
    """
    current = thread.view.get(loc)

    def emit(final_ts, promises, extra_memory, tag):
        program = thread.program.resume(None)
        yield ThreadStep(
            tag,
            thread.evolve(program=program,
                    view=thread.view.set(loc, final_ts),
                    promises=promises),
            extra_memory)

    own = [m for m in thread.promises if m.loc == loc]

    def intermediate_choices(final_ts):
        """Subsets of own promises fulfillable strictly below final_ts."""
        if not config.allow_na_intermediates:
            yield frozenset()
            return
        eligible = [m for m in own if current < m.ts < final_ts]
        for size in range(len(eligible) + 1):
            for subset in itertools.combinations(eligible, size):
                yield frozenset(subset)

    # fresh final message
    for ts in memory.fresh_slots(loc, current):
        new_memory = memory.add(Message(loc, ts, value, None))
        for fulfilled in intermediate_choices(ts):
            promises = thread.promises - fulfilled
            yield from emit(ts, promises, new_memory, "write")
        if config.allow_fresh_na_race_messages:
            for na_ts in memory.fresh_slots(loc, current):
                if na_ts >= ts:
                    continue
                yield from emit(
                    ts, thread.promises,
                    memory.add(NAMessage(loc, na_ts)).add(
                        Message(loc, ts, value, None)),
                    "write+namsg")
    # fulfill an own bottom-view promise as the final message
    for promise in own:
        if (isinstance(promise, Message) and promise.ts > current
                and promise.value == value and promise.view is None):
            for fulfilled in intermediate_choices(promise.ts):
                promises = (thread.promises - fulfilled) - {promise}
                yield from emit(promise.ts, promises, memory, "fulfill")


def _rmw_steps(thread: ThreadLts, memory: Memory, action: RmwAction,
               config: PsConfig) -> Iterator[ThreadStep]:
    """Atomic updates (extension): read and write at adjacent timestamps."""
    loc = action.loc
    stamps = memory.timestamps(loc)
    for message in memory.proper_at(loc):
        if thread.view.get(loc) > message.ts:
            continue
        read_value = message.value
        if isinstance(action.op, type(None)):  # pragma: no cover
            continue
        from ..lang.itree import CasOp

        if isinstance(action.op, CasOp) and read_value != action.op.expected:
            continue  # failing CAS is a plain read; front ends emit those
        write_value = action.op.apply(read_value)
        above = [ts for ts in stamps if ts > message.ts]
        if (config.certifying and config.capped_certification
                and not above):
            continue  # the certification cap reserves the maximal slot
        write_ts = fresh_between(message.ts, above[0] if above else None)
        if memory.blocked(loc, write_ts):
            continue  # another RMW already attached to this message
        view = thread.view.join(View.singleton(loc, write_ts))
        if action.read_mode is ACQ:
            view = view.join(message.view)
        msg_view = View.singleton(loc, write_ts)
        if action.write_mode is REL:
            msg_view = view.join(msg_view)
        else:
            msg_view = msg_view.join(message.view)  # release sequence
        if action.write_mode is REL and not all(
                m.view is None for m in thread.promises
                if isinstance(m, Message) and m.loc == loc):
            continue
        yield ThreadStep(
            "rmw",
            thread.evolve(
                    program=thread.program.resume(read_value),
                    view=view),
            memory.add(Message(loc, write_ts, write_value, msg_view,
                               attach=message.ts)))
    if is_racy(thread.view, thread.promises, memory, loc, non_atomic=False) \
            and _promise_condition(thread):
        yield ThreadStep(
            "racy-rmw",
            thread.evolve(program=Crashed(), promises=frozenset()),
            memory)


def _fence_steps(thread: ThreadLts, memory: Memory,
                 kind: FenceKind) -> Iterator[ThreadStep]:
    if kind is FenceKind.ACQ:
        view = thread.view.join(thread.acq_pending)
        yield ThreadStep(
            "fence-acq",
            thread.evolve(program=thread.program.resume(None), view=view,
                    acq_pending=None),
            memory)
    elif kind is FenceKind.REL:
        if all(m.view is None for m in thread.promises
               if isinstance(m, Message)):
            yield ThreadStep(
                "fence-rel",
                thread.evolve(program=thread.program.resume(None),
                        rel_view=thread.view),
                memory)
    # SC fences are interpreted by the machine (they need the global view).


def _promise_steps(thread: ThreadLts, memory: Memory,
                   config: PsConfig) -> Iterator[ThreadStep]:
    if not config.allow_promises or thread.promise_budget <= 0:
        return
    budget = thread.promise_budget - 1
    for loc in thread.promise_locs:
        for ts in memory.fresh_slots(loc, thread.view.get(loc)):
            candidates: list[AnyMessage] = []
            for value in config.promise_values():
                candidates.append(Message(loc, ts, value, None))
                candidates.append(
                    Message(loc, ts, value, View.singleton(loc, ts)))
            if config.allow_na_message_promises:
                candidates.append(NAMessage(loc, ts))
            for message in candidates:
                yield ThreadStep(
                    "promise",
                    thread.evolve(
                            promises=thread.promises | {message},
                            promise_budget=budget),
                    memory.add(message))


def _lower_steps(thread: ThreadLts, memory: Memory,
                 config: PsConfig) -> Iterator[ThreadStep]:
    if not config.allow_lower:
        return
    for promise in thread.promises:
        if not isinstance(promise, Message):
            continue
        variants = []
        if promise.value is not UNDEF:
            variants.append(Message(promise.loc, promise.ts, UNDEF,
                                    promise.view))
        if promise.view is not None:
            variants.append(Message(promise.loc, promise.ts, promise.value,
                                    None))
        if promise.value is not UNDEF and promise.view is not None:
            variants.append(Message(promise.loc, promise.ts, UNDEF, None))
        for lowered in variants:
            yield ThreadStep(
                "lower",
                thread.evolve(
                        promises=(thread.promises - {promise}) | {lowered}),
                memory.replace(promise, lowered))
