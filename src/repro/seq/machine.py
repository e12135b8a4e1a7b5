"""The sequential permission machine SEQ (Fig 1).

A SEQ configuration ⟨σ, P, F, M⟩ couples a thread state σ with:

* ``P`` — the permission set: non-atomic locations that may be safely
  accessed (``x ∉ P`` means accesses to ``x`` are racy);
* ``F`` — the written-locations set since the last release;
* ``M`` — a memory valuation for the non-atomic locations.

Transitions follow Fig 1.  Non-atomic accesses and silent steps are
unlabeled; ``choose``/relaxed accesses and acquire/release operations are
labeled.  Acquire reads non-deterministically gain permissions (with new
values), release writes non-deterministically lose permissions — this is
the machine's abstraction of "any possible interaction with the concurrent
environment".

Non-determinism is enumerated over a finite :class:`SeqUniverse` of
locations and values, which makes behavior sets finite up to a step bound
and refinement checking decidable for litmus-scale programs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .. import obs
from ..lang.ast import Stmt, constant_values, nonatomic_locations
from ..lang.interp import WhileThread
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
from ..lang.events import ACQ, NA, REL, RLX, FenceKind
from ..lang.values import UNDEF, Value
from ..util.fmap import FrozenMap
from .labels import (
    AcqFenceLabel,
    AcqReadLabel,
    ChooseLabel,
    RelFenceLabel,
    RelWriteLabel,
    RlxReadLabel,
    RlxWriteLabel,
    SeqLabel,
    SyscallLabel,
)


class SeqUnsupportedError(NotImplementedError):
    """Raised for features outside SEQ's fragment (RMWs, SC fences).

    The Coq development covers these; this reproduction supports them in
    PS^na but keeps SEQ to the paper's presented fragment plus
    acquire/release fences.
    """


@dataclass(frozen=True)
class SeqUniverse:
    """Finite universes used to enumerate SEQ's non-determinism.

    ``na_locs`` — the non-atomic locations tracked in ``P``/``F``/``M``.
    ``values`` — defined values the environment may supply.
    ``env_undef`` — whether the environment may supply ``undef`` (for
    relaxed read results and acquire-gained memory), as PS^na permits via
    lowered promises.
    """

    na_locs: tuple[str, ...]
    values: tuple[int, ...] = (0, 1)
    env_undef: bool = True
    max_gain: Optional[int] = None  # cap on |P' \ P| per acquire, None = all

    def env_values(self) -> tuple[Value, ...]:
        if self.env_undef:
            return self.values + (UNDEF,)
        return self.values

    def gain_choices(self, perms: frozenset[str]) -> Iterator[frozenset[str]]:
        """All ``P' ⊇ P`` over the location universe."""
        candidates = [loc for loc in self.na_locs if loc not in perms]
        limit = len(candidates) if self.max_gain is None else self.max_gain
        for size in range(min(len(candidates), limit) + 1):
            for gained in itertools.combinations(candidates, size):
                yield perms | frozenset(gained)

    def drop_choices(self, perms: frozenset[str]) -> Iterator[frozenset[str]]:
        """All ``P' ⊆ P``."""
        current = sorted(perms)
        for size in range(len(current) + 1):
            for kept in itertools.combinations(current, size):
                yield frozenset(kept)

    def value_maps(self, locs: tuple[str, ...]) -> Iterator[FrozenMap]:
        """All assignments ``V : locs -> env values``."""
        options = self.env_values()
        for combo in itertools.product(options, repeat=len(locs)):
            yield FrozenMap.of(dict(zip(locs, combo)))


def universe_for(*programs: Stmt, extra_values: tuple[int, ...] = (0, 1),
                 extra_locs: tuple[str, ...] = (),
                 env_undef: bool = True) -> SeqUniverse:
    """Derive a universe covering the given programs.

    Uses the non-atomic locations and integer constants occurring
    syntactically, plus the supplied slack.  The checkers are exact for
    this universe; enlarging it can only refine verdicts.
    """
    locs: set[str] = set(extra_locs)
    values: set[int] = set(extra_values)
    for program in programs:
        locs |= nonatomic_locations(program)
        values |= constant_values(program)
    return SeqUniverse(tuple(sorted(locs)), tuple(sorted(values)),
                       env_undef=env_undef)


@dataclass(frozen=True)
class SeqConfig:
    """A SEQ machine state ⟨σ, P, F, M⟩."""

    thread: ThreadState
    perms: frozenset[str]
    written: frozenset[str]
    memory: FrozenMap

    @staticmethod
    def initial(program: Stmt | ThreadState,
                perms: frozenset[str] | set[str],
                memory: dict[str, Value] | FrozenMap,
                written: frozenset[str] | set[str] = frozenset()) -> "SeqConfig":
        thread = (WhileThread.start(program) if isinstance(program, Stmt)
                  else program)
        mem = memory if isinstance(memory, FrozenMap) else FrozenMap.of(memory)
        return SeqConfig(thread, frozenset(perms), frozenset(written), mem)

    def is_bottom(self) -> bool:
        return isinstance(self.thread.peek(), ErrAction)

    def is_terminated(self) -> bool:
        return isinstance(self.thread.peek(), RetAction)

    def __repr__(self) -> str:
        return (f"⟨{self.thread.peek()!r}, P={set(self.perms) or '{}'}, "
                f"F={set(self.written) or '{}'}, M={self.memory}⟩")


_BOTTOM_THREAD = Crashed()


#: Every SEQ transition rule of Fig 1 (plus the fence extension), as
#: stable rule IDs ``seq.machine.<tag>`` for the semantic-coverage layer.
SEQ_RULE_TAGS: tuple[str, ...] = (
    "silent", "fail", "choose", "na-read", "racy-na-read", "na-write",
    "racy-na-write", "rlx-read", "rlx-write", "acq-read", "rel-write",
    "acq-fence", "rel-fence", "syscall",
)


def classify_seq_step(cfg: SeqConfig, action,
                      label: Optional[SeqLabel]) -> str:
    """The Fig 1 rule tag of one transition ``cfg --label--> _``.

    The pending ``action`` plus the permission set decides the rule; the
    label alone cannot (non-atomic accesses, silent steps, and program
    failure are all unlabeled).
    """
    if isinstance(action, TauAction):
        return "silent"
    if isinstance(action, FailAction):
        return "fail"
    if isinstance(action, ChooseAction):
        return "choose"
    if isinstance(action, ReadAction):
        if action.mode is NA:
            return ("na-read" if action.loc in cfg.perms
                    else "racy-na-read")
        return "rlx-read" if action.mode is RLX else "acq-read"
    if isinstance(action, WriteAction):
        if action.mode is NA:
            return ("na-write" if action.loc in cfg.perms
                    else "racy-na-write")
        return "rlx-write" if action.mode is RLX else "rel-write"
    if isinstance(action, FenceAction):
        return "acq-fence" if action.kind is FenceKind.ACQ else "rel-fence"
    assert isinstance(action, SyscallAction)
    return "syscall"


_SEQ_RULE_COUNTERS = {tag: f"rule.seq.machine.{tag}"
                      for tag in SEQ_RULE_TAGS}


def seq_steps(cfg: SeqConfig,
              universe: SeqUniverse) -> Iterator[tuple[Optional[SeqLabel],
                                                       SeqConfig]]:
    """Enumerate all SEQ transitions from ``cfg`` (Fig 1).

    Yields ``(label, successor)`` pairs; ``label`` is ``None`` for
    unlabeled transitions (silent steps and non-atomic accesses).  With
    an active observability session every enumerated transition fires its
    ``rule.seq.machine.*`` counter as the caller consumes it; the
    disabled path pays a single ``None`` check.  The refinement game
    enumerates each configuration once through :func:`seq_transitions`
    and replays its table with the same counters.
    """
    registry = obs.metrics()
    if registry is None:
        yield from _seq_steps(cfg, universe)
        return
    action = cfg.thread.peek()
    for label, successor in _seq_steps(cfg, universe):
        registry.inc(_SEQ_RULE_COUNTERS[classify_seq_step(cfg, action,
                                                          label)])
        yield label, successor


def seq_transitions(cfg: SeqConfig, universe: SeqUniverse,
                    ) -> tuple[tuple[tuple[Optional[SeqLabel], SeqConfig],
                                     ...], tuple[str, ...]]:
    """All of :func:`seq_steps` at once, uncounted: the ``(label,
    successor)`` pairs in generator order, and the ``rule.seq.machine.*``
    counter each one fires."""
    steps = tuple(_seq_steps(cfg, universe))
    action = cfg.thread.peek()
    return steps, tuple(
        _SEQ_RULE_COUNTERS[classify_seq_step(cfg, action, label)]
        for label, _successor in steps)


def _seq_steps(cfg: SeqConfig,
               universe: SeqUniverse) -> Iterator[tuple[Optional[SeqLabel],
                                                        SeqConfig]]:
    action = cfg.thread.peek()

    if isinstance(action, (RetAction, ErrAction)):
        return  # terminal

    if isinstance(action, FailAction):
        # Program-level UB: silently reach ⊥ (the behavior then reads ⊥).
        yield None, replace(cfg, thread=cfg.thread.resume(None))
        return

    if isinstance(action, TauAction):
        yield None, replace(cfg, thread=cfg.thread.resume(None))
        return

    if isinstance(action, ChooseAction):
        for value in universe.values:
            yield (ChooseLabel(value),
                   replace(cfg, thread=cfg.thread.resume(value)))
        return

    if isinstance(action, ReadAction):
        if action.mode is NA:
            if action.loc not in universe.na_locs:
                raise ValueError(
                    f"non-atomic location {action.loc!r} missing from the "
                    f"universe {universe.na_locs}")
            if action.loc in cfg.perms:
                value = cfg.memory[action.loc]  # (na-read)
            else:
                value = UNDEF  # (racy-na-read)
            yield None, replace(cfg, thread=cfg.thread.resume(value))
            return
        if action.mode is RLX:
            for value in universe.env_values():
                yield (RlxReadLabel(action.loc, value),
                       replace(cfg, thread=cfg.thread.resume(value)))
            return
        assert action.mode is ACQ
        for value in universe.env_values():
            thread = cfg.thread.resume(value)
            yield from _acquire_steps(
                cfg, universe,
                lambda perms_after, gained, label_written:
                AcqReadLabel(action.loc, value, cfg.perms, perms_after,
                             label_written, gained),
                thread)
        return

    if isinstance(action, WriteAction):
        if action.mode is NA:
            if action.loc not in universe.na_locs:
                raise ValueError(
                    f"non-atomic location {action.loc!r} missing from the "
                    f"universe {universe.na_locs}")
            if action.loc in cfg.perms:  # (na-write)
                yield None, SeqConfig(
                    cfg.thread.resume(None),
                    cfg.perms,
                    cfg.written | {action.loc},
                    cfg.memory.set(action.loc, action.value),
                )
            else:  # (racy-na-write): UB
                yield None, replace(cfg, thread=_BOTTOM_THREAD)
            return
        if action.mode is RLX:
            yield (RlxWriteLabel(action.loc, action.value),
                   replace(cfg, thread=cfg.thread.resume(None)))
            return
        assert action.mode is REL
        released = cfg.memory.restrict(cfg.perms)  # V = M|P
        thread = cfg.thread.resume(None)
        for perms_after in universe.drop_choices(cfg.perms):
            yield (RelWriteLabel(action.loc, action.value, cfg.perms,
                                 perms_after, cfg.written, released),
                   SeqConfig(thread, perms_after, frozenset(), cfg.memory))
        return

    if isinstance(action, FenceAction):
        if action.kind is FenceKind.ACQ:
            thread = cfg.thread.resume(None)
            yield from _acquire_steps(
                cfg, universe,
                lambda perms_after, gained, label_written:
                AcqFenceLabel(cfg.perms, perms_after, label_written, gained),
                thread)
            return
        if action.kind is FenceKind.REL:
            released = cfg.memory.restrict(cfg.perms)
            thread = cfg.thread.resume(None)
            for perms_after in universe.drop_choices(cfg.perms):
                yield (RelFenceLabel(cfg.perms, perms_after, cfg.written,
                                     released),
                       SeqConfig(thread, perms_after, frozenset(),
                                 cfg.memory))
            return
        raise SeqUnsupportedError(
            "SC fences are outside SEQ's fragment in this reproduction "
            "(supported by PS^na)")

    if isinstance(action, SyscallAction):
        yield (SyscallLabel(action.name, action.value),
               replace(cfg, thread=cfg.thread.resume(None)))
        return

    if isinstance(action, RmwAction):
        raise SeqUnsupportedError(
            "RMWs are outside SEQ's presented fragment in this reproduction "
            "(supported by PS^na)")

    raise TypeError(f"unknown action {action!r}")


def _acquire_steps(cfg: SeqConfig, universe: SeqUniverse, make_label,
                   thread: ThreadState) -> Iterator[tuple[SeqLabel,
                                                          SeqConfig]]:
    """Shared enumeration for acquire reads and acquire fences."""
    for perms_after in universe.gain_choices(cfg.perms):
        gained_locs = tuple(sorted(perms_after - cfg.perms))
        for gained in universe.value_maps(gained_locs):
            memory = cfg.memory.update(gained.as_dict())
            yield (make_label(perms_after, gained, cfg.written),
                   SeqConfig(thread, perms_after, cfg.written, memory))


def unlabeled_closure(configs: frozenset[SeqConfig], universe: SeqUniverse,
                      max_states: int = 10_000) -> tuple[frozenset[SeqConfig],
                                                         bool]:
    """All configs reachable via unlabeled steps, plus a completeness bit.

    The closure includes the given configs.  Unlabeled steps are silent
    steps and non-atomic accesses (including racy ones), so a source
    program may, e.g., perform extra non-atomic writes while matching a
    target trace.
    """
    seen: set[SeqConfig] = set(configs)
    stack = list(configs)
    complete = True
    with obs.span("seq.closure"):
        while stack:
            if len(seen) > max_states:
                complete = False
                break
            current = stack.pop()
            if current.is_bottom() or current.is_terminated():
                continue
            for label, successor in seq_steps(current, universe):
                if label is None and successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
    registry = obs.metrics()
    if registry is not None:
        registry.inc("seq.closure.runs")
        registry.inc("seq.closure.states", len(seen))
        if not complete:
            registry.inc("seq.closure.incomplete")
    return frozenset(seen), complete
