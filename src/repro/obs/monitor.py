"""Runtime semantic invariant monitoring (``repro-monitor/1``).

The observability stack records *what* the machines did; this module
checks that what they did satisfies the invariants the paper's proofs
rest on, while they do it.  A :class:`Monitor` is attached to the
observability session (``--monitor[=strict|sample:N]`` on every CLI
subcommand) and hands out per-run :class:`MonitorProbe` objects to the
instrumented engines:

* **PS^na** (:mod:`repro.psna.explore` / :mod:`repro.psna.machine`) —
  memory coherence (per-location timestamp uniqueness, RMW-interval
  disjointness), thread-view monotonicity along every machine step,
  views bounded by the memory frontier (every view timestamp names a
  live message), promise sets that shrink only by fulfillment, and a
  *freeze probe*: whenever a ``choose`` step resolves a frozen ``undef``
  while the thread still holds promises, certification is re-run
  uncached and must still succeed.
* **Caches** — a sampled divergence oracle re-executes a configurable
  fraction of ``CertCache`` hits (uncached certification must agree with
  the memoized verdict) and of canonical-key productions (``KeyCache``
  keys must equal a from-scratch canonicalization).
* **SEQ** (:mod:`repro.seq.refinement`) — frontier consistency (visited
  game states carry nonempty frontiers with well-formed commitment
  sets) and simulation-step sanity (a label step's closed frontier
  contains the matched source items it was closed from).
* **opt** (:mod:`repro.opt.pipeline`) — per-pass record consistency
  (recorded AST sizes match ``node_count``, verdicts only exist for
  passes that changed the program).

Checking disciplines: ``strict`` checks every transition (cache
divergence still sampled, 1 in :data:`DEFAULT_DIVERGENCE_STRIDE`);
``sample:N`` checks every Nth transition and re-executes 1 in N cache
hits — ``sample:1`` therefore turns the divergence oracle all the way
up, the bisection mode for a suspected cache bug.

On a violation the monitor captures the offending state plus the
``rule.*`` trail from the events layer, emits a ``monitor.violation``
event on the live stream, and bumps ``monitor.violation.*`` counters.
Statistics merge commutatively across ``--jobs`` workers (per-key sums;
witnesses are first-wins in descriptor order), so the rendered table is
byte-identical across ``--jobs`` values — the ``--graph-stats``
discipline.

Every invariant class is *injectable* (:func:`inject_violation`): a
corrupted synthetic observation, built from real data structures, is
fed through the same check function the live hooks use — the canary
that proves each detector actually fires, mirroring
``fuzz --inject-bug``.  Violations on ``repro explore`` additionally
feed the triggering composition through the fuzz ddmin shrinker
(:func:`shrink_violation`) into a regression-corpus candidate under
``corpus/monitor/``.

This module deliberately imports nothing from the machine packages at
module level (they import :mod:`repro.obs` themselves); every semantic
import is deferred to call time.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

MONITOR_SCHEMA = "repro-monitor/1"

#: ``strict`` mode re-executes one in this many cache hits uncached.
DEFAULT_DIVERGENCE_STRIDE = 8

#: Where :func:`shrink_violation` writes regression-corpus candidates.
DEFAULT_MONITOR_CORPUS = os.path.join("corpus", "monitor")

#: Longest state repr kept in a violation witness.
_WITNESS_CLIP = 400

#: The declarative invariant registry: id -> what must hold.
INVARIANTS: dict[str, str] = {
    "psna.memory.unique-timestamps":
        "every (location, timestamp) pair names at most one message",
    "psna.memory.interval-disjoint":
        "no message lies strictly inside an RMW-occupied interval",
    "psna.view.monotonic":
        "thread views and the SC view only grow along machine steps",
    "psna.view.in-memory":
        "every view timestamp names a message present in memory",
    "psna.promise.subset-memory":
        "outstanding promises are a subset of memory",
    "psna.promise.shrink":
        "promise sets shrink except by promise/lower steps",
    "psna.cert.fulfillable":
        "certified states can fulfill their promises (freeze probe)",
    "cache.cert-divergence":
        "CertCache hits agree with uncached certification",
    "cache.store-divergence":
        "persistent cert-store hits agree with uncached certification",
    "cache.key-divergence":
        "KeyCache keys agree with uncached canonicalization",
    "seq.frontier.consistent":
        "game frontiers are nonempty with well-formed commitments",
    "seq.simulation.step":
        "label steps close over their matched source items",
    "opt.pass.consistent":
        "pass records agree with AST sizes and verdict gating",
}

#: Thread-step tags that may *grow* the promise set (by exactly one).
_PROMISE_GROW_TAGS = frozenset({"promise"})

#: Thread-step tags that replace one promise in place (same loc/ts).
_PROMISE_REPLACE_TAGS = frozenset({"lower"})


def parse_monitor_spec(spec) -> tuple[str, int]:
    """Parse a ``--monitor`` value into ``(mode, stride)``.

    ``"strict"`` (or ``None``/``True``, the bare-flag forms) checks
    every transition; ``"sample:N"`` checks every Nth.
    """
    if spec in (None, True, "", "strict"):
        return "strict", 1
    if isinstance(spec, str) and spec.startswith("sample:"):
        try:
            stride = int(spec[len("sample:"):])
        except ValueError:
            stride = 0
        if stride >= 1:
            return "sample", stride
    raise ValueError(
        f"bad monitor mode {spec!r}: expected 'strict' or 'sample:N'")


# ---------------------------------------------------------------------------
# Pure invariant checks
# ---------------------------------------------------------------------------
#
# Each check is a pure function of its observation returning None (the
# invariant holds) or a deterministic one-line detail string.  The live
# probes and the injected-violation canaries go through the *same*
# functions, so a canary that fires proves the production detector
# works.


def check_unique_timestamps(memory) -> Optional[str]:
    """``psna.memory.unique-timestamps``."""
    seen = set()
    for message in memory.messages:
        key = (message.loc, message.ts)
        if key in seen:
            return (f"duplicate timestamp "
                    f"{message.loc}@{Fraction(message.ts)}")
        seen.add(key)
    return None


def check_interval_disjoint(memory) -> Optional[str]:
    """``psna.memory.interval-disjoint``."""
    messages = sorted(memory.messages, key=lambda m: (m.loc, m.ts))
    for message in messages:
        attach = getattr(message, "attach", None)
        if attach is None:
            continue
        interval = f"({Fraction(attach)}, {Fraction(message.ts)}]"
        if not attach < message.ts:
            return f"empty RMW interval {interval} at {message.loc}"
        for other in messages:
            if (other is not message and other.loc == message.loc
                    and attach < other.ts < message.ts):
                return (f"message {other.loc}@{Fraction(other.ts)} "
                        f"inside RMW interval {interval}")
    return None


def check_view_monotonic(prev_state, state, thread_index: int,
                         ) -> Optional[str]:
    """``psna.view.monotonic`` for the thread that stepped."""
    before = prev_state.threads[thread_index].view
    after = state.threads[thread_index].view
    if not before.leq(after):
        return (f"thread {thread_index} view shrank: "
                f"{before!r} -> {after!r}")
    if not prev_state.sc_view.leq(state.sc_view):
        return (f"SC view shrank: {prev_state.sc_view!r} -> "
                f"{state.sc_view!r}")
    return None


def check_view_in_memory(state) -> Optional[str]:
    """``psna.view.in-memory``: views never outrun the memory frontier.

    Sound as an exact membership test: every view timestamp originates
    from a message at the same location, and messages are only ever
    replaced in place (same location and timestamp), never deleted.
    """
    stamps = {(m.loc, m.ts) for m in state.memory.messages}

    def missing(view) -> Optional[str]:
        if view is None:
            return None
        for loc, ts in view.items:
            if (loc, ts) not in stamps:
                return f"{loc}@{Fraction(ts)}"
        return None

    for index, thread in enumerate(state.threads):
        views = [thread.view, thread.acq_pending, thread.rel_view]
        views += [view for _loc, view in thread.rel_views.items]
        for view in views:
            lost = missing(view)
            if lost is not None:
                return (f"thread {index} view names {lost} "
                        f"with no such message in memory")
    lost = missing(state.sc_view)
    if lost is not None:
        return f"SC view names {lost} with no such message in memory"
    return None


def check_promises_in_memory(state) -> Optional[str]:
    """``psna.promise.subset-memory``."""
    for index, thread in enumerate(state.threads):
        for promise in thread.promises:
            if promise not in state.memory.messages:
                return (f"thread {index} promise {promise!r} "
                        f"is not in memory")
    return None


def check_promise_shrink(prev_state, state, thread_index: int,
                         tag: str) -> Optional[str]:
    """``psna.promise.shrink``: per-tag promise-set transition table.

    ``promise`` adds exactly one message; ``lower`` replaces one promise
    at the same location/timestamp; every other rule may only remove
    promises (fulfillment, or the clears performed by ``fail`` and the
    racy accesses).
    """
    before = prev_state.threads[thread_index].promises
    after = state.threads[thread_index].promises
    if tag in _PROMISE_GROW_TAGS:
        if len(after) == len(before) + 1 and before <= after:
            return None
        return (f"promise step did not add exactly one promise: "
                f"{len(before)} -> {len(after)}")
    if tag in _PROMISE_REPLACE_TAGS:
        if ({(m.loc, m.ts) for m in before}
                == {(m.loc, m.ts) for m in after}):
            return None
        return "lower step changed promise locations/timestamps"
    if after <= before:
        return None
    grown = next(iter(after - before))
    return f"promises grew under {tag!r}: gained {grown!r}"


def check_certified_promises(state, thread_index: int,
                             config) -> Optional[str]:
    """``psna.cert.fulfillable``: re-certify a machine-accepted state.

    The machine only yields successors whose stepping thread passed
    certification (possibly via the :class:`CertCache`); this probe
    re-runs the certification search *uncached* — the dedicated probe
    around ``freeze`` of promised-read registers.
    """
    from ..psna.machine import certifiable

    thread = state.threads[thread_index]
    if not thread.promises:
        return None
    if certifiable(thread, state.memory, config, None):
        return None
    return (f"thread {thread_index} was accepted with unfulfillable "
            f"promises {sorted(map(repr, thread.promises))}")


def check_cert_divergence(thread, memory, cached: bool,
                          config) -> Optional[str]:
    """``cache.cert-divergence``: a CertCache hit, re-executed uncached."""
    from ..psna.machine import certifiable

    fresh = certifiable(thread, memory, config, None)
    if fresh == cached:
        return None
    return (f"CertCache returned {cached}, uncached certification "
            f"says {fresh}")


def check_store_divergence(thread, memory, cached: bool,
                           config) -> Optional[str]:
    """``cache.store-divergence``: a persistent-store hit, re-executed
    uncached — the guard against stale or poisoned on-disk verdicts."""
    from ..psna.machine import certifiable

    fresh = certifiable(thread, memory, config, None)
    if fresh == cached:
        return None
    return (f"persistent cert store returned {cached}, uncached "
            f"certification says {fresh}")


def check_key_divergence(state, key, cache=None) -> Optional[str]:
    """``cache.key-divergence``: a produced key vs. a fresh one.

    Interned keys are decoded back to the structural form through the
    ``cache``'s interner first, so the comparison also exercises the
    encode/decode round-trip of :mod:`repro.psna.intern`.
    """
    from ..psna.intern import decode_state
    from ..psna.machine import canonical_key

    if isinstance(key, int):
        key = decode_state(key, cache.interner)
    if canonical_key(state) == key:
        return None
    return "KeyCache key differs from uncached canonicalization"


def check_frontier_consistent(frontier, advanced: bool) -> Optional[str]:
    """``seq.frontier.consistent`` for one visited game state.

    Empty frontiers are never pushed (they produce a counterexample
    instead), and simple mode keeps every commitment set empty.
    """
    if not frontier:
        return "visited game state carries an empty source frontier"
    for item in frontier:
        if not isinstance(item.commitments, frozenset):
            return (f"commitment set is "
                    f"{type(item.commitments).__name__}, not frozenset")
        if not advanced and item.commitments:
            return (f"simple-mode frontier item carries commitments "
                    f"{sorted(item.commitments)}")
    return None


def check_simulation_step(base_items, closed_frontier) -> Optional[str]:
    """``seq.simulation.step``: a closure contains what it closed over."""
    if not closed_frontier:
        return "label step pushed an empty closed frontier"
    if not frozenset(base_items) <= closed_frontier:
        return ("closed frontier lost matched source items "
                "(closure is not a superset of its base)")
    return None


def check_pass_record(record) -> Optional[str]:
    """``opt.pass.consistent`` for one optimizer pass record."""
    from ..lang.ast import node_count

    size_before = node_count(record.before)
    size_after = node_count(record.after)
    if record.size_before != size_before:
        return (f"pass {record.name!r}: recorded size_before "
                f"{record.size_before} != node_count {size_before}")
    if record.size_after != size_after:
        return (f"pass {record.name!r}: recorded size_after "
                f"{record.size_after} != node_count {size_after}")
    if record.verdict is not None and not record.changed:
        return (f"pass {record.name!r}: carries a verdict but did not "
                f"change the program")
    return None


# ---------------------------------------------------------------------------
# Monitor and probes
# ---------------------------------------------------------------------------


class Monitor:
    """Session-level invariant monitor: registry counters + witnesses.

    All aggregate state is per-invariant integer counters plus a
    first-wins witness per invariant, so worker snapshots merge
    commutatively (sums) and deterministically (witness merge follows
    descriptor order, the :mod:`repro.runner` discipline).
    """

    def __init__(self, mode: str = "strict", stride: int = 1) -> None:
        self.mode = mode
        self.stride = max(1, stride)
        self.divergence_stride = (DEFAULT_DIVERGENCE_STRIDE
                                  if mode == "strict" else self.stride)
        self.checks: dict[str, int] = {}
        self.violations: dict[str, int] = {}
        self.injected: dict[str, int] = {}
        self.witnesses: dict[str, dict] = {}

    @classmethod
    def from_spec(cls, spec) -> "Monitor":
        mode, stride = parse_monitor_spec(spec)
        return cls(mode, stride)

    @property
    def spec(self) -> str:
        """The ``--monitor`` spelling :meth:`from_spec` rebuilds this
        monitor's mode and stride from."""
        return "strict" if self.mode == "strict" else f"sample:{self.stride}"

    # -- probes ------------------------------------------------------------

    def probe(self, scope: str, config=None) -> "MonitorProbe":
        """A per-run probe; sampling counters reset per run so check
        counts are identical across serial and pooled execution."""
        return MonitorProbe(self, scope, config)

    # -- recording ---------------------------------------------------------

    def check(self, invariant_id: str, detail: Optional[str],
              scope: str = "", state=None) -> None:
        """Count one evaluated check; record a violation if it failed."""
        self.checks[invariant_id] = self.checks.get(invariant_id, 0) + 1
        if detail is not None:
            self.record(invariant_id, detail, scope=scope, state=state)

    def record(self, invariant_id: str, detail: str, scope: str = "",
               state=None, injected: bool = False) -> None:
        """One violation: counters, first-wins witness, live signals."""
        from .. import obs

        self.violations[invariant_id] = \
            self.violations.get(invariant_id, 0) + 1
        if injected:
            self.injected[invariant_id] = \
                self.injected.get(invariant_id, 0) + 1
        stream = obs.stream()
        if invariant_id not in self.witnesses:
            witness = {"invariant": invariant_id, "scope": scope,
                       "detail": detail, "injected": injected}
            if state is not None:
                witness["state"] = _clip(repr(state))
            if stream is not None:
                # The rule.* trail from the statespace/events layer:
                # the last rule any instrumented loop reported plus the
                # open span stack.
                witness["rule"] = stream.last_rule
                witness["spans"] = list(stream.span_stack)
            self.witnesses[invariant_id] = witness
        registry = obs.metrics()
        if registry is not None:
            registry.inc("monitor.violations")
            registry.inc(f"monitor.violation.{invariant_id}")
        if stream is not None:
            stream.emit("monitor.violation", invariant=invariant_id,
                        scope=scope, detail=detail, injected=injected,
                        last_rule=stream.last_rule)

    def pass_record(self, record) -> None:
        """The optimizer hook: check one :class:`PassRecord`."""
        self.check("opt.pass.consistent", check_pass_record(record),
                   scope="opt", state=getattr(record, "name", None))

    # -- aggregation -------------------------------------------------------

    def total_violations(self) -> int:
        return sum(self.violations.values())

    def violated_ids(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, count in self.violations.items()
                            if count))

    def snapshot(self) -> dict:
        """Picklable worker-side handoff (plain dicts of ints/strs)."""
        return {"mode": self.mode, "stride": self.stride,
                "checks": dict(self.checks),
                "violations": dict(self.violations),
                "injected": dict(self.injected),
                "witnesses": {name: dict(witness)
                              for name, witness in self.witnesses.items()}}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` in (commutative sums; the
        witness merge keeps the first arrival, which the runner delivers
        in descriptor order)."""
        for field in ("checks", "violations", "injected"):
            mine = getattr(self, field)
            for name, value in snapshot.get(field, {}).items():
                mine[name] = mine.get(name, 0) + value
        for name, witness in snapshot.get("witnesses", {}).items():
            self.witnesses.setdefault(name, dict(witness))


class MonitorProbe:
    """One run's checking hooks (one exploration, one game ``run()``).

    The engines hold the probe in a local and pay one ``None`` check
    when monitoring is off.  Sampling counters live on the probe, so a
    case produces identical check counts whether it runs in-process or
    in a pool worker.
    """

    __slots__ = ("monitor", "scope", "config", "stride",
                 "divergence_stride", "_step_tick", "_game_tick",
                 "_push_tick", "_cert_tick", "_key_tick", "_store_tick")

    def __init__(self, monitor: Monitor, scope: str, config=None) -> None:
        self.monitor = monitor
        self.scope = scope
        self.config = config
        self.stride = monitor.stride
        self.divergence_stride = monitor.divergence_stride
        self._step_tick = 0
        self._game_tick = 0
        self._push_tick = 0
        self._cert_tick = 0
        self._key_tick = 0
        self._store_tick = 0

    # -- PS^na -------------------------------------------------------------

    def machine_step(self, prev_state, info) -> None:
        """Check one labeled machine step (sampled by the stride)."""
        self._step_tick += 1
        if self._step_tick % self.stride:
            return
        monitor = self.monitor
        state = info.state
        scope = self.scope
        monitor.check("psna.memory.unique-timestamps",
                      check_unique_timestamps(state.memory),
                      scope=scope, state=state)
        monitor.check("psna.memory.interval-disjoint",
                      check_interval_disjoint(state.memory),
                      scope=scope, state=state)
        monitor.check("psna.view.monotonic",
                      check_view_monotonic(prev_state, state, info.thread),
                      scope=scope, state=state)
        monitor.check("psna.view.in-memory",
                      check_view_in_memory(state),
                      scope=scope, state=state)
        monitor.check("psna.promise.subset-memory",
                      check_promises_in_memory(state),
                      scope=scope, state=state)
        monitor.check("psna.promise.shrink",
                      check_promise_shrink(prev_state, state, info.thread,
                                           info.tag),
                      scope=scope, state=state)
        if (info.tag == "choose" and not state.bottom
                and state.threads[info.thread].promises
                and self.config is not None):
            # The freeze probe: internal nondeterminism was just
            # resolved under outstanding promises.
            monitor.check("psna.cert.fulfillable",
                          check_certified_promises(state, info.thread,
                                                   self.config),
                          scope=scope, state=state)

    def state_key(self, state, key, cache=None) -> None:
        """Sampled canonical-key divergence check (``cache`` supplies
        the interner that decodes integer-encoded keys)."""
        self._key_tick += 1
        if self._key_tick % self.divergence_stride:
            return
        self.monitor.check("cache.key-divergence",
                           check_key_divergence(state, key, cache),
                           scope=self.scope, state=state)

    def cert_hit(self, thread, memory, cached: bool) -> None:
        """Sampled CertCache-hit divergence check (via
        ``CertCache.monitor``)."""
        self._cert_tick += 1
        if self._cert_tick % self.divergence_stride:
            return
        if self.config is None:
            return
        self.monitor.check("cache.cert-divergence",
                           check_cert_divergence(thread, memory, cached,
                                                 self.config),
                           scope=self.scope, state=thread)

    def store_hit(self, thread, memory, cached: bool) -> None:
        """Sampled persistent-store-hit divergence check (via
        ``CertCache.monitor``): disk verdicts are re-derived uncached,
        so a stale or poisoned store entry surfaces as a violation
        instead of a wrong verdict."""
        self._store_tick += 1
        if self._store_tick % self.divergence_stride:
            return
        if self.config is None:
            return
        self.monitor.check("cache.store-divergence",
                           check_store_divergence(thread, memory, cached,
                                                  self.config),
                           scope=self.scope, state=thread)

    # -- SEQ ---------------------------------------------------------------

    def game_state(self, frontier, advanced: bool) -> None:
        self._game_tick += 1
        if self._game_tick % self.stride:
            return
        self.monitor.check("seq.frontier.consistent",
                           check_frontier_consistent(frontier, advanced),
                           scope=self.scope)

    def game_push(self, base_items, closed_frontier) -> None:
        self._push_tick += 1
        if self._push_tick % self.stride:
            return
        self.monitor.check("seq.simulation.step",
                           check_simulation_step(base_items,
                                                 closed_frontier),
                           scope=self.scope)


def _clip(text: str, limit: int = _WITNESS_CLIP) -> str:
    if len(text) <= limit:
        return text
    return text[:limit] + "…"


# ---------------------------------------------------------------------------
# Injected-violation canaries
# ---------------------------------------------------------------------------


def inject_violation(monitor: Monitor, invariant_id: str) -> dict:
    """Feed a corrupted synthetic observation through the real detector.

    Builds broken-by-construction data for ``invariant_id`` (real
    machine data structures, one field corrupted), runs the *same* pure
    check function the live probes use, and records the resulting
    violation (flagged ``injected``).  Raises ``ValueError`` on an
    unknown invariant and ``RuntimeError`` if the detector failed to
    fire — the latter is exactly what the canary test asserts never
    happens.
    """
    try:
        injector = _INJECTORS[invariant_id]
    except KeyError:
        raise ValueError(
            f"unknown invariant class {invariant_id!r}; choices: "
            + ", ".join(sorted(INVARIANTS))) from None
    detail, state = injector()
    if detail is None:  # pragma: no cover - the canary's own canary
        raise RuntimeError(
            f"injected violation of {invariant_id!r} was not detected")
    monitor.checks[invariant_id] = monitor.checks.get(invariant_id, 0) + 1
    monitor.record(invariant_id, detail, scope="inject", state=state,
                   injected=True)
    return dict(monitor.witnesses[invariant_id])


def _corrupt_memory_duplicate():
    from ..psna.memory import Memory, Message

    memory = Memory(frozenset({Message("x", Fraction(1), 0, None),
                               Message("x", Fraction(1), 1, None)}))
    return check_unique_timestamps(memory), memory


def _corrupt_memory_interval():
    from ..psna.memory import Memory, Message

    memory = Memory(frozenset({
        Message("x", Fraction(2), 0, None, attach=Fraction(0)),
        Message("x", Fraction(1), 1, None)}))
    return check_interval_disjoint(memory), memory


def _synthetic_state(view=None, promises=frozenset(), sc_view=None):
    from ..psna.machine import MachineState
    from ..psna.memory import Memory
    from ..psna.thread import ThreadLts
    from ..psna.view import View

    thread = ThreadLts(program=None, view=view or View(),
                       promises=promises)
    return MachineState((thread,), Memory.initial({"x"}),
                        sc_view=sc_view or View())


def _corrupt_view_monotonic():
    from ..psna.view import View

    prev = _synthetic_state(view=View.of({"x": Fraction(0)}))
    # The corrupted successor: the thread's view lost its x entry while
    # a second, fabricated previous state claims it had one.
    before = _synthetic_state(view=View.of({"x": Fraction(1)}))
    return check_view_monotonic(before, prev, 0), prev


def _corrupt_view_in_memory():
    from ..psna.view import View

    state = _synthetic_state(view=View.of({"x": Fraction(5)}))
    return check_view_in_memory(state), state


def _corrupt_promise_membership():
    from ..psna.memory import Message

    orphan = Message("x", Fraction(7), 1, None)
    state = _synthetic_state(promises=frozenset({orphan}))
    return check_promises_in_memory(state), state


def _corrupt_promise_shrink():
    from ..psna.memory import Message

    grown = Message("x", Fraction(3), 1, None)
    prev = _synthetic_state()
    state = _synthetic_state(promises=frozenset({grown}))
    return check_promise_shrink(prev, state, 0, "read"), state


def _stranded_promise_state():
    """A terminated thread still holding a promise: uncertifiable."""
    from ..lang.interp import WhileThread
    from ..lang.parser import parse
    from ..psna.machine import MachineState
    from ..psna.memory import Memory, Message
    from ..psna.thread import ThreadLts

    promise = Message("x", Fraction(1), 1, None)
    memory = Memory.initial({"x"}).add(promise)
    thread = ThreadLts(program=WhileThread.start(parse("return 0;")),
                       promises=frozenset({promise}))
    return MachineState((thread,), memory)


def _corrupt_cert_fulfillable():
    from ..psna.thread import PsConfig

    state = _stranded_promise_state()
    return check_certified_promises(state, 0, PsConfig()), state


def _corrupt_cert_divergence():
    from ..psna.thread import PsConfig

    state = _stranded_promise_state()
    # The fabricated cache claims True; uncached certification says no.
    return (check_cert_divergence(state.threads[0], state.memory, True,
                                  PsConfig()), state)


def _corrupt_store_divergence():
    from ..psna.thread import PsConfig

    state = _stranded_promise_state()
    # The fabricated persistent store claims True for an uncertifiable
    # pair — exactly what a poisoned/stale segment entry would do.
    return (check_store_divergence(state.threads[0], state.memory, True,
                                   PsConfig()), state)


def _corrupt_key_divergence():
    state = _synthetic_state()
    return check_key_divergence(state, ("corrupt",)), state


def _corrupt_frontier():
    from ..seq.refinement import _Item

    frontier = frozenset({_Item(None, frozenset({"x"}))})
    return check_frontier_consistent(frontier, advanced=False), frontier


def _corrupt_simulation_step():
    from ..seq.refinement import _Item

    base = {_Item(None, frozenset())}
    return check_simulation_step(base, frozenset()), base


def _corrupt_pass_record():
    from ..lang.ast import Skip
    from ..opt.pipeline import PassRecord

    record = PassRecord("inject", Skip(), Skip(), size_before=99,
                        size_after=1)
    return check_pass_record(record), record


_INJECTORS = {
    "psna.memory.unique-timestamps": _corrupt_memory_duplicate,
    "psna.memory.interval-disjoint": _corrupt_memory_interval,
    "psna.view.monotonic": _corrupt_view_monotonic,
    "psna.view.in-memory": _corrupt_view_in_memory,
    "psna.promise.subset-memory": _corrupt_promise_membership,
    "psna.promise.shrink": _corrupt_promise_shrink,
    "psna.cert.fulfillable": _corrupt_cert_fulfillable,
    "cache.cert-divergence": _corrupt_cert_divergence,
    "cache.store-divergence": _corrupt_store_divergence,
    "cache.key-divergence": _corrupt_key_divergence,
    "seq.frontier.consistent": _corrupt_frontier,
    "seq.simulation.step": _corrupt_simulation_step,
    "opt.pass.consistent": _corrupt_pass_record,
}

assert set(_INJECTORS) == set(INVARIANTS)


# ---------------------------------------------------------------------------
# Violation shrinking
# ---------------------------------------------------------------------------


@contextmanager
def scoped_monitor(monitor: Optional[Monitor]):
    """Temporarily make ``monitor`` the session's active monitor.

    With a session active its monitor is swapped (the shrink predicate
    must not pollute the CLI's monitor); without one, a throwaway
    session is opened around the block.
    """
    from .. import obs

    current = obs.active()
    if current is None:
        with obs.session(monitor=monitor):
            yield
        return
    saved = current.monitor
    current.monitor = monitor
    try:
        yield
    finally:
        current.monitor = saved


def shrink_violation(threads, invariant_id: str, config=None,
                     injected: bool = False,
                     corpus_dir: str = DEFAULT_MONITOR_CORPUS,
                     max_checks: int = 48, seed: int = 0) -> Optional[str]:
    """ddmin-shrink a violation-triggering composition into the corpus.

    The predicate re-explores a candidate under a fresh strict monitor
    and keeps candidates that still violate ``invariant_id``.  Injected
    violations are synthetic — their predicate re-injects instead, so
    the shrinker reduces the program to its minimum (the canary's
    "produces a shrunk witness artifact" obligation).  Returns the
    written ``.repro`` path, or None when the violation does not
    reproduce.
    """
    from ..fuzz.corpus import ReproEntry, write_entry
    from ..fuzz.shrink import shrink_composition

    def still_fails(candidate) -> bool:
        scratch = Monitor("strict", 1)
        with scoped_monitor(scratch):
            if injected:
                inject_violation(scratch, invariant_id)
            else:
                from ..psna.explore import explore

                explore(list(candidate), config)
        return scratch.violations.get(invariant_id, 0) > 0

    threads = tuple(threads)
    if not still_fails(threads):
        return None
    best, _checks = shrink_composition(threads, still_fails,
                                       max_checks=max_checks)
    entry = ReproEntry(
        kind="concurrent", seed=seed, threads=best,
        oracle=f"monitor-{invariant_id}",
        detail=INVARIANTS.get(invariant_id, ""))
    return write_entry(corpus_dir, entry)


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------


def monitor_payload(monitor: Monitor, meta: Optional[dict] = None,
                    include_witnesses: bool = True) -> dict:
    """The stable ``repro-monitor/1`` JSON form of a monitor."""
    invariants: dict[str, dict] = {}
    for invariant_id in sorted(INVARIANTS):
        entry = {"checks": monitor.checks.get(invariant_id, 0),
                 "violations": monitor.violations.get(invariant_id, 0),
                 "injected": monitor.injected.get(invariant_id, 0),
                 "description": INVARIANTS[invariant_id]}
        if include_witnesses:
            witness = monitor.witnesses.get(invariant_id)
            if witness is not None:
                entry["witness"] = dict(witness)
        invariants[invariant_id] = entry
    payload = {"schema": MONITOR_SCHEMA, "mode": monitor.mode,
               "stride": monitor.stride, "invariants": invariants}
    if meta:
        payload["meta"] = dict(meta)
    return payload


def validate_monitor_payload(payload: dict) -> list[str]:
    """Problems with a ``repro-monitor/1`` payload (empty = valid)."""
    problems: list[str] = []
    if payload.get("schema") != MONITOR_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {MONITOR_SCHEMA!r}")
    if payload.get("mode") not in ("strict", "sample"):
        problems.append(f"mode is {payload.get('mode')!r}")
    invariants = payload.get("invariants")
    if not isinstance(invariants, dict):
        return problems + ["missing/non-dict section 'invariants'"]
    for name, entry in invariants.items():
        if not isinstance(entry, dict):
            problems.append(f"invariants.{name} is not an object")
            continue
        for field in ("checks", "violations", "injected"):
            value = entry.get(field)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                problems.append(f"invariants.{name}.{field} = {value!r} "
                                f"is not a non-negative integer")
        witness = entry.get("witness")
        if witness is not None and (not isinstance(witness, dict)
                                    or not isinstance(
                                        witness.get("detail"), str)):
            problems.append(f"invariants.{name}.witness lacks a detail "
                            f"string")
    return problems


def write_monitor_report(path: str, monitor: Monitor,
                         meta: Optional[dict] = None) -> dict:
    """Write a validated ``repro-monitor/1`` report; returns the payload."""
    payload = monitor_payload(monitor, meta=meta)
    problems = validate_monitor_payload(payload)
    if problems:
        raise ValueError("refusing to write invalid monitor report: "
                         + "; ".join(problems))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")
    return payload


def render_monitor_table(payload: dict,
                         title: str = "invariant monitor") -> str:
    """Byte-stable summary table of one monitor payload.

    Counts plus deterministic witness details only — no timings, no
    process-local data — so ``--monitor`` stdout is identical across
    ``--jobs`` values (the ``--graph-stats`` discipline).
    """
    mode = payload.get("mode", "strict")
    label = mode if mode != "sample" else f"sample:{payload.get('stride')}"
    invariants = payload.get("invariants", {})
    if not invariants:
        return f"-- {title} ({label}): no invariants registered --"
    width = max(len(name) for name in invariants)
    lines = [f"-- {title} ({label}) --",
             f"{'invariant':<{width}}  {'checks':>10}  {'violations':>10}"]
    total_checks = 0
    total_violations = 0
    for name in sorted(invariants):
        entry = invariants[name]
        checks = entry.get("checks", 0)
        violations = entry.get("violations", 0)
        total_checks += checks
        total_violations += violations
        lines.append(f"{name:<{width}}  {checks:>10}  {violations:>10}")
    lines.append(f"{'TOTAL':<{width}}  {total_checks:>10}  "
                 f"{total_violations:>10}")
    for name in sorted(invariants):
        entry = invariants[name]
        if not entry.get("violations"):
            continue
        witness = entry.get("witness") or {}
        mark = " (injected)" if entry.get("injected") else ""
        detail = witness.get("detail", "(no witness captured)")
        lines.append(f"!! {name}{mark}: {detail}")
    return "\n".join(lines)
