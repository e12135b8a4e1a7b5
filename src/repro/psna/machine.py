"""Machine states and machine steps of PS^na (Fig 5, bottom right).

A machine state maps thread identifiers to thread states and holds the
shared memory.  ``machine: normal`` steps require *certification*: after
taking its steps, the thread must be able to fulfill all its outstanding
promises by running alone.  ``machine: failure`` propagates a thread's ⊥.

This implementation takes machine steps at single-thread-step granularity
with certification after each step, which generates the same reachable
configurations as the paper's multi-step rule: any multi-step sequence
splits into single steps, and the certification run of an intermediate
state can replay the remaining steps of the sequence.

States are canonicalized (per-location timestamp renaming) before being
memoized, so exploration is insensitive to the concrete rationals chosen
for fresh messages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Optional

from time import perf_counter

from .. import obs
from ..lang.ast import Stmt, walk
from ..lang.ast import Rmw as RmwStmt
from ..lang.ast import Store as StoreStmt
from ..lang.interp import WhileThread
from ..lang.itree import (
    ErrAction,
    FenceAction,
    RetAction,
    SyscallAction,
    ThreadState,
)
from ..lang.events import FenceKind
from ..lang.values import Value
from .certstore import CertStore, cert_digest, config_fingerprint
from .intern import Interner, decode_cert, intern_cert, intern_state
from .memory import AnyMessage, Memory, Message, NAMessage
from .thread import PsConfig, ThreadLts, ThreadStep, thread_steps
from .view import View


@dataclass(frozen=True)
class MachineState:
    """``⟨T, M⟩`` plus the SC-fence view and the observable syscall trace."""

    threads: tuple[ThreadLts, ...]
    memory: Memory
    sc_view: View = View()
    syscalls: tuple[tuple[str, Value], ...] = ()
    bottom: bool = False

    def all_terminated(self) -> bool:
        return all(thread.is_terminated() for thread in self.threads)

    def return_values(self) -> tuple[Value, ...]:
        return tuple(thread.return_value() for thread in self.threads)

    # Machine states are hashed on every ``KeyCache.states`` probe and
    # ``seen``-set membership test; the dataclass-generated hash re-walks
    # the whole object graph each time.  Cache it — every field is
    # immutable.  The cached value is process-local (string hashing is
    # randomized per process), so it is dropped when pickling.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.threads, self.memory, self.sc_view,
                           self.syscalls, self.bottom))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def evolve(self, **changes) -> "MachineState":
        """``dataclasses.replace`` without the per-call field
        introspection (see :meth:`ThreadLts.evolve`)."""
        return MachineState(
            changes.get("threads", self.threads),
            changes.get("memory", self.memory),
            changes.get("sc_view", self.sc_view),
            changes.get("syscalls", self.syscalls),
            changes.get("bottom", self.bottom))


def written_locations(program: Stmt) -> tuple[str, ...]:
    """Locations a program may write — the promise candidates for it."""
    locs = set()
    for node in walk(program):
        if isinstance(node, (StoreStmt, RmwStmt)):
            locs.add(node.loc)
    return tuple(sorted(locs))


def initial_state(programs: list[Stmt | ThreadState],
                  config: PsConfig,
                  locations: Optional[set[str]] = None) -> MachineState:
    """The initial machine state: zero views, initialization messages."""
    threads = []
    locs: set[str] = set(locations or set())
    for program in programs:
        if isinstance(program, Stmt):
            from ..lang.ast import shared_locations

            locs |= shared_locations(program)
            promise_locs = written_locations(program)
            state: ThreadState = WhileThread.start(program)
        else:
            promise_locs = ()
            state = program
        threads.append(ThreadLts(
            program=state,
            promise_budget=config.promise_budget,
            promise_locs=promise_locs if config.allow_promises else ()))
    return MachineState(tuple(threads), Memory.initial(locs))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


class CertCache:
    """Per-exploration memoization of :func:`certifiable` outcomes.

    Keyed on the canonicalized ``(thread, memory)`` pair as a single
    interned ``int`` (:func:`repro.psna.intern.intern_cert`, whose
    :func:`~repro.psna.intern.decode_cert` is the structural
    :func:`certification_key`), so candidate successors that differ only
    in the concrete rationals chosen for fresh timestamps share one
    certification search.  Entries are never evicted: ``ThreadLts`` and
    ``Memory`` are immutable, and certification is a pure function of
    the pair for a fixed :class:`PsConfig` — the in-memory cache is
    therefore only valid for the single exploration (single config) that
    owns it.

    ``store`` optionally backs the cache with the persistent cross-run
    verdict store (:class:`repro.psna.certstore.CertStore`).  A store
    hit is accounted as an in-memory *miss* (the miss happened; the
    search was skipped), so ``hits``/``misses`` — and everything
    derived from them, like ``--graph-stats`` output — are identical
    with a cold store, a warm store, or no store at all.
    """

    __slots__ = ("entries", "steps", "hits", "misses", "monitor", "interner",
                 "store", "fingerprint")

    def __init__(self, interner: Optional[Interner] = None,
                 store: Optional[CertStore] = None) -> None:
        self.entries: dict[int, bool] = {}
        #: Cross-search memo of certification successor expansions:
        #: ``(thread, memory.messages) -> [(thread', memory'), ...]``.
        #: Distinct certification searches launched from neighbouring
        #: machine states revisit largely the same thread-local frontier
        #: (~4x redundancy on the litmus catalog); successor sets are a
        #: pure function of the pair under the fixed certifying config,
        #: so they are shared for the lifetime of the exploration.
        self.steps: dict = {}
        self.hits = 0
        self.misses = 0
        #: Optional :class:`repro.obs.monitor.MonitorProbe`: when set,
        #: a sampled fraction of in-memory and store hits is re-certified
        #: uncached and compared against the memoized verdict.
        self.monitor = None
        self.interner = interner if interner is not None else Interner()
        self.store = store
        self.fingerprint: Optional[str] = None  # lazily, from the config

    def key(self, thread: ThreadLts, memory: Memory) -> int:
        return intern_cert(thread, memory, self.interner)

    def digest(self, key: int, config: PsConfig) -> Optional[str]:
        """The persistent-store digest for a cache key (``None`` when the
        pair has no stable cross-process encoding)."""
        if self.fingerprint is None:
            self.fingerprint = config_fingerprint(config)
        return cert_digest(decode_cert(key, self.interner), self.fingerprint)


#: Thread states that take no further step: terminated or ⊥ (one
#: ``peek`` answers both ``is_terminated`` and ``is_bottom``).
_HALTED = (RetAction, ErrAction)


@lru_cache(maxsize=32)
def _certifying_config(config: PsConfig) -> PsConfig:
    """The config certification searches run under, memoized per config
    (``dataclasses.replace`` costs more than a cache miss's lookup)."""
    return replace(config, certifying=True,
                   allow_promises=config.cert_promises
                   and config.allow_promises)


def certifiable(thread: ThreadLts, memory: Memory, config: PsConfig,
                cache: Optional[CertCache] = None) -> bool:
    """Can the thread, running alone, fulfill all its promises?

    Searches thread-local runs for a state with an empty promise set.
    Promise steps during certification follow ``config.cert_promises``
    (off by default; see DESIGN.md).

    ``cache`` is an optional :class:`CertCache` owned by the exploration
    run driving this check; see its docstring for the memoization
    contract.  Cache hits still fire the ``rule.psna.cert.*`` coverage
    counters (the side-condition *was* resolved), but not
    ``psna.cert.attempts``/``psna.cert.states``, which count actual
    search work.
    """
    if not thread.promises:
        return True
    key: object = None
    store = None
    digest = None
    if cache is not None:
        key = cache.key(thread, memory)
        cached = cache.entries.get(key)
        if cached is not None:
            cache.hits += 1
            if cache.monitor is not None:
                cache.monitor.cert_hit(thread, memory, cached)
            registry = obs.metrics()
            if registry is not None:
                registry.inc("rule.psna.cert.success" if cached
                             else "rule.psna.cert.failure")
            return cached
        cache.misses += 1
        store = cache.store
        if store is not None:
            digest = cache.digest(key, config)
            if digest is not None:
                cached = store.get(digest)
                registry = obs.metrics()
                if cached is not None:
                    # A disk hit: adopt the verdict into the in-memory
                    # cache (so later lookups count as ordinary hits,
                    # exactly as after a cold search) and skip the search.
                    cache.entries[key] = cached
                    if cache.monitor is not None:
                        cache.monitor.store_hit(thread, memory, cached)
                    if registry is not None:
                        registry.inc("psna.cert.store_hits")
                        registry.inc("rule.psna.cert.success" if cached
                                     else "rule.psna.cert.failure")
                    return cached
                if registry is not None:
                    registry.inc("psna.cert.store_misses")
    cert_config = _certifying_config(config)
    # Successor expansions: the exploration's shared table, or one for
    # this search alone.  Every entry is a fresh list that the table
    # keeps alive, so its ``id`` names its pair in ``visited`` and each
    # iteration hashes the (thread, messages) pair once.
    expansions = cache.steps if cache is not None else {}
    visited: set[int] = set()
    stack: list[tuple[ThreadLts, Memory, int]] = [
        (thread, memory, config.cert_depth)]
    certified = False
    with obs.span("psna.cert"):
        while stack:
            current, mem, depth = stack.pop()
            if not current.promises:
                certified = True
                break
            if depth == 0 or isinstance(current.program.peek(), _HALTED):
                continue
            pair = (current, mem.messages)
            succ = expansions.get(pair)
            if succ is None:
                succ = expansions[pair] = [
                    (step.thread, step.memory)
                    for step in thread_steps(current, mem, cert_config)
                    if not step.thread.is_bottom()]  # UB does not certify
            elif id(succ) in visited:
                continue
            visited.add(id(succ))
            for nxt, nxt_mem in succ:
                stack.append((nxt, nxt_mem, depth - 1))
    if cache is not None:
        cache.entries[key] = certified
        if store is not None and digest is not None \
                and store.put(digest, certified):
            registry = obs.metrics()
            if registry is not None:
                registry.inc("psna.cert.store_writes")
    registry = obs.metrics()
    if registry is not None:
        registry.inc("psna.cert.attempts")
        registry.inc("psna.cert.states", len(visited))
        registry.inc("rule.psna.cert.success" if certified
                     else "rule.psna.cert.failure")
        if not certified:
            registry.inc("psna.cert.failures")
    return certified


# ---------------------------------------------------------------------------
# Machine steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineStepInfo:
    """One machine step annotated for inspection and witness explanation.

    ``tag`` is the thread-level rule that fired (the :class:`ThreadStep`
    tag), or ``"sc-fence"`` / ``"machine-failure"`` for the two
    machine-level rules without a thread-step counterpart.  For failure
    steps ``cause`` names the thread rule that reached ⊥ (typically a
    ``racy-*`` access).
    """

    thread: int
    tag: str
    state: MachineState
    cause: Optional[str] = None


#: Machine-level rule IDs (``psna.machine.*`` / ``psna.cert.*``) for the
#: semantic-coverage layer.
MACHINE_RULE_TAGS: tuple[str, ...] = (
    "normal", "failure", "sc-fence")

#: Certification outcomes (``psna.cert.*``) — the two ways the
#: ``machine: normal`` side-condition can resolve.
CERT_RULE_TAGS: tuple[str, ...] = ("success", "failure")


def machine_steps(state: MachineState, config: PsConfig,
                  cert_cache: Optional[CertCache] = None,
                  ) -> Iterator[MachineState]:
    """Enumerate certified machine steps and failure steps."""
    for info in labeled_machine_steps(state, config, cert_cache):
        yield info.state


def labeled_machine_steps(state: MachineState, config: PsConfig,
                          cert_cache: Optional[CertCache] = None,
                          ) -> Iterator[MachineStepInfo]:
    """Like :func:`machine_steps`, but each successor carries the index of
    the thread that stepped and the rule tag that fired — the raw material
    of witness timelines (:mod:`repro.obs.explain`).

    ``cert_cache`` memoizes the ``machine: normal`` certification
    side-condition across the run that owns it (see :class:`CertCache`).

    When an observability session is active, the machine-level rules
    (``machine: normal``, ``machine: failure``, SC fences) count into
    ``rule.psna.machine.*`` counters.
    """
    if state.bottom:
        return
    registry = obs.metrics()
    for index, thread in enumerate(state.threads):
        action = thread.program.peek()
        if isinstance(action, FenceAction) and action.kind is FenceKind.SC:
            # SC fences need the machine's global view.
            view = thread.view.join(state.sc_view)
            updated = thread.evolve(program=thread.program.resume(None),
                              view=view)
            if registry is not None:
                registry.inc("rule.psna.machine.sc-fence")
            yield MachineStepInfo(
                index, "sc-fence",
                state.evolve(
                        threads=_set(state.threads, index, updated),
                        sc_view=view))
            continue
        for step in thread_steps(thread, state.memory, config):
            if step.thread.is_bottom():
                if registry is not None:
                    registry.inc("rule.psna.machine.failure")
                yield MachineStepInfo(
                    index, "machine-failure",
                    state.evolve(bottom=True),
                    cause=step.tag)  # machine: failure
                continue
            if not certifiable(step.thread, step.memory, config, cert_cache):
                continue  # machine: normal requires certification
            syscalls = state.syscalls
            if isinstance(action, SyscallAction) and step.tag == "syscall":
                syscalls = syscalls + ((action.name, action.value),)
            if registry is not None:
                registry.inc("rule.psna.machine.normal")
            yield MachineStepInfo(
                index, step.tag,
                state.evolve(
                        threads=_set(state.threads, index, step.thread),
                        memory=step.memory,
                        syscalls=syscalls))


def _set(threads: tuple[ThreadLts, ...], index: int,
         thread: ThreadLts) -> tuple[ThreadLts, ...]:
    return threads[:index] + (thread,) + threads[index + 1:]


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def _timestamp_ranks(memory: Memory) -> dict[tuple[str, object], int]:
    """Per-location dense ranks of the memory's timestamps (one pass)."""
    by_loc: dict[str, list] = {}
    for message in memory.messages:
        by_loc.setdefault(message.loc, []).append(message.ts)
    rank: dict[tuple[str, object], int] = {}
    for loc, stamps in by_loc.items():
        stamps.sort()
        for index, ts in enumerate(stamps):
            rank[(loc, ts)] = index
    return rank


def _value_key(value: Value):
    """A hashable, totally-ordered encoding of a value (no ``repr``)."""
    if isinstance(value, int):
        return (0, value)
    return (1, 0)  # undef — the only non-int value


def _view_key(view: Optional[View], rank):
    if view is None:
        return ("bot",)
    return ("view",) + tuple((loc, rank.get((loc, ts), -1))
                             for loc, ts in view.items)


def _message_key(message: AnyMessage, rank):
    if isinstance(message, NAMessage):
        return ("na", message.loc, rank[(message.loc, message.ts)])
    attach = (-1 if message.attach is None
              else rank.get((message.loc, message.attach), -2))
    return ("msg", message.loc, rank[(message.loc, message.ts)],
            _value_key(message.value), _view_key(message.view, rank), attach)


def _thread_key(thread: ThreadLts, rank):
    return (thread.program, _view_key(thread.view, rank),
            tuple(sorted(_message_key(m, rank) for m in thread.promises)),
            _view_key(thread.acq_pending, rank),
            _view_key(thread.rel_view, rank),
            tuple((loc, _view_key(view, rank))
                  for loc, view in thread.rel_views.items),
            thread.promise_budget)


def _memory_key(memory: Memory, rank):
    return tuple(sorted(_message_key(m, rank) for m in memory.messages))


def certification_key(thread: ThreadLts, memory: Memory):
    """The structural certification key: canonicalized ``(thread, memory)``.

    Invariant under per-location order-isomorphic renaming of
    timestamps — every rule of the thread LTS only *compares* timestamps
    and inserts between adjacent ones, so canonically-equal pairs have
    isomorphic certification searches.  ``promise_locs`` is included
    because promise steps (``config.cert_promises``) depend on it.
    :class:`CertCache` keys on its interned encoding; this form is the
    reference that :func:`repro.psna.intern.decode_cert` reproduces and
    that persistent-store digests hash.
    """
    rank = _timestamp_ranks(memory)
    return (_thread_key(thread, rank), thread.promise_locs,
            _memory_key(memory, rank))


class KeyCache:
    """Per-exploration canonical-key cache over the interned encoding.

    ``states`` memoizes :func:`canonical_key` per value-equal
    ``MachineState`` — successors generated through different
    interleavings and then deduplicated pay one hash instead of a full
    re-canonicalization.  Every key is a single ``int`` from the cache's
    :class:`~repro.psna.intern.Interner`.  Like :class:`CertCache`,
    entries are never evicted (states are immutable) and the cache lives
    for a single exploration run.

    ``encode_s`` accumulates time spent producing keys on cache misses
    when ``timed`` is set (explorations running under an observability
    session set it); the explorer flushes it into the
    ``span.psna.intern.encode`` histogram so interning cost shows up in
    the ``--profile`` span table alongside the other timing spans.
    """

    __slots__ = ("states", "interner", "hits", "misses", "timed", "encode_s")

    def __init__(self, interner: Optional[Interner] = None) -> None:
        self.states: dict[MachineState, int] = {}
        self.interner = interner if interner is not None else Interner()
        self.hits = 0
        self.misses = 0
        self.timed = False
        self.encode_s = 0.0


def canonical_key(state: MachineState, cache: Optional[KeyCache] = None):
    """A hashable key invariant under per-location timestamp renaming.

    Without a cache: the structural form, the reference the explainer,
    the monitor's divergence oracle and the cache-transparency tests
    compare against.  With a :class:`KeyCache`: a single interned
    ``int``, memoized per state value, whose
    :func:`repro.psna.intern.decode_state` equals the structural form.
    """
    if cache is None:
        if state.bottom:
            return ("⊥", state.syscalls)
        rank = _timestamp_ranks(state.memory)
        return (tuple(_thread_key(thread, rank) for thread in state.threads),
                _memory_key(state.memory, rank),
                _view_key(state.sc_view, rank), state.syscalls)
    key = cache.states.get(state)
    if key is not None:
        cache.hits += 1
        return key
    cache.misses += 1
    if cache.timed:
        started = perf_counter()
        key = intern_state(state, cache.interner)
        cache.encode_s += perf_counter() - started
    else:
        key = intern_state(state, cache.interner)
    cache.states[state] = key
    return key
