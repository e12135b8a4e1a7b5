"""Bounded exhaustive exploration of PS^na machine behaviors (Def 5.2).

A behavior is the tuple of return values of all threads (plus, following
the Coq development, the sequence of system calls invoked along the way),
or ⊥ for erroneous termination.  Exploration enumerates all certified
interleavings up to the configured bounds, deduplicating canonicalized
states.

Every run reports *why* it is incomplete (state bound vs. depth bound)
and exact search counters (dedup hits/misses, stuck states, peak
frontier).  The counters are maintained in local integers — exploration
is the hottest loop in the repository — and flushed once per run into
the :mod:`repro.obs` session when one is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .. import obs
from ..lang.ast import Stmt
from ..lang.itree import ThreadState
from ..lang.values import Value, value_leq
from ..obs.events import STATE_EVENT_INTERVAL
from . import certstore
from .intern import Interner
from .machine import (
    CertCache,
    KeyCache,
    MachineState,
    canonical_key,
    initial_state,
    labeled_machine_steps,
    machine_steps,  # not called here: perfbench/ledger.py patches it by name
)
from .thread import PsConfig

#: ``Exploration.incomplete_reason`` values.
STATE_BOUND = "state-bound"
DEPTH_BOUND = "depth-bound"


def _rule_id(info) -> str:
    """The ``rule.*`` identifier of one labeled machine step."""
    if info.tag == "sc-fence":
        return "rule.psna.machine.sc-fence"
    if info.tag == "machine-failure":
        return "rule.psna.machine.failure"
    return f"rule.psna.thread.{info.tag}"


@dataclass(frozen=True)
class PsBehavior:
    """Normal termination: per-thread return values + syscall trace."""

    returns: tuple[Value, ...]
    syscalls: tuple[tuple[str, Value], ...] = ()

    def __repr__(self) -> str:
        calls = "".join(f"{name}({value}); " for name, value in self.syscalls)
        return f"⟨{calls}ret {self.returns}⟩"


@dataclass(frozen=True)
class PsBottom:
    """Erroneous termination; carries the observable prefix."""

    syscalls: tuple[tuple[str, Value], ...] = ()

    def __repr__(self) -> str:
        calls = "".join(f"{name}({value}); " for name, value in self.syscalls)
        return f"⟨{calls}⊥⟩"


PsResult = PsBehavior | PsBottom


@dataclass
class Exploration:
    """Result of an exploration run.

    ``complete`` is False exactly when a bound was exhausted, in which
    case ``incomplete_reason`` names the bound (``"state-bound"`` or
    ``"depth-bound"``).  Fully exploring a space that contains stuck
    non-terminal states (e.g. unfulfillable promises) is *complete* —
    those states contribute no behavior by Def 5.2 — and is reported via
    ``stuck_states`` instead.
    """

    behaviors: set[PsResult]
    complete: bool
    states: int
    incomplete_reason: Optional[str] = None
    stuck_states: int = 0
    dedup_hits: int = 0
    dedup_misses: int = 0
    peak_frontier: int = 0
    cert_cache_hits: int = 0
    cert_cache_misses: int = 0
    key_cache_hits: int = 0
    key_cache_misses: int = 0

    def returns(self) -> set[tuple[Value, ...]]:
        return {b.returns for b in self.behaviors
                if isinstance(b, PsBehavior)}

    def has_bottom(self) -> bool:
        return any(isinstance(b, PsBottom) for b in self.behaviors)

    def syscall_traces(self) -> set[tuple[tuple[str, Value], ...]]:
        return {b.syscalls for b in self.behaviors}

    def dedup_rate(self) -> float:
        """Fraction of generated successors already seen."""
        generated = self.dedup_hits + self.dedup_misses
        return self.dedup_hits / generated if generated else 0.0


def explore(programs: list[Stmt | ThreadState],
            config: Optional[PsConfig] = None,
            locations: Optional[set[str]] = None) -> Exploration:
    """Explore all behaviors of the parallel composition of ``programs``."""
    if config is None:
        config = PsConfig()
    with obs.span("psna.explore", threads=len(programs)):
        result = _explore(programs, config, locations)
    registry = obs.metrics()
    if registry is not None:
        registry.inc("psna.explore.runs")
        registry.inc("psna.explore.states", result.states)
        registry.inc("psna.explore.dedup_hits", result.dedup_hits)
        registry.inc("psna.explore.dedup_misses", result.dedup_misses)
        registry.inc("psna.explore.stuck_states", result.stuck_states)
        registry.inc("psna.cert.cache_hits", result.cert_cache_hits)
        registry.inc("psna.cert.cache_misses", result.cert_cache_misses)
        registry.inc("psna.key.cache_hits", result.key_cache_hits)
        registry.inc("psna.key.cache_misses", result.key_cache_misses)
        if not result.complete:
            registry.inc(f"psna.explore.incomplete.{result.incomplete_reason}")
        registry.observe("psna.explore.behaviors", len(result.behaviors))
        registry.observe("psna.explore.peak_frontier", result.peak_frontier)
    return result


def _explore(programs: list[Stmt | ThreadState], config: PsConfig,
             locations: Optional[set[str]]) -> Exploration:
    start = initial_state(programs, config, locations)
    # One interner backs both caches (they share location/view/message
    # entries); the persistent verdict store is consulted only when one
    # is bound for the process.
    interner = Interner()
    cert_cache = CertCache(interner, store=certstore.active()) \
        if config.enable_cert_cache else None
    key_cache = KeyCache(interner) if config.enable_key_cache else None
    if key_cache is not None:
        key_cache.timed = obs.metrics() is not None
    behaviors: set[PsResult] = set()
    with obs.span("psna.intern"):
        start_key = canonical_key(start, key_cache)
    seen = {start_key}
    stack: list[tuple[MachineState, int]] = [(start, config.max_depth)]
    states = 0
    stuck = 0
    dedup_hits = 0
    dedup_misses = 0
    peak_frontier = 1
    state_bound_hit = False
    depth_bound_hit = False

    # Graph/stream/monitor telemetry: each defaults to None and costs the
    # loop one ``is not None`` check per use.  The labeled steps supply
    # the rule id of every edge.
    recorder = obs.graph()
    stream = obs.stream()
    builder = recorder.builder("psna.explore") if recorder is not None \
        else None
    checker = obs.monitor()
    probe = checker.probe("psna.explore", config=config) \
        if checker is not None else None
    if cert_cache is not None and probe is not None:
        cert_cache.monitor = probe
    if builder is not None:
        builder.node(start_key, 0)

    while stack:
        if states >= config.max_states:
            # Exact bound: exactly max_states states get processed, and
            # the bound only reports exhausted when work actually remains.
            state_bound_hit = True
            if builder is not None:
                builder.truncated()
            if stream is not None:
                stream.emit("truncation", span="psna.explore",
                            reason=STATE_BOUND, states=states,
                            last_rule=stream.last_rule)
            break
        state, depth = stack.pop()
        states += 1
        src_id = -1
        if builder is not None:
            src_id = builder.node_id(canonical_key(state, key_cache),
                                     config.max_depth - depth)
        if stream is not None and states % STATE_EVENT_INTERVAL == 0:
            stream.emit("state", span="psna.explore", states=states,
                        frontier=len(stack), behaviors=len(behaviors))
        if state.bottom:
            behavior = PsBottom(state.syscalls)
            behaviors.add(behavior)
            if builder is not None:
                builder.mark(src_id, "bottom", repr(behavior))
            continue
        if state.all_terminated():
            behavior = PsBehavior(state.return_values(), state.syscalls)
            behaviors.add(behavior)
            if builder is not None:
                builder.mark(src_id, "terminal", repr(behavior))
            continue
        if depth == 0:
            depth_bound_hit = True
            if builder is not None:
                builder.truncated()
            continue
        progressed = False
        for info in labeled_machine_steps(state, config, cert_cache):
            progressed = True
            if stream is not None:
                stream.last_rule = _rule_id(info)
            key = canonical_key(info.state, key_cache)
            if probe is not None:
                probe.machine_step(state, info)
                probe.state_key(info.state, key, key_cache)
            if builder is not None:
                dst_id, _new = builder.node(key, config.max_depth - depth + 1)
                builder.edge(src_id, dst_id, _rule_id(info))
            if key not in seen:
                seen.add(key)
                dedup_misses += 1
                stack.append((info.state, depth - 1))
            else:
                dedup_hits += 1
        if builder is not None:
            builder.frontier(len(stack))
            if not progressed:
                builder.mark(src_id, "stuck")
        if len(stack) > peak_frontier:
            peak_frontier = len(stack)
        if not progressed:
            # Stuck non-terminal state (e.g. unfulfillable promises):
            # contributes no behavior, matching the inductive Def 5.2.
            stuck += 1
    if depth_bound_hit and not state_bound_hit and stream is not None:
        stream.emit("truncation", span="psna.explore", reason=DEPTH_BOUND,
                    states=states, last_rule=stream.last_rule)
    if builder is not None:
        if cert_cache is not None:
            builder.set_cert_cache(len(cert_cache.entries), cert_cache.hits,
                                   cert_cache.misses)
        registry = obs.metrics()
        if registry is not None:
            registry.inc("graph.psna.explore.states", len(builder.nodes))
            registry.inc("graph.psna.explore.edges",
                         sum(builder.out_degrees.values()))
            registry.inc("graph.psna.explore.dedup_hits",
                         builder.dedup_hits)
            registry.inc("graph.psna.explore.dedup_misses",
                         builder.dedup_misses)
    registry = obs.metrics()
    if registry is not None and key_cache is not None:
        registry.observe("span.psna.intern.encode", key_cache.encode_s)
        registry.inc("psna.intern.entries", len(key_cache.interner))
    reason = (STATE_BOUND if state_bound_hit
              else DEPTH_BOUND if depth_bound_hit else None)
    return Exploration(
        behaviors, reason is None, states,
        incomplete_reason=reason, stuck_states=stuck,
        dedup_hits=dedup_hits, dedup_misses=dedup_misses,
        peak_frontier=peak_frontier,
        cert_cache_hits=cert_cache.hits if cert_cache else 0,
        cert_cache_misses=cert_cache.misses if cert_cache else 0,
        key_cache_hits=key_cache.hits if key_cache else 0,
        key_cache_misses=key_cache.misses if key_cache else 0)


def behavior_leq(target: PsResult, source: PsResult) -> bool:
    """``r_tgt ⊑ r_src`` (Def 5.3, extended with syscall traces)."""
    if isinstance(source, PsBottom):
        prefix = target.syscalls[: len(source.syscalls)]
        return _calls_leq(prefix, source.syscalls)
    if isinstance(target, PsBottom):
        return False
    if len(target.returns) != len(source.returns):
        return False
    if not _calls_leq(target.syscalls, source.syscalls):
        return False
    return all(value_leq(t, s)
               for t, s in zip(target.returns, source.returns))


def _calls_leq(target: tuple[tuple[str, Value], ...],
               source: tuple[tuple[str, Value], ...]) -> bool:
    if len(target) != len(source):
        return False
    return all(tn == sn and value_leq(tv, sv)
               for (tn, tv), (sn, sv) in zip(target, source))
