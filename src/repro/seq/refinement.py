"""Behavioral refinement checking in SEQ (Defs 2.3/2.4 and Fig 2/Def 3.3).

The checker plays a refinement game between a *target* configuration and a
*frontier* of source configurations that have matched the target's trace so
far.  At every game state it discharges the local obligations of the
refinement definitions:

* every partial target behavior ``⟨tr, prt(F_tgt)⟩`` needs a source match;
* a terminated target needs a terminated source with related value,
  written set and memory;
* a target that reached ⊥ needs a source that reaches ⊥;
* every labeled target step needs ⊑-related source steps (keeping *all*
  matches in the frontier).

Simple mode implements Def 2.3/2.4 exactly: source traces pair with target
traces pointwise and the source may only take *unlabeled* extra steps.

Advanced mode implements Fig 2/Def 3.3: the game additionally tracks a
commitment set ``R`` per frontier element, release labels are matched up
to ``R``, and the source may run *labeled* acquire-free suffixes — "late
UB" and commitment fulfillment — constrained by an adversarial oracle
family (:mod:`repro.seq.oracle`).

Verdicts: ``VIOLATES`` always carries a concrete counterexample (initial
state + target trace + failed obligation) and is exact for the given
universe.  ``REFINES`` is exact for simple mode (within the step bounds)
and family-relative for advanced mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .. import obs
from ..lang.ast import Stmt
from ..lang.values import value_leq
from ..util.fmap import FrozenMap
from .behavior import iter_initial_configs
from .labels import (
    AcqFenceLabel,
    AcqReadLabel,
    ChooseLabel,
    RelFenceLabel,
    RelWriteLabel,
    RlxReadLabel,
    RlxWriteLabel,
    SeqLabel,
    StrippedLabel,
    SyscallLabel,
    fmap_leq,
    is_acquire,
    label_leq,
    strip,
)
from ..obs.events import STATE_EVENT_INTERVAL
from .machine import (
    SeqConfig,
    SeqUniverse,
    classify_seq_step,
    seq_steps,
    seq_transitions,
    universe_for,
)
from .oracle import OracleDefaults, _stripped_leq, default_oracle_family


@dataclass(frozen=True)
class Limits:
    """Exploration bounds; exceeding any bound clears ``complete``."""

    max_game_states: int = 60_000
    max_closure_states: int = 6_000
    max_escape_states: int = 6_000
    max_frontier: int = 4_000


@dataclass(frozen=True)
class Counterexample:
    """A concrete witness that refinement fails."""

    initial: SeqConfig
    trace: tuple[SeqLabel, ...]
    reason: str
    defaults: Optional[OracleDefaults] = None

    def __repr__(self) -> str:
        oracle = f" (oracle {self.defaults})" if self.defaults else ""
        return (f"counterexample at init {self.initial!r}: after trace "
                f"{list(self.trace)}: {self.reason}{oracle}")


@dataclass
class Verdict:
    """Result of a refinement check.

    When ``complete`` is False, ``incomplete_reasons`` names every
    exhausted bound (``"game-states"``, ``"closure-states"``,
    ``"escape-states"``, ``"frontier"``) so callers can report *which*
    budget truncated the search rather than a bare boolean.
    """

    refines: bool
    complete: bool
    mode: str
    counterexample: Optional[Counterexample] = None
    game_states: int = 0
    incomplete_reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.refines

    def __repr__(self) -> str:
        status = "REFINES" if self.refines else "VIOLATES"
        reasons = (f" ({', '.join(self.incomplete_reasons)})"
                   if self.incomplete_reasons else "")
        suffix = "" if self.complete else f" (bounds hit; incomplete{reasons})"
        extra = (f": {self.counterexample!r}"
                 if self.counterexample is not None else "")
        return f"{status}[{self.mode}]{suffix}{extra}"


#: Game-move rule IDs (``rule.seq.game.*``) for the semantic-coverage
#: layer.  The four obligation kinds mirror Defs 2.3/2.4 and Fig 2; the
#: remaining moves are the mechanics the definitions quantify over
#: (closures, escape searches, oracle queries, commitment updates) plus
#: the terminal "a counterexample was produced" move.
GAME_RULE_TAGS: tuple[str, ...] = (
    "bottom-prune", "terminal", "partial", "label", "closure", "escape",
    "oracle-query", "commitment", "counterexample",
)


@dataclass(frozen=True)
class _Item:
    """A frontier element: a source configuration plus its commitments."""

    cfg: SeqConfig
    commitments: frozenset[str]


def _replay(entry: tuple[tuple, tuple[str, ...]], registry
            ) -> Iterator[tuple[Optional[SeqLabel], SeqConfig]]:
    """Yield a step-table entry, firing each step's counter on the way."""
    for step, rule in zip(*entry):
        registry.inc(rule)
        yield step


@dataclass
class _Escape:
    """Result of a source suffix search from one frontier element."""

    bottom: bool
    coverages: frozenset[frozenset[str]]
    complete: bool


class _Game:
    """One refinement game (fixed universe, mode and oracle defaults).

    :meth:`run` plays it from one initial configuration pair; the checks
    call it once per initial configuration, and the caches, the step
    table and the counters (``game_states`` included) accumulate
    across those runs.
    """

    def __init__(self, universe: SeqUniverse, advanced: bool,
                 defaults: Optional[OracleDefaults], limits: Limits,
                 caching: bool = True) -> None:
        self.universe = universe
        self.advanced = advanced
        self.defaults = defaults or OracleDefaults()
        self.limits = limits
        self.caching = caching
        self.complete = True
        self._escape_cache: dict[tuple[SeqConfig, frozenset[StrippedLabel]],
                                 _Escape] = {}
        # Closure memoization + frontier interning: games revisit the
        # same pre-closure frontier through different target paths, and
        # interned (identical) frontiers make the `seen` keys compare by
        # identity first.  Both are per-game (fixed universe/limits).
        self._closure_cache: dict[frozenset[_Item], frozenset[_Item]] = {}
        self._frontier_intern: dict[frozenset[_Item], frozenset[_Item]] = {}
        # Successor table: closures, escapes and the target step revisit
        # configurations, and ``_run`` re-enumerates every source item's
        # steps once per target label.  Also per-game.
        self._step_table: dict[SeqConfig, tuple[tuple, tuple[str, ...]]] = {}
        self.game_states = 0
        # Search counters, kept as plain locals-on-self (cheap increments)
        # and flushed into the obs registry by the check_* entry points.
        self.incomplete_reasons: set[str] = set()
        self.dedup_hits = 0
        self.escape_searches = 0
        self.escape_cache_hits = 0
        self.closure_cache_hits = 0
        self.oracle_queries = 0
        self.obligations = {"bottom-prune": 0, "terminal": 0,
                            "partial": 0, "label": 0}
        self.closures = 0
        self.commitment_updates = 0
        self.peak_frontier = 0
        self.cex_depth: Optional[int] = None

    # -- transitions -------------------------------------------------------

    def _steps(self, cfg: SeqConfig
               ) -> Iterable[tuple[Optional[SeqLabel], SeqConfig]]:
        """``seq_steps(cfg, universe)``, enumerated once per game.

        Later calls read the table.  Under an obs session a read replays
        the ``rule.seq.machine.*`` counters one per step as the caller
        consumes it, as ``seq_steps`` fires them, so a caller that stops
        part-way (a counterexample) counts exactly what it consumed.
        """
        if not self.caching:
            return seq_steps(cfg, self.universe)
        entry = self._step_table.get(cfg)
        if entry is None:
            entry = self._step_table[cfg] = seq_transitions(cfg,
                                                            self.universe)
        registry = obs.metrics()
        if registry is None:
            return entry[0]
        return _replay(entry, registry)

    # -- source closures -------------------------------------------------

    def _close(self, items: Iterable[_Item]) -> frozenset[_Item]:
        """Unlabeled closure of frontier items (silent + non-atomic steps).

        Memoized per pre-closure frontier, and the resulting frontier is
        interned so value-equal frontiers are one object game-wide.
        """
        base = frozenset(items)
        if self.caching:
            cached = self._closure_cache.get(base)
            if cached is not None:
                self.closure_cache_hits += 1
                return cached
        self.closures += 1
        seen: set[_Item] = set(base)
        stack = list(seen)
        while stack:
            if len(seen) > self.limits.max_closure_states:
                self.complete = False
                self.incomplete_reasons.add("closure-states")
                stream = obs.stream()
                if stream is not None:
                    stream.emit("truncation", span="seq.closure",
                                reason="closure-states", states=len(seen),
                                last_rule=stream.last_rule)
                break
            item = stack.pop()
            cfg = item.cfg
            if cfg.is_bottom() or cfg.is_terminated():
                continue
            for label, successor in self._steps(cfg):
                if label is None:
                    candidate = _Item(successor, item.commitments)
                    if candidate not in seen:
                        seen.add(candidate)
                        stack.append(candidate)
        result = frozenset(seen)
        if self.caching:
            result = self._frontier_intern.setdefault(result, result)
            self._closure_cache[base] = result
        return result

    def _suffix_allowed(self, label: SeqLabel,
                        script: frozenset[StrippedLabel]) -> bool:
        """May the source take ``label`` in an acquire-free suffix?

        Off-script transitions follow the oracle defaults; additionally,
        any stripped label from the matched prefix is allowed — a sound
        over-approximation of trace membership for the constructed
        oracle (which can only make the checker *accept* more, keeping
        VIOLATES verdicts exact).
        """
        if is_acquire(label):
            return False
        from .oracle import TraceOracle  # local: avoid import cycle

        self.oracle_queries += 1
        oracle = TraceOracle((), self.defaults)
        stripped = strip(label)
        if oracle.allows_offscript(stripped):
            return True
        return any(_stripped_leq(entry, stripped) for entry in script)

    def _escape(self, item: _Item,
                script: frozenset[StrippedLabel]) -> _Escape:
        """Search acquire-free, oracle-allowed suffixes from ``item``.

        Returns whether ⊥ is reachable (beh-failure) and the set of
        "coverage" sets ``F_src ∪ ⋃{F | Wrel(..,F,..) ∈ suffix}``
        reachable (beh-partial).  In simple mode suffixes are unlabeled
        only, so everything a search reaches is already in the closed
        frontier: simple games search only where
        :meth:`_frontier_decides_prune` says the frontier cannot decide.
        """
        key = (item.cfg, script if self.advanced else frozenset())
        cached = self._escape_cache.get(key)
        if cached is not None:
            self.escape_cache_hits += 1
            return cached
        self.escape_searches += 1
        bottom = False
        coverages: set[frozenset[str]] = set()
        complete = True
        seen: set[tuple[SeqConfig, frozenset[str]]] = set()
        stack: list[tuple[SeqConfig, frozenset[str]]] = [
            (item.cfg, frozenset())]
        while stack:
            if len(seen) > self.limits.max_escape_states:
                complete = False
                # Previously only recorded on the _Escape and never read:
                # a truncated suffix search must clear the game's
                # completeness bit, or a REFINES verdict could claim to
                # be exact while escapes went unexplored.
                self.complete = False
                self.incomplete_reasons.add("escape-states")
                stream = obs.stream()
                if stream is not None:
                    stream.emit("truncation", span="seq.escape",
                                reason="escape-states", states=len(seen),
                                last_rule=stream.last_rule)
                break
            cfg, rel_written = stack.pop()
            if (cfg, rel_written) in seen:
                continue
            seen.add((cfg, rel_written))
            coverages.add(cfg.written | rel_written)
            if cfg.is_bottom():
                bottom = True
                continue
            if cfg.is_terminated():
                continue
            for label, successor in self._steps(cfg):
                if label is None:
                    stack.append((successor, rel_written))
                    continue
                if not self.advanced:
                    continue  # simple mode: unlabeled suffixes only
                if not self._suffix_allowed(label, script):
                    continue
                next_rel = rel_written
                if isinstance(label, (RelWriteLabel, RelFenceLabel)):
                    next_rel = rel_written | label.written
                stack.append((successor, next_rel))
        result = _Escape(bottom, frozenset(coverages), complete)
        self._escape_cache[key] = result
        return result

    def _frontier_decides_prune(self, frontier: frozenset[_Item]) -> bool:
        """May the beh-failure prune read ``frontier`` instead of running
        an escape search from each item?

        In simple mode an escape follows unlabeled steps only, and
        :meth:`_close` closed the frontier under them, so ⊥ is reachable
        from some item iff some item is ⊥.  That holds while no closure
        truncated, and while the frontier is within the escape bound (a
        search from it cannot truncate).  Without caching every search
        runs, so the uncached game stays the reference.
        """
        return (not self.advanced and self.caching
                and len(frontier) <= self.limits.max_escape_states
                and "closure-states" not in self.incomplete_reasons)

    # -- label matching ----------------------------------------------------

    def _match_label(self, tgt_label: SeqLabel, src_label: SeqLabel,
                     commitments: frozenset[str],
                     ) -> Optional[frozenset[str]]:
        """Match one label pair; return the new commitment set or None.

        Simple mode uses the plain order ``e_tgt ⊑ e_src`` (Def 2.3) and
        keeps the commitment set empty.  Advanced mode implements the
        per-rule premises of Fig 2.
        """
        if not self.advanced:
            return frozenset() if label_leq(tgt_label, src_label) else None

        if isinstance(tgt_label, (ChooseLabel, RlxReadLabel, SyscallLabel)):
            return commitments if tgt_label == src_label else None
        if isinstance(tgt_label, RlxWriteLabel):
            if (isinstance(src_label, RlxWriteLabel)
                    and tgt_label.loc == src_label.loc
                    and value_leq(tgt_label.value, src_label.value)):
                return commitments
            return None
        if isinstance(tgt_label, AcqReadLabel):
            if (isinstance(src_label, AcqReadLabel)
                    and tgt_label.loc == src_label.loc
                    and tgt_label.value == src_label.value
                    and tgt_label.perms_before == src_label.perms_before
                    and tgt_label.perms_after == src_label.perms_after
                    and tgt_label.gained == src_label.gained
                    and tgt_label.written | commitments
                    <= src_label.written):
                return frozenset()
            return None
        if isinstance(tgt_label, AcqFenceLabel):
            if (isinstance(src_label, AcqFenceLabel)
                    and tgt_label.perms_before == src_label.perms_before
                    and tgt_label.perms_after == src_label.perms_after
                    and tgt_label.gained == src_label.gained
                    and tgt_label.written | commitments
                    <= src_label.written):
                return frozenset()
            return None
        if isinstance(tgt_label, (RelWriteLabel, RelFenceLabel)):
            if isinstance(tgt_label, RelWriteLabel):
                if not (isinstance(src_label, RelWriteLabel)
                        and tgt_label.loc == src_label.loc
                        and value_leq(tgt_label.value, src_label.value)):
                    return None
            else:
                if not isinstance(src_label, RelFenceLabel):
                    return None
            if (tgt_label.perms_before != src_label.perms_before
                    or tgt_label.perms_after != src_label.perms_after):
                return None
            # R' = (R \ F_src) ∪ (F_tgt \ F_src) ∪ {y | V_tgt(y) ⋢ V_src(y)}
            src_written = src_label.written
            mismatched = frozenset(
                loc for loc in tgt_label.released
                if not value_leq(tgt_label.released[loc],
                                 src_label.released.get(loc)))
            return ((commitments - src_written)
                    | (tgt_label.written - src_written)
                    | mismatched)
        return None

    # -- the game ----------------------------------------------------------

    def run(self, tgt0: SeqConfig, src0: SeqConfig,
            record: Optional[set] = None) -> Optional[Counterexample]:
        """Play the game; return a counterexample or None (refines).

        When ``record`` is given, every visited game state (a target
        configuration with its matched source frontier) is added to it —
        the raw material of a refinement certificate
        (:mod:`repro.seq.certificate`).

        With a state-graph recorder active (``--graph``/``--graph-stats``)
        each run additionally records its game graph: nodes are the
        deduplicated ``(target, frontier)`` pairs, edges carry the
        ``rule.seq.machine.*`` id of the target step that produced them.
        """
        recorder = obs.graph()
        stream = obs.stream()
        builder = recorder.builder("seq.game") if recorder is not None \
            else None
        checker = obs.monitor()
        probe = checker.probe("seq.game") if checker is not None else None
        try:
            return self._run(tgt0, src0, record, builder, stream, probe)
        finally:
            if builder is not None:
                self._flush_graph(builder)

    def _flush_graph(self, builder) -> None:
        registry = obs.metrics()
        if registry is None:
            return
        registry.inc("graph.seq.game.states", len(builder.nodes))
        registry.inc("graph.seq.game.edges",
                     sum(builder.out_degrees.values()))
        registry.inc("graph.seq.game.dedup_hits", builder.dedup_hits)
        registry.inc("graph.seq.game.dedup_misses", builder.dedup_misses)

    def _run(self, tgt0: SeqConfig, src0: SeqConfig,
             record: Optional[set], builder,
             stream, probe=None) -> Optional[Counterexample]:
        frontier0 = self._close([_Item(src0, frozenset())])
        stack: list[tuple[SeqConfig, frozenset[_Item],
                          tuple[SeqLabel, ...]]] = [(tgt0, frontier0, ())]
        seen: set[tuple[SeqConfig, frozenset[_Item]]] = set()
        if record is not None:
            record.add((tgt0, frontier0))
        initial = tgt0
        recording = builder is not None or stream is not None
        if builder is not None:
            builder.node((tgt0, frontier0), 0)

        registry = obs.metrics()
        while stack:
            tgt, frontier, trace = stack.pop()
            key = (tgt, frontier)
            if key in seen:
                self.dedup_hits += 1
                continue
            seen.add(key)
            if record is not None:
                record.add(key)
            self.game_states += 1
            if probe is not None:
                probe.game_state(frontier, self.advanced)
            if self.game_states > self.limits.max_game_states:
                self.complete = False
                self.incomplete_reasons.add("game-states")
                if builder is not None:
                    builder.truncated()
                if stream is not None:
                    stream.emit("truncation", span="seq.game",
                                reason="game-states",
                                states=self.game_states,
                                last_rule=stream.last_rule)
                return None
            if len(frontier) > self.peak_frontier:
                self.peak_frontier = len(frontier)
            cur_id = -1
            if builder is not None:
                cur_id = builder.node_id(key, len(trace))
                builder.frontier(len(frontier))
            if stream is not None \
                    and self.game_states % STATE_EVENT_INTERVAL == 0:
                stream.emit("state", span="seq.game",
                            states=self.game_states,
                            frontier=len(frontier), depth=len(trace))
            if registry is not None:
                registry.observe("seq.game.frontier", len(frontier))
                registry.observe(
                    "seq.game.commitments",
                    max((len(item.commitments) for item in frontier),
                        default=0))

            # beh-failure prune: a source that reaches ⊥ matches anything.
            escapes: Optional[dict[_Item, _Escape]] = None
            if self._frontier_decides_prune(frontier):
                pruned = any(item.cfg.is_bottom() for item in frontier)
            else:
                script = frozenset(strip(label) for label in trace)
                escapes = {item: self._escape(item, script)
                           for item in frontier}
                pruned = any(escape.bottom for escape in escapes.values())
            if pruned:
                self.obligations["bottom-prune"] += 1
                if builder is not None:
                    builder.mark(cur_id, "pruned")
                continue

            if tgt.is_bottom():
                if builder is not None:
                    builder.mark(cur_id, "counterexample")
                return Counterexample(
                    initial, trace,
                    "target reaches UB but the source cannot", self.defaults
                    if self.advanced else None)

            if tgt.is_terminated():
                if not any(self._terminal_match(tgt, item)
                           for item in frontier):
                    if builder is not None:
                        builder.mark(cur_id, "counterexample")
                    return Counterexample(
                        initial, trace,
                        f"no source termination matches "
                        f"trm({tgt.thread.return_value()},"
                        f"{set(tgt.written) or '{}'},{tgt.memory})",
                        self.defaults if self.advanced else None)
                self.obligations["terminal"] += 1
                if builder is not None:
                    builder.mark(cur_id, "terminal")
                continue

            # beh-partial obligation for ⟨trace, prt(F_tgt)⟩.
            if not self._partial_match(tgt, frontier, escapes):
                if builder is not None:
                    builder.mark(cur_id, "counterexample")
                return Counterexample(
                    initial, trace,
                    f"no source matches partial behavior "
                    f"prt({set(tgt.written) or '{}'})",
                    self.defaults if self.advanced else None)
            self.obligations["partial"] += 1

            action = tgt.thread.peek() if recording else None
            for label, tgt_next in self._steps(tgt):
                if label is None:
                    if recording:
                        rule = ("rule.seq.machine."
                                + classify_seq_step(tgt, action, None))
                        if stream is not None:
                            stream.last_rule = rule
                        if builder is not None:
                            dst_id, _new = builder.node(
                                (tgt_next, frontier), len(trace))
                            builder.edge(cur_id, dst_id, rule)
                    stack.append((tgt_next, frontier, trace))
                    continue
                next_items: set[_Item] = set()
                for item in frontier:
                    cfg = item.cfg
                    if cfg.is_bottom() or cfg.is_terminated():
                        continue
                    for src_label, src_next in self._steps(cfg):
                        if src_label is None:
                            continue
                        updated = self._match_label(label, src_label,
                                                    item.commitments)
                        if updated is not None:
                            if updated != item.commitments:
                                self.commitment_updates += 1
                            next_items.add(_Item(src_next, updated))
                if len(next_items) > self.limits.max_frontier:
                    self.complete = False
                    self.incomplete_reasons.add("frontier")
                    if builder is not None:
                        builder.truncated()
                    if stream is not None:
                        stream.emit("truncation", span="seq.game",
                                    reason="frontier",
                                    states=self.game_states,
                                    last_rule=stream.last_rule)
                    continue
                next_frontier = self._close(next_items)
                if not next_frontier:
                    if builder is not None:
                        builder.mark(cur_id, "counterexample")
                    return Counterexample(
                        initial, trace + (label,),
                        f"no source step matches target label {label!r}",
                        self.defaults if self.advanced else None)
                self.obligations["label"] += 1
                if probe is not None:
                    probe.game_push(next_items, next_frontier)
                if recording:
                    rule = ("rule.seq.machine."
                            + classify_seq_step(tgt, action, label))
                    if stream is not None:
                        stream.last_rule = rule
                    if builder is not None:
                        dst_id, _new = builder.node(
                            (tgt_next, next_frontier), len(trace) + 1)
                        builder.edge(cur_id, dst_id, rule)
                stack.append((tgt_next, next_frontier, trace + (label,)))
        return None

    def flush_metrics(self) -> None:
        """Fold this game's local counters into the active obs session."""
        registry = obs.metrics()
        if registry is None:
            return
        registry.inc("seq.game.states", self.game_states)
        registry.inc("seq.game.dedup_hits", self.dedup_hits)
        registry.inc("seq.game.escape_searches", self.escape_searches)
        registry.inc("seq.game.escape_cache_hits", self.escape_cache_hits)
        registry.inc("seq.game.closure_cache_hits", self.closure_cache_hits)
        registry.inc("seq.game.oracle_queries", self.oracle_queries)
        for kind, count in self.obligations.items():
            if count:
                registry.inc(f"seq.game.obligations.{kind}", count)
                registry.inc(f"rule.seq.game.{kind}", count)
        for reason in self.incomplete_reasons:
            registry.inc(f"seq.game.incomplete.{reason}")
        if self.closures:
            registry.inc("rule.seq.game.closure", self.closures)
        if self.escape_searches:
            registry.inc("rule.seq.game.escape", self.escape_searches)
        if self.oracle_queries:
            registry.inc("rule.seq.game.oracle-query", self.oracle_queries)
        if self.commitment_updates:
            registry.inc("rule.seq.game.commitment", self.commitment_updates)
        registry.observe("seq.game.peak_frontier", self.peak_frontier)
        if self.cex_depth is not None:
            registry.inc("rule.seq.game.counterexample")
            registry.observe("seq.game.cex_depth", self.cex_depth)

    def _terminal_match(self, tgt: SeqConfig, item: _Item) -> bool:
        cfg = item.cfg
        if not cfg.is_terminated():
            return False
        required = tgt.written | item.commitments
        return (value_leq(tgt.thread.return_value(),
                          cfg.thread.return_value())
                and required <= cfg.written
                and fmap_leq(tgt.memory, cfg.memory))

    def _partial_match(self, tgt: SeqConfig, frontier: frozenset[_Item],
                       escapes: Optional[dict[_Item, _Escape]]) -> bool:
        """Advanced mode reads the escapes' coverages, simple mode the
        frontier's written sets (``escapes`` may be None there)."""
        for item in frontier:
            required = tgt.written | item.commitments
            if self.advanced:
                if any(required <= coverage
                       for coverage in escapes[item].coverages):
                    return True
            else:
                if required <= item.cfg.written:
                    return True
        return False


def _as_config(program: Stmt | SeqConfig,
               template: SeqConfig) -> SeqConfig:
    if isinstance(program, SeqConfig):
        return program
    return SeqConfig.initial(program, template.perms, template.memory,
                             template.written)


def check_simple_refinement(source: Stmt, target: Stmt,
                            universe: Optional[SeqUniverse] = None,
                            limits: Limits = Limits(),
                            caching: bool = True) -> Verdict:
    """Check ``σ_tgt ⊑ σ_src`` (Def 2.4) over all initial ⟨P, F, M⟩.

    ``source {~> target`` is a valid transformation iff this returns
    REFINES.  One game plays every initial configuration in turn; the
    verdict's ``game_states`` counts the states it visited.
    ``caching=False`` disables the game's successor table and its
    closure/frontier caches, and runs an escape search from every
    frontier item where the cached game reads the beh-failure prune off
    the closed frontier: the reference game, for ablation and
    correctness testing only.
    """
    if universe is None:
        universe = universe_for(source, target)
    game = _Game(universe, advanced=False, defaults=None, limits=limits,
                 caching=caching)
    states = 0
    with obs.span("seq.check.simple"):
        cex = None
        for tgt0 in iter_initial_configs(target, universe):
            src0 = SeqConfig.initial(source, tgt0.perms, tgt0.memory,
                                     tgt0.written)
            cex = game.run(tgt0, src0)
            states = game.game_states
            if cex is not None:
                game.cex_depth = len(cex.trace)
                break
    game.flush_metrics()
    obs.inc("seq.check.simple")
    if cex is not None:
        return Verdict(False, True, "simple", cex, states)
    return Verdict(True, game.complete, "simple", None, states,
                   tuple(sorted(game.incomplete_reasons)))


def check_advanced_refinement(source: Stmt, target: Stmt,
                              universe: Optional[SeqUniverse] = None,
                              limits: Limits = Limits(),
                              family: Optional[tuple[OracleDefaults, ...]]
                              = None,
                              caching: bool = True) -> Verdict:
    """Check ``σ_tgt ⊑w σ_src`` (Def 3.3) against an oracle family.

    A VIOLATES verdict exhibits a genuine oracle + behavior witness; a
    REFINES verdict means no family member falsifies refinement.  Each
    family member gets one game over every initial configuration; the
    verdict's ``game_states`` sums the states of the games played.
    ``caching`` is as for :func:`check_simple_refinement`.
    """
    if universe is None:
        universe = universe_for(source, target)
    if family is None:
        family = default_oracle_family(universe.values)
    obs.gauge("seq.check.oracle_family_size", len(family))
    states = 0
    complete = True
    reasons: set[str] = set()
    with obs.span("seq.check.advanced"):
        for defaults in family:
            game = _Game(universe, advanced=True, defaults=defaults,
                         limits=limits, caching=caching)
            cex = None
            for tgt0 in iter_initial_configs(target, universe):
                src0 = SeqConfig.initial(source, tgt0.perms, tgt0.memory,
                                         tgt0.written)
                cex = game.run(tgt0, src0)
                if cex is not None:
                    break
            # game_states is cumulative over the initial configurations.
            states += game.game_states
            if cex is not None:
                game.cex_depth = len(cex.trace)
                game.flush_metrics()
                obs.inc("seq.check.advanced")
                return Verdict(False, True, "advanced", cex, states)
            complete = complete and game.complete
            reasons |= game.incomplete_reasons
            game.flush_metrics()
    obs.inc("seq.check.advanced")
    return Verdict(True, complete, "advanced", None, states,
                   tuple(sorted(reasons)))


@dataclass
class TransformationVerdict:
    """Combined verdict: which refinement notion validates ``src {~> tgt``."""

    simple: Verdict
    advanced: Optional[Verdict]

    @property
    def valid(self) -> bool:
        if self.simple.refines:
            return True
        return self.advanced is not None and self.advanced.refines

    @property
    def notion(self) -> str:
        if self.simple.refines:
            return "simple"
        if self.advanced is not None and self.advanced.refines:
            return "advanced"
        return "none"

    @property
    def game_states(self) -> int:
        """Total game states explored across both notions."""
        return self.simple.game_states + (
            self.advanced.game_states if self.advanced is not None else 0)

    @property
    def complete(self) -> bool:
        return self.simple.complete and (self.advanced is None
                                         or self.advanced.complete)

    @property
    def incomplete_reasons(self) -> tuple[str, ...]:
        reasons = set(self.simple.incomplete_reasons)
        if self.advanced is not None:
            reasons |= set(self.advanced.incomplete_reasons)
        return tuple(sorted(reasons))

    def __repr__(self) -> str:
        return f"transformation {'VALID' if self.valid else 'INVALID'} " \
               f"(notion: {self.notion})"


def check_transformation(source: Stmt, target: Stmt,
                         universe: Optional[SeqUniverse] = None,
                         limits: Limits = Limits(),
                         caching: bool = True) -> TransformationVerdict:
    """Validate ``source {~> target``: try simple, then advanced.

    By Prop 3.4 simple refinement implies advanced refinement, so the
    advanced check only runs when the simple one fails.  ``caching``
    reaches both checkers (see :func:`check_simple_refinement`).
    """
    simple = check_simple_refinement(source, target, universe, limits,
                                     caching=caching)
    if simple.refines:
        verdict = TransformationVerdict(simple, None)
    else:
        advanced = check_advanced_refinement(source, target, universe,
                                             limits, caching=caching)
        verdict = TransformationVerdict(simple, advanced)
    obs.inc("seq.check.transformations")
    obs.inc(f"seq.check.notion.{verdict.notion}")
    return verdict
