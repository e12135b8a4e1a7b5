"""Deterministic time/visit attribution over the span hierarchy.

``--profile`` answers "where did the wall-clock go?" per span *name*;
this module answers it per span *stack* and per *semantic rule*.  An
:class:`AttribRecorder` rides on the observability session: every
completed span contributes one frame keyed by its full ancestor stack,
carrying self-time (duration minus child-span time), total time, and a
visit count.  On top of the frames, the session's ``rule.*`` counters
are apportioned under the phase spans that own them (PS^na exploration
and certification, the SC baseline, SEQ closure, the refinement game,
optimizer passes, fuzz oracles), so the profile charges time to the
operational rules of the paper rather than to Python functions.

Determinism contract (CI-checked): the *set* of stacks is a pure
function of the workload — spans and rules fire deterministically — so
two runs produce identical stack sets and only the sample weights
(seconds) differ.  This holds across ``--jobs`` values too: worker
processes record frames in their own sessions and the parent folds them
in with :meth:`AttribRecorder.merge_snapshot`, which is commutative and
keyed only by stack.

Two export formats:

* ``repro-attrib/1`` — the JSON payload (:func:`attrib_payload`),
  validated by :func:`validate_attrib_payload`;
* folded stacks (:func:`render_folded`) — ``a;b;c <weight>`` lines with
  integer microsecond weights, directly consumable by speedscope and
  Brendan Gregg's ``flamegraph.pl``.
"""

from __future__ import annotations

from typing import Iterable, Optional

ATTRIB_SCHEMA = "repro-attrib/1"

#: Synthetic frame prefix marking an apportioned rule (not a real span).
RULE_FRAME_PREFIX = "rule:"

#: Root used for rule counters whose owning phase span never fired.
UNATTRIBUTED = "(unattributed)"

#: Which span name owns each ``rule.<family>.`` counter family.  A rule
#: family is apportioned under every recorded stack whose leaf is its
#: phase span, weighted by that stack's share of the phase's self-time.
RULE_PHASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("rule.psna.thread.", ("psna.explore",)),
    ("rule.psna.machine.", ("psna.explore",)),
    ("rule.psna.cert.", ("psna.cert",)),
    ("rule.psna.sc.", ("psna.sc",)),
    ("rule.seq.machine.", ("seq.closure",)),
    ("rule.seq.game.", ("seq.check.simple", "seq.check.advanced")),
)


class AttribRecorder:
    """Accumulates per-stack frames; installed via ``obs.start(attrib=...)``.

    ``frames`` maps a span-stack tuple to ``[self_s, total_s, visits]``.
    Self-time is exact: a depth-aligned accumulator tracks how much of
    each open span was spent in child spans, so the self-times of all
    frames sum to the total time spent under top-level spans (the
    invariant the tests check).
    """

    __slots__ = ("frames", "_child")

    def __init__(self) -> None:
        self.frames: dict[tuple[str, ...], list] = {}
        self._child: list[float] = [0.0]

    # -- span hooks (called by obs.trace.Span) ----------------------------

    def on_enter(self) -> None:
        self._child.append(0.0)

    def on_exit(self, stack: tuple[str, ...], duration: float) -> None:
        children = self._child.pop()
        self._child[-1] += duration
        stat = self.frames.get(stack)
        if stat is None:
            stat = self.frames[stack] = [0.0, 0.0, 0]
        stat[0] += max(0.0, duration - children)
        stat[1] += duration
        stat[2] += 1

    # -- read side --------------------------------------------------------

    @property
    def total_s(self) -> float:
        """Total attributed time: the sum of all frames' self-time."""
        return sum(stat[0] for stat in self.frames.values())

    def snapshot(self) -> dict:
        """A picklable copy: stack tuple -> (self_s, total_s, visits)."""
        return {stack: tuple(stat) for stack, stat in self.frames.items()}

    def merge_snapshot(self, frames: dict) -> None:
        """Fold a worker's :meth:`snapshot` in.  The merge adds per
        stack, so it is commutative: the result does not depend on the
        order in which workers finish."""
        for stack, (self_s, total_s, visits) in frames.items():
            stat = self.frames.get(stack)
            if stat is None:
                stat = self.frames[stack] = [0.0, 0.0, 0]
            stat[0] += self_s
            stat[1] += total_s
            stat[2] += visits


def _rule_phase(rule_counter: str) -> Optional[tuple[str, ...]]:
    for prefix, phases in RULE_PHASES:
        if rule_counter.startswith(prefix):
            return phases
    return None


def rule_frames(frames: dict, counters: dict) -> dict:
    """Apportion ``rule.*`` counters into synthetic child frames.

    Each rule family's firings attach under every recorded stack whose
    leaf is one of the family's phase spans; the phase's self-time is
    split across its rules by visit share, and across multiple stacks
    by each stack's share of the phase's total self-time.  Rules whose
    phase span never fired land under :data:`UNATTRIBUTED` so no firing
    silently vanishes.  Returns ``stack -> (est_s, visits)``.
    """
    by_leaf: dict[str, list[tuple[tuple[str, ...], float]]] = {}
    for stack, stat in frames.items():
        by_leaf.setdefault(stack[-1], []).append((stack, stat[0]))

    families: dict[tuple[str, ...], dict[str, int]] = {}
    for name, count in counters.items():
        if not name.startswith("rule.") or not count:
            continue
        phases = _rule_phase(name)
        key = phases if phases is not None else (UNATTRIBUTED,)
        families.setdefault(key, {})[name] = count

    result: dict[tuple[str, ...], tuple[float, int]] = {}
    for phases, rules in families.items():
        hosts = [entry for phase in phases
                 for entry in by_leaf.get(phase, [])]
        total_self = sum(self_s for _, self_s in hosts)
        total_count = sum(rules.values())
        if not hosts:
            hosts = [((UNATTRIBUTED,), 0.0)]
            total_self = 0.0
        for stack, self_s in hosts:
            share = (self_s / total_self) if total_self > 0 \
                else 1.0 / len(hosts)
            for rule, count in rules.items():
                est = self_s * (count / total_count) if total_self > 0 \
                    else 0.0
                frame = stack + (RULE_FRAME_PREFIX + rule[len("rule."):],)
                prev_s, prev_n = result.get(frame, (0.0, 0))
                result[frame] = (prev_s + est,
                                 prev_n + round(count * share))
    return result


def attrib_payload(recorder_or_frames, counters: Optional[dict] = None,
                   meta: Optional[dict] = None) -> dict:
    """The stable ``repro-attrib/1`` JSON form of one attribution run."""
    frames = (recorder_or_frames.frames
              if isinstance(recorder_or_frames, AttribRecorder)
              else recorder_or_frames)
    rows = [{"stack": list(stack), "self_s": stat[0],
             "total_s": stat[1], "visits": stat[2]}
            for stack, stat in sorted(frames.items())]
    rules = [{"stack": list(stack), "est_s": est_s, "visits": visits}
             for stack, (est_s, visits)
             in sorted(rule_frames(frames, counters or {}).items())]
    payload = {
        "schema": ATTRIB_SCHEMA,
        "total_s": sum(stat[0] for stat in frames.values()),
        "frames": rows,
        "rules": rules,
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


def validate_attrib_payload(payload: dict) -> list[str]:
    """Structural problems of an attrib payload (empty = valid)."""
    problems = []
    if payload.get("schema") != ATTRIB_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {ATTRIB_SCHEMA!r}")
    total = payload.get("total_s")
    if not isinstance(total, (int, float)) or total < 0:
        problems.append(f"total_s = {total!r} is not a non-negative number")
    for section, required in (("frames", ("stack", "self_s", "total_s",
                                          "visits")),
                              ("rules", ("stack", "est_s", "visits"))):
        rows = payload.get(section)
        if not isinstance(rows, list):
            problems.append(f"missing/non-list section {section!r}")
            continue
        for index, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"{section}[{index}] is not an object")
                continue
            for key in required:
                if key not in row:
                    problems.append(f"{section}[{index}] lacks {key!r}")
            stack = row.get("stack")
            if not isinstance(stack, list) or not stack or not all(
                    isinstance(part, str) and part for part in stack):
                problems.append(f"{section}[{index}].stack is not a "
                                f"non-empty list of names")
    return problems


def folded_lines(payload: dict) -> list[str]:
    """``a;b;c <microseconds>`` lines, sorted, zero-weight lines kept.

    Self-time (not total) is exported, the folded-stack convention —
    a frame's total re-emerges as the sum over its subtree.  Rule
    frames export their estimated share.  Weights are integer
    microseconds; a stack that fired but measured below 1µs still
    exports (weight 0) so the stack *set* is timing-independent.
    """
    lines = []
    for row in payload.get("frames", []):
        lines.append(f"{';'.join(row['stack'])} "
                     f"{round(row['self_s'] * 1e6)}")
    for row in payload.get("rules", []):
        lines.append(f"{';'.join(row['stack'])} "
                     f"{round(row['est_s'] * 1e6)}")
    return sorted(lines)


def render_folded(payload: dict) -> str:
    return "\n".join(folded_lines(payload)) + "\n"


def write_folded(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        handle.write(render_folded(payload))


def read_folded_stacks(source: Iterable[str]) -> set[str]:
    """The stack set of a folded export (weights stripped) — what the
    determinism tests compare across runs and ``--jobs`` values."""
    stacks = set()
    for line in source:
        line = line.strip()
        if line:
            stacks.add(line.rsplit(" ", 1)[0])
    return stacks


def render_attrib_table(payload: dict, title: str = "attribution",
                        top: int = 20) -> str:
    """The top-N hotspot table: deepest self-time first, rules inline."""
    rows = [(tuple(row["stack"]), row["self_s"], row["total_s"],
             row["visits"], False)
            for row in payload.get("frames", [])]
    rows += [(tuple(row["stack"]), row["est_s"], row["est_s"],
              row["visits"], True)
             for row in payload.get("rules", [])]
    if not rows:
        return f"-- {title}: no spans recorded --"
    total = payload.get("total_s", 0.0) or 0.0
    rows.sort(key=lambda r: (-r[1], r[0]))
    shown = rows[:max(1, top)]
    width = max(len(";".join(stack)) for stack, *_ in shown)
    lines = [f"-- {title}: total {total:.4f}s self-time, "
             f"top {len(shown)}/{len(rows)} frames --",
             f"{'stack':<{width}}  {'self_s':>9}  {'%':>6}  "
             f"{'total_s':>9}  {'visits':>8}"]
    for stack, self_s, total_s, visits, is_rule in shown:
        name = ";".join(stack)
        share = (self_s / total * 100.0) if total > 0 else 0.0
        marker = "~" if is_rule else " "
        lines.append(f"{name:<{width}}  {self_s:>9.4f}  {share:>5.1f}% "
                     f"{marker}{total_s:>9.4f}  {visits:>8}")
    lines.append("(~ marks estimated rule apportionment, not a measured "
                 "span)")
    return "\n".join(lines)
