"""Parallel sweep runner: fan independent cases across a process pool.

The litmus catalog, the adequacy context library, and the coverage
workload are embarrassingly parallel — every case is a pure function of
a small picklable descriptor (a case name, a program text, a config).
:func:`run_sweep` runs such a sweep either in-process (``jobs <= 1``,
the exact serial code path) or across a ``multiprocessing`` spawn pool,
and in both modes returns ``(payload, counters)`` pairs *in descriptor
order*, so callers render byte-identical output regardless of ``jobs``.

Observability composes across the process boundary: each worker runs its
case inside its own :func:`repro.obs.session`, ships the resulting
metrics snapshot back (snapshots are plain dicts, picklable by
construction), and the parent folds it into its active registry via
:meth:`MetricsRegistry.merge_snapshot` — the same merge discipline the
``obs.collect_into`` collector uses inside one process.  Trace *events*
are per-process and not forwarded; counters and histograms are.

Spawn-safety: workers are module-level functions (pickled by qualified
name) over primitive descriptors, so the pool works identically under
``fork`` and ``spawn`` start methods; ``spawn`` is used explicitly to
keep every platform on the strictest semantics.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from multiprocessing import get_context
from typing import Callable, Optional, Sequence

from . import obs
from .obs import telemetry
from .obs.attrib import merge_frames
from .psna import certstore

#: One sweep result: the worker's payload plus the counters its case
#: produced (empty when no observability session was active in serial
#: mode).
SweepResult = tuple[object, dict]


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the machine's CPU count."""
    return os.cpu_count() or 1


class Heartbeat:
    """The ``--progress`` reporter: a periodic one-liner on stderr.

    Deliberately boring: a plain ``\\r``-free line every ``interval_s``
    seconds (so CI logs stay readable), counting cases done, failures
    (per the caller's ``is_failure`` predicate), and elapsed wall-clock.
    Writes to stderr only — stdout summaries stay machine-parseable.
    Use as the ``progress`` callback of :func:`run_sweep`.
    """

    def __init__(self, label: str, total: Optional[int] = None,
                 is_failure: Optional[Callable[[object], bool]] = None,
                 interval_s: float = 2.0, stream=None) -> None:
        self.label = label
        self.total = total
        self.is_failure = is_failure
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.failures = 0
        self._started = time.monotonic()
        self._last_emit = self._started
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def __call__(self, payload) -> None:
        self.done += 1
        if self.is_failure is not None and self.is_failure(payload):
            self.failures += 1
        now = time.monotonic()
        if now - self._last_emit >= self.interval_s:
            self._last_emit = now
            self.emit()

    def update(self, done: int) -> None:
        """Set absolute progress (for phases that report counts, not
        per-payload completions — e.g. a witness search's states)."""
        self.done = done
        now = time.monotonic()
        if now - self._last_emit >= self.interval_s:
            self._last_emit = now
            self.emit()

    def start_ticker(self) -> None:
        """Emit on a timer even when no completion callbacks arrive.

        Used by phases with no internal progress hook (e.g. replaying
        one fuzz crash): a daemon thread prints the heartbeat line every
        ``interval_s`` seconds until :meth:`finish` is called, so a hung
        or slow run still shows elapsed wall-clock.
        """
        if self._ticker is not None:
            return

        def _tick() -> None:
            while not self._stop.wait(self.interval_s):
                self.emit()

        self._ticker = threading.Thread(target=_tick, daemon=True)
        self._ticker.start()

    def emit(self) -> None:
        elapsed = time.monotonic() - self._started
        span = f"{self.done}" if self.total is None \
            else f"{self.done}/{self.total}"
        print(f"{self.label}: {span} done, "
              f"{self.failures} failure(s), {elapsed:.0f}s elapsed",
              file=self.stream)

    def finish(self) -> None:
        """One final line so short runs still report something."""
        if self._ticker is not None:
            self._stop.set()
            self._ticker.join(timeout=1.0)
            self._ticker = None
        self.emit()


def run_sweep(worker: Callable[[object], object],
              descriptors: Sequence[object],
              jobs: int = 1,
              progress: Optional[Callable[[object], None]] = None,
              ) -> list[SweepResult]:
    """Run ``worker`` over ``descriptors``, serially or in a pool.

    ``worker`` must be a module-level (picklable) function; descriptors
    must be picklable.  Results preserve descriptor order.  With
    ``jobs <= 1`` (or a single descriptor) no pool is created and the
    worker runs in-process — inside the caller's observability session
    when one is active.  ``progress`` (e.g. a :class:`Heartbeat`) is
    called once per completed case, in completion order, with the
    case's payload.
    """
    items = list(descriptors)
    if jobs <= 1 or len(items) <= 1:
        return _run_serial(worker, items, progress)
    return _run_parallel(worker, items, jobs, progress)


def _run_serial(worker, items, progress=None) -> list[SweepResult]:
    registry = obs.metrics()
    results: list[SweepResult] = []
    for descriptor in items:
        if registry is None:
            payload = worker(descriptor)
            results.append((payload, {}))
        else:
            before = registry.snapshot()
            payload = worker(descriptor)
            delta = obs.diff_snapshots(before, registry.snapshot())
            results.append((payload, delta["counters"]))
        if progress is not None:
            progress(payload)
    return results


def _subprocess_entry(task):
    """Pool entry point: run one case inside a fresh obs session.

    The worker session mirrors the parent's attribution setting: spans
    record against a fresh (empty) span stack, which matches the serial
    CLI path — commands do not wrap sweeps in an enclosing span — so
    frame stacks are identical across ``--jobs`` values.

    Graph telemetry travels as a stats-only snapshot (elements stay in
    the worker — element ids are process-local); events travel as the
    worker's drained ring, replayed into the parent stream tagged with
    the case index so the merged stream is deterministic in descriptor
    order.

    Tasks dispatched by the verification service carry an optional
    trailing :class:`repro.obs.telemetry.TraceContext` — the request's
    trace id crossing the pickle boundary.  It is bound for the task's
    duration and the drained event ring is stamped with the trace id
    before shipping back, so worker-side spans arrive in the parent
    already attributed to the originating request.  Sweep tasks omit
    the element and nothing changes.
    """
    worker, descriptor, want_attrib, want_graph, want_events, \
        monitor_spec, *rest = task
    trace_context = rest[0] if rest else None
    checker = None
    if monitor_spec is not None:
        # The monitor travels as its (mode, stride) spec — Monitor
        # objects themselves never cross the process boundary, only
        # their commutative snapshots do (the --graph-stats discipline).
        checker = obs.Monitor(monitor_spec[0], monitor_spec[1])
    if trace_context is not None:
        telemetry.bind(trace_context)
    try:
        with obs.session(attrib=want_attrib, graph=want_graph,
                         stream=True if want_events else None,
                         monitor=checker) as session:
            payload = worker(descriptor)
            snapshot = session.metrics.snapshot()
            frames = session.attrib.snapshot() if session.attrib else {}
            graph_snapshot = session.graph.snapshot() \
                if session.graph else None
            events = session.events.drain() if session.events else None
            monitor_snapshot = session.monitor.snapshot() \
                if session.monitor else None
    finally:
        telemetry.clear()
    telemetry.stamp_events(events, trace_context)
    store = certstore.active()
    store_shipment = store.drain() if store is not None else None
    return payload, snapshot, frames, graph_snapshot, events, \
        monitor_snapshot, store_shipment


def _worker_init(store_dir) -> None:
    """Spawn-pool initializer: open the persistent cert store once per
    worker process.  Workers never write segments themselves — their
    pending entries are drained per task and shipped to the parent,
    which owns the single close-time segment write.  Every worker loads
    the same on-disk snapshot the parent did, so store hits (and
    therefore verdicts, counters, and monitor checks) are identical to
    the serial path."""
    if store_dir is not None:
        certstore.bind(certstore.CertStore(store_dir))


def _run_parallel(worker, items, jobs: int,
                  progress=None) -> list[SweepResult]:
    registry = obs.metrics()
    recorder = obs.attribution()
    graph = obs.graph()
    stream = obs.stream()
    checker = obs.monitor()
    store = certstore.active()
    context = get_context("spawn")
    tasks = [(worker, descriptor, recorder is not None, graph is not None,
              stream is not None,
              (checker.mode, checker.stride) if checker is not None
              else None)
             for descriptor in items]
    results: list[SweepResult] = []
    with context.Pool(processes=min(jobs, len(items)),
                      initializer=_worker_init,
                      initargs=(store.directory if store is not None
                                else None,)) as pool:
        for index, (payload, snapshot, frames, graph_snapshot, events,
                    monitor_snapshot, store_shipment) \
                in enumerate(pool.imap(_subprocess_entry, tasks)):
            if registry is not None:
                registry.merge_snapshot(snapshot)
            if store is not None:
                store.absorb(store_shipment)
            if recorder is not None and frames:
                merge_frames(recorder, frames)
            if graph is not None and graph_snapshot is not None:
                graph.merge_snapshot(graph_snapshot)
            if checker is not None and monitor_snapshot is not None:
                checker.merge_snapshot(monitor_snapshot)
            if stream is not None and events is not None:
                if events["dropped"]:
                    stream.emit("worker-drop", case=index,
                                dropped=events["dropped"])
                for event in events["events"]:
                    stream.replay(event, case=index)
            counters = {name: value
                        for name, value in snapshot["counters"].items()
                        if value}
            results.append((payload, counters))
            if progress is not None:
                progress(payload)
    return results


# ---------------------------------------------------------------------------
# Workers (module-level so the spawn pool can pickle them by name)
# ---------------------------------------------------------------------------

#: The keys (and order) of one ``repro litmus --format json`` row.  The
#: CLI and the verification service both select these from
#: :func:`litmus_case_worker` payloads, and the service client from the
#: rows it receives, which is what makes HTTP and CLI verdicts
#: byte-identical.
LITMUS_ROW_KEYS = ("case", "expected", "measured", "agree", "complete",
                   "incomplete_reasons", "game_states")


def litmus_case_worker(name: str) -> dict:
    """Check one transformation case of the catalog by name.

    Returns a plain-dict row (the CLI's JSON row plus ``time_s``) so the
    result crosses the process boundary without dragging verdict
    objects along.
    """
    from .litmus import case_by_name
    from .seq import check_transformation

    case = case_by_name(name)
    started = time.perf_counter()
    verdict = check_transformation(case.source, case.target)
    elapsed = time.perf_counter() - started
    measured = verdict.notion if verdict.valid else "invalid"
    return {
        "case": case.name,
        "expected": case.expected,
        "measured": measured,
        "agree": measured == case.expected,
        "complete": verdict.complete,
        "incomplete_reasons": list(verdict.incomplete_reasons),
        "game_states": verdict.game_states,
        "time_s": elapsed,
    }


def adequacy_context_worker(descriptor) -> tuple[str, bool, bool]:
    """Check Theorem 6.2 for one concurrent context.

    The descriptor is ``(source_text, target_text, context_name,
    thread_texts, config)`` — programs travel as WHILE source, the
    config as a (picklable) :class:`PsConfig`.
    """
    from .adequacy import Context, check_one_context
    from .lang.parser import parse

    source_text, target_text, context_name, thread_texts, config = descriptor
    source = parse(source_text)
    target = parse(target_text)
    context = Context(context_name,
                      tuple(parse(text) for text in thread_texts))
    result = check_one_context(source, target, context, config)
    return (context_name, bool(result.verdict.refines),
            bool(result.verdict.complete))
