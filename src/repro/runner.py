"""Parallel sweep runner: fan independent cases across a process pool.

The litmus catalog, the adequacy context library, and the coverage
workload are embarrassingly parallel — every case is a pure function of
a small picklable descriptor (a case name, a program text, a config).
:func:`run_sweep` runs such a sweep either in-process (``jobs <= 1``,
the exact serial code path) or across a ``multiprocessing`` spawn pool,
and in both modes returns ``(payload, counters)`` pairs *in descriptor
order*, so callers render byte-identical output regardless of ``jobs``.

Observability composes across the process boundary.  A pool task is
``(worker, descriptor, spec)``, where ``spec`` is the parent session's
:meth:`repro.obs.ObsSession.worker_spec`.  :func:`run_task` runs the
case inside a fresh :func:`repro.obs.session` opened with ``spec`` and
returns the payload with the session's :meth:`~repro.obs.ObsSession.
export`: metrics, attribution frames, graph stats, monitor counts and
the drained event ring, as one picklable dict.  The parent folds each
export in with :meth:`~repro.obs.ObsSession.absorb`, in descriptor
order, so events replay tagged with their case index.  The
verification service runs its jobs through the same :func:`run_task`:
in process at ``--jobs 1``, otherwise through :func:`_subprocess_entry`
in spawn workers that each run :func:`_serve_worker`, one task at a
time over the worker's own pipe.

Spawn-safety: workers are module-level functions (pickled by qualified
name) over primitive descriptors, so they work identically under
``fork`` and ``spawn`` start methods; ``spawn`` is used explicitly to
keep every platform on the strictest semantics.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
from multiprocessing import get_context
from typing import Callable, Optional, Sequence

from . import obs
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
    Use as the ``progress`` callback of :func:`run_sweep`; calls from
    several threads (the service's completions) are serialized.
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
        self._lock = threading.Lock()

    def __call__(self, payload) -> None:
        with self._lock:
            self.done += 1
            if self.is_failure is not None and self.is_failure(payload):
                self.failures += 1
            self._maybe_emit()

    def update(self, done: int) -> None:
        """Set absolute progress (for phases that report counts, not
        per-payload completions — e.g. a witness search's states)."""
        with self._lock:
            self.done = done
            self._maybe_emit()

    def _maybe_emit(self) -> None:
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


def run_task(task) -> tuple[object, dict]:
    """Run one case in a fresh obs session, in the calling process.

    ``task`` is ``(worker, descriptor, spec)`` with ``spec`` the
    :func:`repro.obs.session` keywords.  Returns the payload and the
    session's :meth:`~repro.obs.ObsSession.export`, taken before the
    session closes.  Spans record against a fresh span stack, which
    matches the serial CLI path (commands do not wrap sweeps in an
    enclosing span), so frame stacks are identical across ``--jobs``.
    """
    worker, descriptor, spec = task
    with obs.session(**spec) as session:
        payload = worker(descriptor)
        shipment = session.export()
    return payload, shipment


def _subprocess_entry(task):
    """Worker entry point: :func:`run_task`, then the worker's pending
    cert-store entries, which the parent's store absorbs and writes.
    Returns ``(payload, shipment, store_shipment)``."""
    payload, shipment = run_task(task)
    store = certstore.active()
    return payload, shipment, store.drain() if store is not None else None


def _portable(error: Exception) -> Exception:
    """``error``, or a ``RuntimeError`` carrying its text when it does
    not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:  # noqa: BLE001 — any pickling failure
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def _serve_worker(conn, initializer, initargs) -> None:
    """Spawn target of one service worker, at the far end of ``conn``.

    Calls ``initializer(*initargs)`` and sends ``None`` (ready), then
    answers each task ``conn`` delivers with :func:`_subprocess_entry`'s
    triple, or with the exception it raised, until a ``None`` sentinel.
    Returning (rather than being terminated) lets multiprocessing's exit
    finalizers run.  SIGINT is ignored: the service drains its jobs on
    Ctrl-C, and a worker that died of it would fail the job it was
    running.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    initializer(*initargs)
    try:
        conn.send(None)
    except OSError:  # the service is gone
        return
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the service is gone
            return
        if task is None:
            return
        try:
            reply = _subprocess_entry(task)
        except Exception as error:  # noqa: BLE001 — fails the job only
            reply = _portable(error)
        try:
            conn.send(reply)
        except OSError:  # the service is gone
            return


def _worker_init(store_dir) -> None:
    """Worker initializer (sweep pools and service workers): open the
    persistent cert store once per worker process.  Workers never write
    segments themselves — their pending entries are drained per task
    and shipped to the parent, which owns the single close-time segment
    write.  Every worker loads the same on-disk snapshot the parent did,
    so store hits (and therefore verdicts, counters, and monitor checks)
    are identical to the serial path."""
    if store_dir is not None:
        certstore.bind(certstore.CertStore(store_dir))


def _run_parallel(worker, items, jobs: int,
                  progress=None) -> list[SweepResult]:
    session = obs.active()
    spec = session.worker_spec() if session is not None else {}
    store = certstore.active()
    context = get_context("spawn")
    tasks = [(worker, descriptor, spec) for descriptor in items]
    results: list[SweepResult] = []
    with context.Pool(processes=min(jobs, len(items)),
                      initializer=_worker_init,
                      initargs=(store.directory if store is not None
                                else None,)) as pool:
        for index, (payload, shipment, store_shipment) \
                in enumerate(pool.imap(_subprocess_entry, tasks)):
            if session is not None:
                session.absorb(shipment, case=index)
            if store is not None:
                store.absorb(store_shipment)
            counters = {name: value
                        for name, value
                        in shipment["metrics"]["counters"].items()
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
