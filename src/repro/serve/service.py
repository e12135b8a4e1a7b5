"""The verification service engine (transport-agnostic).

:class:`VerificationService` owns the job registry, the queue, the
workers, and the verdict store; the HTTP front end
(:mod:`repro.serve.http`) and the tests drive it directly.

Life of a job
    ``submit`` normalizes the request (:mod:`repro.serve.jobs`),
    content-addresses it, and then — in order — **dedups** against a
    live job with the same digest (identical queries share one job id
    and one execution), **consults the verdict store** (a hit creates
    an already-``done`` job, ``cached=True``, without touching the
    queue), or **enqueues**.  A drainer thread pops the queue and builds
    one task for the job, ``(serve_job_worker, canonical request,
    {"stream": True})``.  At ``jobs <= 1`` one drainer runs the task in
    process with :func:`repro.runner.run_task`.  Otherwise each of
    ``jobs`` drainers owns one spawn worker
    (:func:`repro.runner._serve_worker`) and a duplex pipe to it: it
    sends the task, waits for the reply from the
    ``_subprocess_entry`` the ``--jobs`` sweeps use, and finishes the
    job on its own thread.  Either way the job comes back as its payload
    and its session's export (counters and the drained event ring), so
    both modes finish a job through the same code.  A worker that dies
    fails the job it was running (``worker exited with code N``) and is
    replaced; one found dead before a send is replaced first, so its
    death fails no job.

Progress
    Every job carries its own ``repro-events/1`` NDJSON buffer: the
    queued/start markers, the worker's replayed events, the ``result``
    event, a ``coverage`` event with the job's ``rule.*`` counters, and
    a final ``stream-end`` sentinel (which ``repro query --follow``
    exits on).  HTTP streaming readers block on a condition variable
    and see lines as they are appended.  A :class:`repro.runner.
    Heartbeat` reports service-level throughput on stderr when enabled.

Telemetry
    Every job owns a :class:`repro.obs.telemetry.JobTrace`: phase
    spans for normalization, the store consult, queue wait, worker
    execution and stream render, sealed by a root ``serve.request``
    span — served as ``repro-trace/1`` NDJSON at
    ``GET /v1/jobs/<id>/trace``.  No trace context travels with the
    task: when the worker's events come back, the service parents its
    spans on the job's ``serve.execute`` span and stamps every replayed
    event with the job's trace id.  A :class:`repro.serve.metrics.
    ServiceMetrics` registry (``GET /v1/metrics``) keeps the
    deterministic counters and fixed-bucket latency histograms, plus
    queue-depth/in-flight/utilization gauges sampled by the drainer.
    The service process records every one of them itself, whichever
    process ran the job.
    When a verdict store is configured, an append-only **audit
    ledger** (``audit.jsonl`` beside the store segments) records one
    line per submission and one per completion — who asked, what,
    when, under which trace, and the verdict digest they got.

Shutdown
    ``shutdown(drain=True)`` stops intake (late submissions raise
    :class:`ServiceClosed` → HTTP 503), waits for every queued and
    in-flight job to finish, stops the drainers and the workers (a
    worker that does not exit in time is terminated), closes the
    stores, and only then returns — no accepted job is ever dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Optional

from .. import __version__, runner
from ..obs import telemetry
from ..obs.events import EventStream
from ..psna import certstore
from ..psna.semantics import SEMANTICS_VERSION
from . import jobs as jobmod
from .metrics import ServiceMetrics
from .store import VerdictStore

#: Job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Seconds to wait for a worker process to exit (after its sentinel, or
#: after its pipe broke) before terminating it.
WORKER_EXIT_TIMEOUT_S = 10.0


class ServiceClosed(Exception):
    """Submission after shutdown began."""


class _LineSink:
    """File-like adapter: an :class:`EventStream` writes line + newline +
    flush; complete lines land in the job's buffer on flush."""

    def __init__(self, job: "Job", service: "VerificationService") -> None:
        self._job = job
        self._service = service
        self._pending = ""

    def write(self, text: str) -> None:
        self._pending += text

    def flush(self) -> None:
        while "\n" in self._pending:
            line, self._pending = self._pending.split("\n", 1)
            self._service._append_event_line(self._job, line)


class _AuditLedger:
    """Append-only ``audit.jsonl`` beside the verdict store.

    One JSON line per submission and per completion, flushed per line
    (the store's kill-safety discipline): who asked (client address),
    what (job id, kind, digest), when, under which trace, where the
    answer came from, and the verdict digest it resolved to.  Write
    failures are swallowed — the ledger is evidence, not a
    dependency.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8")
        except OSError:
            self._handle = None

    def record(self, event: str, **fields) -> None:
        if self._handle is None:
            return
        entry = {"t": time.time(), "event": event, **fields}
        line = json.dumps(entry, sort_keys=True, default=repr)
        with self._lock:
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


class _Worker:
    """One spawn worker running :func:`repro.runner._serve_worker` and
    the service's end of its duplex pipe.  Its initializer is
    ``runner._worker_init`` as of the moment the worker starts, with
    the directory of the process's cert store."""

    def __init__(self) -> None:
        context = get_context("spawn")
        parent = certstore.active()
        store_dir = parent.directory if parent is not None else None
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=runner._serve_worker,
            args=(child, runner._worker_init, (store_dir,)),
            name="repro-serve-worker", daemon=True)
        self.process.start()
        child.close()
        self.ready = False

    def wait_ready(self) -> bool:
        """Block until the worker has run its initializer; False when it
        died first."""
        if not self.ready:
            try:
                self.conn.recv()
            except (EOFError, OSError):
                self.reap(WORKER_EXIT_TIMEOUT_S)
                return False
            self.ready = True
        return True

    def call(self, task: tuple):
        """Send ``task`` and return the reply.  Raises ``RuntimeError``
        naming the exit code when the worker dies before replying."""
        try:
            self.conn.send(task)
            return self.conn.recv()
        except (EOFError, OSError):
            self.reap(WORKER_EXIT_TIMEOUT_S)
            raise RuntimeError(f"worker exited with code "
                               f"{self.process.exitcode}") from None

    def stop(self) -> None:
        """Send the sentinel: the worker exits after its current task."""
        try:
            self.conn.send(None)
        except OSError:
            pass

    def reap(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the process to exit; terminate it
        if it has not."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)


def _verdict_digest(result: dict) -> str:
    """A short content digest of a result payload for audit lines."""
    text = json.dumps(result, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode("utf-8"),
                           digest_size=8).hexdigest()


@dataclass
class Job:
    """One verification job and its live NDJSON event buffer."""

    id: str
    digest: str
    canonical: dict
    state: str = "queued"
    cached: bool = False
    result: Optional[dict] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    event_lines: list[str] = field(default_factory=list)
    stream_done: bool = False
    #: The job's one EventStream (created at submit time, reused through
    #: start/completion so the buffer is a single valid repro-events/1
    #: stream with monotonic sequence numbers).
    stream: Optional[EventStream] = None
    #: The request-scoped trace (see :mod:`repro.obs.telemetry`).
    trace: Optional[telemetry.JobTrace] = None
    #: Submitting client address (audit ledger's "who").
    client: Optional[str] = None
    #: perf_counter marks for the queue-wait and execute phase spans.
    enqueued_perf: Optional[float] = None
    execute_started_perf: Optional[float] = None
    #: Span id of the serve.execute phase, which the worker's spans
    #: parent on when they are folded in.
    execute_span: Optional[str] = None

    def status(self) -> dict:
        """The ``GET /v1/jobs/<id>`` body."""
        body = {"job": self.id, "kind": self.canonical["kind"],
                "state": self.state, "cached": self.cached}
        if self.trace is not None:
            body["trace"] = self.trace.trace_id
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


class VerificationService:
    """See the module docstring."""

    def __init__(self, jobs: int = 1,
                 store_dir: Optional[str] = None,
                 max_program_bytes: int = jobmod.DEFAULT_MAX_PROGRAM_BYTES,
                 heartbeat: Optional[runner.Heartbeat] = None) -> None:
        self.jobs = max(1, jobs)
        self.max_program_bytes = max_program_bytes
        self.heartbeat = heartbeat
        # resolve_dir handles all three cases: an explicit directory, the
        # REPRO_CACHE_DIR default, and the "off"/"none" disable spelling.
        directory = certstore.resolve_dir(store_dir)
        self.store: Optional[VerdictStore] = (
            VerdictStore(directory) if directory is not None else None)
        self.metrics = ServiceMetrics()
        self.audit: Optional[_AuditLedger] = (
            _AuditLedger(os.path.join(directory, "audit.jsonl"))
            if directory is not None else None)
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._by_id: dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._closed = False
        self._inflight = 0
        self.submitted = 0
        self.deduped = 0
        self.executed = 0
        self.failed = 0
        #: One spawn worker per drainer at ``jobs > 1``; None in process
        #: and once shutdown has stopped them.
        self._workers: Optional[list[_Worker]] = None
        self._workers_lock = threading.Lock()
        slots: list[Optional[int]] = [None]
        if self.jobs > 1:
            self._workers = [_Worker() for _ in range(self.jobs)]
            slots = list(range(self.jobs))
        self._drainers = [
            threading.Thread(target=self._drain, args=(slot,),
                             daemon=True, name="repro-serve-drainer")
            for slot in slots]
        for drainer in self._drainers:
            drainer.start()

    # -- events -----------------------------------------------------------

    def _append_event_line(self, job: Job, line: str) -> None:
        with self._cond:
            job.event_lines.append(line)
            self._cond.notify_all()

    def _job_stream(self, job: Job) -> EventStream:
        # "job_kind", not "kind": EventStream.emit's first positional is
        # the event kind, and meta keys arrive as keyword arguments.
        return EventStream(_LineSink(job, self),
                           meta={"job": job.id,
                                 "job_kind": job.canonical["kind"],
                                 "semantics": SEMANTICS_VERSION})

    # -- submission -------------------------------------------------------

    def submit(self, body: object, trace_id: Optional[str] = None,
               client: Optional[str] = None) -> tuple[Job, str]:
        """Normalize, dedup, consult the store, enqueue.

        Returns ``(job, served_from)`` where ``served_from`` describes
        *this submission*: ``"store"`` (answered from the verdict index
        without spawning a worker), ``"dedup"`` (attached to a live job
        with the same content address), or ``"queue"`` (a fresh
        execution).  Raises :class:`repro.serve.jobs.RequestError` on
        malformed input and :class:`ServiceClosed` once shutdown has
        begun.

        ``trace_id`` (the sanitized ``X-Repro-Trace`` header, if any)
        names the trace a *new* job records under; it never reaches
        the canonical request, so the content address is unaffected.
        ``client`` is the submitter's address for the audit ledger.
        """
        wall_start = time.time()
        perf_start = time.perf_counter()
        try:
            canonical = jobmod.normalize_request(
                body, max_program_bytes=self.max_program_bytes)
        except jobmod.RequestError:
            self.metrics.inc("requests.rejected")
            raise
        normalize_s = time.perf_counter() - perf_start
        digest = jobmod.request_digest(canonical)
        job_id = "j-" + digest
        kind = canonical["kind"]
        metrics = self.metrics
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            metrics.inc("requests.total")
            metrics.inc(f"requests.kind.{kind}")
            metrics.observe("normalize.s", normalize_s)
            existing = self._by_id.get(job_id)
            if existing is not None:
                self.deduped += 1
                if existing.state == "done" \
                        and existing.result is not None:
                    # A finished job re-submitted IS a verdict-store
                    # answer: the registry entry is the index's
                    # in-memory image (count the hit for the stats).
                    if self.store is not None:
                        self.store.get(digest)
                    metrics.inc("served.store")
                    # This submission is answered *now* — its latency
                    # is the serving overhead, and it belongs in the
                    # histogram: warm traffic is what collapses p95.
                    metrics.observe("request.latency_s",
                                    time.time() - wall_start)
                    self._audit_submission(existing, client, "store")
                    return existing, "store"
                metrics.inc("served.dedup")
                self._audit_submission(existing, client, "dedup")
                return existing, "dedup"
            self.submitted += 1
            job = Job(id=job_id, digest=digest, canonical=canonical,
                      client=client)
            job.trace = telemetry.JobTrace(
                trace_id=telemetry.sanitize_trace_id(trace_id),
                meta={"job": job_id, "job_kind": kind})
            job.trace.record("serve.normalize", normalize_s,
                             t=wall_start, job=job_id)
            self._by_id[job_id] = job
            consult_start = time.perf_counter()
            cached = self.store.get(digest) if self.store is not None \
                else None
            if self.store is not None:
                consult_s = time.perf_counter() - consult_start
                metrics.observe("store.consult_s", consult_s)
                job.trace.record("serve.store", consult_s, job=job_id,
                                 hit=cached is not None)
            if cached is not None:
                job.state = "done"
                job.cached = True
                job.result = cached
                job.finished_at = time.time()
                metrics.inc("served.store")
            else:
                self._inflight += 1
                metrics.inc("served.queue")
        job.stream = self._job_stream(job)
        if job.cached:
            render_start = time.perf_counter()
            job.stream.emit("event", name="job-cached", job=job.id,
                            trace=job.trace.trace_id)
            job.stream.emit("event", name="result", job=job.id,
                            cached=True, **job.result)
            self._finish_stream(job, job.stream, rules=None)
            render_s = time.perf_counter() - render_start
            job.trace.record("serve.render", render_s, job=job.id)
            metrics.observe("render.s", render_s)
            metrics.observe("request.latency_s",
                            time.time() - job.submitted_at)
            job.trace.close(job=job.id, state="done", cached=True)
            self._audit_submission(job, client, "store")
            self._audit_completion(job)
            return job, "store"
        job.stream.emit("event", name="job-queued", job=job.id,
                        trace=job.trace.trace_id,
                        label=jobmod.describe(job.canonical))
        job.enqueued_perf = time.perf_counter()
        self._queue.put(job)
        metrics.sample("queue.depth", self._queue.qsize())
        self._audit_submission(job, client, "queue")
        return job, "queue"

    def _audit_submission(self, job: Job, client: Optional[str],
                          served_from: str) -> None:
        if self.audit is None:
            return
        self.audit.record(
            "submitted", job=job.id, kind=job.canonical["kind"],
            digest=job.digest, client=client,
            trace=job.trace.trace_id if job.trace is not None else None,
            served_from=served_from)

    def _audit_completion(self, job: Job) -> None:
        if self.audit is None:
            return
        self.audit.record(
            "completed", job=job.id, kind=job.canonical["kind"],
            digest=job.digest, state=job.state, cached=job.cached,
            trace=job.trace.trace_id if job.trace is not None else None,
            verdict=_verdict_digest(job.result)
            if job.result is not None else None,
            error=job.error)

    def submit_batch(self, specs: list, trace_id: Optional[str] = None,
                     client: Optional[str] = None,
                     ) -> list[tuple[Job, str]]:
        if not isinstance(specs, list) or not specs:
            raise jobmod.RequestError(400, "bad-batch",
                                      "field 'jobs' must be a non-empty "
                                      "list of job specs")
        # A batch under one X-Repro-Trace is one client trace spanning
        # every job in it — each job still owns its root span.
        return [self.submit(spec, trace_id=trace_id, client=client)
                for spec in specs]

    # -- execution --------------------------------------------------------

    def _drain(self, slot: Optional[int]) -> None:
        """Run queued jobs until the sentinel: in process, or on the
        slot's worker.  A worker's drainer takes a job only once its
        worker is up, so jobs go first to the workers that are ready."""
        worker = None
        while True:
            if slot is not None:
                worker = self._ready_worker(slot)
            job = self._queue.get()
            if job is None:
                return
            self._sample_gauges()
            if slot is None:
                self._execute_local(job)
            else:
                self._execute_remote(slot, worker, job)

    def _sample_gauges(self) -> None:
        """Drainer-side load gauges: queue depth, in-flight jobs, and
        worker utilization (in-flight over capacity, clamped)."""
        with self._lock:
            inflight = self._inflight
        self.metrics.sample("queue.depth", self._queue.qsize())
        self.metrics.sample("inflight", inflight)
        self.metrics.sample("utilization",
                            min(1.0, inflight / self.jobs))

    def _start_job(self, job: Job) -> EventStream:
        with self._cond:
            job.state = "running"
            self._cond.notify_all()
        job.execute_started_perf = time.perf_counter()
        job.execute_span = telemetry.new_span_id()
        if job.trace is not None and job.enqueued_perf is not None:
            wait_s = job.execute_started_perf - job.enqueued_perf
            job.trace.record("serve.queue", wait_s, job=job.id)
            self.metrics.observe("queue.wait_s", wait_s)
        stream = job.stream
        stream.emit("event", name="job-start", job=job.id,
                    trace=job.trace.trace_id
                    if job.trace is not None else None)
        return stream

    @staticmethod
    def _task(job: Job) -> tuple:
        """The job's :func:`repro.runner.run_task` task.  The worker is
        looked up per job, so a wrapper installed on
        ``jobs.serve_job_worker`` after import is the one that runs."""
        return (jobmod.serve_job_worker, job.canonical, {"stream": True})

    def _execute_local(self, job: Job) -> None:
        stream = self._start_job(job)
        try:
            payload, shipment = runner.run_task(self._task(job))
        except Exception as error:  # noqa: BLE001 — jobs must not kill
            self._fail_job(job, stream, error)  # the drainer
            return
        self._complete_job(job, stream, payload, shipment)

    def _ready_worker(self, slot: int) -> Optional[_Worker]:
        """The slot's worker once it is up, replaced first if it has
        died; None once shutdown has stopped the workers."""
        while True:
            with self._workers_lock:
                if self._workers is None:
                    return None
                worker = self._workers[slot]
                if not worker.process.is_alive():
                    worker = self._workers[slot] = _Worker()
            if worker.wait_ready():
                return worker

    def _execute_remote(self, slot: int, worker: Optional[_Worker],
                        job: Job) -> None:
        """Run ``job`` on the slot's worker and finish it from the
        reply, on this drainer's thread.  A worker that died idle is
        replaced before the send; one that dies on the job fails it, and
        the drainer's next round replaces it."""
        if worker is not None and not worker.process.is_alive():
            worker = self._ready_worker(slot)
        stream = self._start_job(job)
        if worker is None:
            self._fail_job(job, stream,
                           ServiceClosed("service is shutting down"))
            return
        try:
            reply = worker.call(self._task(job))
        except Exception as error:  # noqa: BLE001 — jobs must not kill
            self._fail_job(job, stream, error)  # the drainer
            return
        if isinstance(reply, Exception):
            self._fail_job(job, stream, reply)
            return
        payload, shipment, store_shipment = reply
        parent = certstore.active()
        if parent is not None:
            parent.absorb(store_shipment)
        self._complete_job(job, stream, payload, shipment)

    def _record_execute(self, job: Job) -> None:
        if job.trace is None or job.execute_started_perf is None:
            return
        execute_s = time.perf_counter() - job.execute_started_perf
        job.trace.record("serve.execute", execute_s, job=job.id,
                         span_id=job.execute_span)
        self.metrics.observe("execute.s", execute_s)

    def _fold_worker_spans(self, job: Job, events: list) -> None:
        """Fold the worker's span-exit events into the job trace as
        depth-2 records parented on the serve.execute span — the
        worker-side half of the request's record set."""
        if job.trace is None:
            return
        for event in events:
            if event.get("ev") != "span-exit":
                continue
            job.trace.add(telemetry.span_record(
                event.get("name", "?"), event.get("t", 0.0),
                event.get("dur_s", 0.0), depth=2,
                trace=job.trace.trace_id, span=telemetry.new_span_id(),
                parent=job.execute_span, worker=True))

    def _complete_job(self, job: Job, stream: EventStream,
                      payload: dict, shipment: dict) -> None:
        """Finish an executed job from its payload and the
        :meth:`repro.obs.ObsSession.export` of the session it ran in."""
        self._record_execute(job)
        trace_id = job.trace.trace_id if job.trace is not None else None
        drained = shipment["events"]
        if drained["dropped"]:
            stream.emit("worker-drop", job=job.id,
                        dropped=drained["dropped"])
        self._fold_worker_spans(job, drained["events"])
        for event in drained["events"]:
            if event.get("ev") == "meta":
                continue
            stream.replay(event, job=job.id, trace=trace_id)
        render_start = time.perf_counter()
        if self.store is not None:
            self.store.put(job.digest, job.canonical["kind"], payload)
        # Round-trip the payload through JSON exactly once, like a store
        # hit: cold and warm responses are byte-identical by construction.
        result = json.loads(json.dumps(payload, default=repr))
        stream.emit("event", name="result", job=job.id, cached=False,
                    **result)
        rules = {name: value
                 for name, value in shipment["metrics"]["counters"].items()
                 if name.startswith("rule.") and value}
        with self._cond:
            job.state = "done"
            job.result = result
            job.finished_at = time.time()
            self.executed += 1
            self._inflight -= 1
            self._cond.notify_all()
        self._finish_stream(job, stream, rules=rules)
        render_s = time.perf_counter() - render_start
        self.metrics.inc("jobs.executed")
        self.metrics.observe("render.s", render_s)
        self.metrics.observe("request.latency_s",
                             job.finished_at - job.submitted_at)
        if job.trace is not None:
            job.trace.record("serve.render", render_s, job=job.id)
            job.trace.close(job=job.id, state="done", cached=False)
        self._audit_completion(job)
        if self.heartbeat is not None:
            self.heartbeat(job.status())

    def _fail_job(self, job: Job, stream: EventStream, error) -> None:
        self._record_execute(job)
        detail = f"{type(error).__name__}: {error}"
        stream.emit("event", name="job-failed", job=job.id, error=detail)
        with self._cond:
            job.state = "failed"
            job.error = detail
            job.finished_at = time.time()
            self.failed += 1
            self._inflight -= 1
            self._cond.notify_all()
        self._finish_stream(job, stream, rules=None)
        self.metrics.inc("jobs.failed")
        self.metrics.observe("request.latency_s",
                             job.finished_at - job.submitted_at)
        if job.trace is not None:
            job.trace.close(job=job.id, state="failed")
        self._audit_completion(job)
        if self.heartbeat is not None:
            self.heartbeat(job.status())

    def _finish_stream(self, job: Job, stream: EventStream,
                       rules: Optional[dict]) -> None:
        if rules:
            stream.emit("coverage", rules=rules)
        stream.emit("stream-end", job=job.id, state=job.state)
        stream.close()
        with self._cond:
            job.stream_done = True
            self._cond.notify_all()

    # -- queries ----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._by_id.get(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._by_id.get(job_id)
                if job is None:
                    raise KeyError(job_id)
                if job.state in ("done", "failed"):
                    return job
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return job
                self._cond.wait(remaining)

    def read_events(self, job_id: str, since: int = 0,
                    timeout: Optional[float] = None,
                    ) -> tuple[list[str], int, bool]:
        """Event lines from index ``since``; blocks until new lines or
        stream end.  Returns ``(lines, next_index, ended)``."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._cond:
            job = self._by_id.get(job_id)
            if job is None:
                raise KeyError(job_id)
            while True:
                if len(job.event_lines) > since:
                    lines = job.event_lines[since:]
                    return lines, since + len(lines), job.stream_done
                if job.stream_done:
                    return [], since, True
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return [], since, False
                self._cond.wait(remaining)

    def stats(self) -> dict:
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._by_id.values():
                states[job.state] += 1
            payload = {
                "service": "repro-serve/1",
                "version": __version__,
                "semantics": SEMANTICS_VERSION,
                "jobs": self.jobs,
                "uptime_s": time.time() - self.started_at,
                "submitted": self.submitted,
                "deduped": self.deduped,
                "executed": self.executed,
                "failed": self.failed,
                "states": states,
                "closed": self._closed,
            }
        if self.store is not None:
            payload["store"] = self.store.stats()
        return payload

    def metrics_payload(self) -> dict:
        """The ``repro-servemetrics/1`` body of ``GET /v1/metrics``.

        The verdict store's LRU counters fold in at snapshot time
        (``serve.store.lru_hits``/``serve.store.lru_misses``) — the
        store owns the counts, the metrics surface reports them.
        """
        # Re-sample the load gauges so a scrape reflects the service
        # *now*, not the last dequeue — an idle service must report
        # zero in-flight, even though the drainer has no reason to run.
        self._sample_gauges()
        payload = self.metrics.snapshot()
        if self.store is not None:
            store_stats = self.store.stats()
            payload["counters"]["serve.store.lru_hits"] = \
                store_stats["lru_hits"]
            payload["counters"]["serve.store.lru_misses"] = \
                store_stats["lru_misses"]
            payload["counters"] = dict(sorted(payload["counters"].items()))
        return payload

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop intake; optionally wait for in-flight jobs; close."""
        with self._cond:
            if self._closed:
                drain_needed = False
            else:
                self._closed = True
                drain_needed = drain
            if drain_needed:
                deadline = None if timeout is None \
                    else time.monotonic() + timeout
                while self._inflight > 0:
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        break
                    self._cond.wait(remaining)
        for _drainer in self._drainers:
            self._queue.put(None)
        for drainer in self._drainers:
            drainer.join(timeout=5.0)
        with self._workers_lock:
            workers, self._workers = self._workers or [], None
        for worker in workers:
            worker.stop()
        for worker in workers:
            worker.reap(WORKER_EXIT_TIMEOUT_S)
        if self.store is not None:
            self.store.close()
        if self.audit is not None:
            self.audit.close()
