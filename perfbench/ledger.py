"""The traced run's per-layer ledger: wrappers, span files, analysis.

Wrappers installed from this file record one span per call into each
layer's public functions — name, start, end, parent span and request
(job) id — in memory, and each process writes its spans to a JSON file
when it ends.  Nothing under ``src/`` is changed or timed from inside.

The PS^na inner calls (``certifiable``, ``canonical_key``, successor
generation, interning, ``CertStore`` lookups) run thousands of times
per exploration, so instead of one span each they are summed — calls,
total time, self time — onto the exploration span that encloses them.

:func:`analyze` merges the client's, the service's and the pool
workers' spans on the shared monotonic clock, keeps the spans of timed
requests, and splits each request's latency among layers: at every
instant the deepest active span of that request owns the time (a
layer's self time is its span minus its child spans); instants no span
covers are unattributed.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from bisect import bisect_right
from typing import Callable, Optional

clock = time.perf_counter

#: Environment variable naming the directory span files go to (set for
#: the traced service; pool workers inherit it).
SPANS_ENV = "PERFBENCH_SPANS_DIR"


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent entry, request id, info]``
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.service = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable,
             req: Optional[Callable] = None,
             info: Optional[Callable] = None,
             aggregate: bool = False) -> Callable:
        """Wrap ``fn`` in a span; ``req``/``info`` map ``(args, result)``
        to the request id and extra fields; ``aggregate`` makes it the
        scope that :meth:`hot` calls sum into."""
        local, spans, stack_of = self._local, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            entry = [name, clock(), 0.0, stack[-1] if stack else None,
                     None, None]
            spans.append(entry)
            stack.append(entry)
            if aggregate:
                saved = getattr(local, "hot", None)
                local.hot = hot = {}
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = clock()
                stack.pop()
                if aggregate:
                    local.hot = saved
            if req is not None:
                entry[4] = req(args, result)
            if info is not None:
                entry[5] = info(args, result)
            if aggregate:
                entry[5] = dict(entry[5] or {}, hot=hot)
            return result

        return wrapper

    def _account(self, name: str, frame: list, frames: list,
                 calls: int) -> None:
        duration = clock() - frame[0]
        if frames:
            frames[-1][1] += duration
        hot = getattr(self._local, "hot", None)
        if hot is not None:
            slot = hot.get(name)
            if slot is None:
                slot = hot[name] = [0, 0.0, 0.0]
            slot[0] += calls
            slot[1] += duration
            slot[2] += duration - frame[1]

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def hot(self, name: str, fn: Callable) -> Callable:
        """Sum calls, total and self time of ``fn`` into the enclosing
        aggregate span."""
        frames_of, account = self._frames, self._account

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = frames_of()
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                account(name, frame, frames, 1)

        return wrapper

    def hot_generator(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`hot` for a generator: each resumption is timed,
        the time between resumptions belongs to the consumer."""
        frames_of, account = self._frames, self._account

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            calls = 1
            while True:
                frames = frames_of()
                frame = [clock(), 0.0]
                frames.append(frame)
                try:
                    item = next(generator)
                except StopIteration:
                    frames.pop()
                    account(name, frame, frames, calls)
                    return
                frames.pop()
                account(name, frame, frames, calls)
                calls = 0
                yield item

        return wrapper

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def rows(self) -> list[list]:
        index = {id(entry): position
                 for position, entry in enumerate(self.spans)}
        return [[name, start, end,
                 -1 if parent is None else index[id(parent)], req, info]
                for name, start, end, parent, req, info in self.spans]

    def dump(self, directory: str, role: str, **extra) -> None:
        payload = {"role": role, "pid": os.getpid(), "spans": self.rows(),
                   **extra}
        path = os.path.join(directory, f"{role}-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


# ---------------------------------------------------------------------------
# Installation (service and pool-worker processes)
# ---------------------------------------------------------------------------


def _job_of_path(args, _result):
    path = args[0].path.split("?", 1)[0]
    if path.startswith("/v1/jobs/") and path.endswith("/events"):
        return path[len("/v1/jobs/"):-len("/events")]
    return None


def _install_execution(recorder: Recorder) -> None:
    """Wrappers for the layers that run jobs (service or pool worker)."""
    import importlib

    import repro.psna as psna
    import repro.seq as seq
    from repro.psna import certstore, machine
    from repro.serve import jobs

    explore_module = importlib.import_module("repro.psna.explore")
    digest = jobs.request_digest

    def job_of_canonical(args, _result):
        return "j-" + digest(args[0])

    recorder.patch(jobs, "serve_job_worker", recorder.span(
        "jobs.serve_job_worker", jobs.serve_job_worker,
        req=job_of_canonical))
    recorder.patch(seq, "check_transformation", recorder.span(
        "seq.check_transformation", seq.check_transformation,
        info=lambda _args, verdict: {"game_states": verdict.game_states}))
    recorder.patch(psna, "explore", recorder.span(
        "psna.explore", psna.explore, aggregate=True,
        info=lambda _args, result: {
            "states": result.states, "dedup_hits": result.dedup_hits,
            "dedup_misses": result.dedup_misses,
            "cert_hits": result.cert_cache_hits,
            "cert_misses": result.cert_cache_misses}))
    recorder.patch(explore_module, "canonical_key", recorder.hot(
        "psna.canonical_key", explore_module.canonical_key))
    for name in ("machine_steps", "labeled_machine_steps"):
        recorder.patch(explore_module, name, recorder.hot_generator(
            "psna.successors", getattr(explore_module, name)))
    recorder.patch(machine, "certifiable", recorder.hot(
        "psna.certifiable", machine.certifiable))
    for name in ("intern_state", "intern_cert"):
        recorder.patch(machine, name, recorder.hot(
            "psna.intern", getattr(machine, name)))
    for name in ("get", "put"):
        recorder.patch(certstore.CertStore, name, recorder.hot(
            "psna.cert_store", getattr(certstore.CertStore, name)))


def install_service(recorder: Recorder) -> None:
    """Wrappers for the service process (``traced_serve.py``)."""
    from repro import runner
    from repro.serve import http, jobs, service, store

    def remember(args, _result):
        recorder.service = args[0]
        return None

    # First, so the job-id lookups below use the unwrapped digest.
    _install_execution(recorder)
    handler = http._Handler
    recorder.patch(handler, "do_GET", recorder.span(
        "http.do_GET", handler.do_GET, req=_job_of_path))
    recorder.patch(handler, "do_POST", recorder.span(
        "http.do_POST", handler.do_POST))
    engine = service.VerificationService
    recorder.patch(engine, "__init__", recorder.span(
        "service.init", engine.__init__, info=remember))
    recorder.patch(engine, "submit", recorder.span(
        "service.submit", engine.submit,
        req=lambda _args, result: result[0].id))
    recorder.patch(engine, "read_events", recorder.span(
        "service.read_events", engine.read_events,
        req=lambda args, _result: args[1]))
    for name in ("_complete_job", "_fail_job"):
        recorder.patch(engine, name, recorder.span(
            "service.complete", getattr(engine, name),
            req=lambda args, _result: args[1].id))
    recorder.patch(engine, "_finish_stream", recorder.span(
        "service.finish_stream", engine._finish_stream,
        req=lambda args, _result: args[1].id))
    recorder.patch(jobs, "normalize_request", recorder.span(
        "jobs.normalize_request", jobs.normalize_request))
    recorder.patch(jobs, "request_digest", recorder.span(
        "jobs.request_digest", jobs.request_digest))
    verdicts = store.VerdictStore
    recorder.patch(verdicts, "__init__", recorder.span(
        "store.open", verdicts.__init__))
    recorder.patch(verdicts, "get", recorder.span("store.get", verdicts.get))
    recorder.patch(verdicts, "put", recorder.span(
        "store.put", verdicts.put,
        req=lambda args, _result: "j-" + args[1]))
    # The service builds its spawn pool with runner._worker_init; this
    # initializer installs the wrappers in each worker first.
    recorder.patch(runner, "_worker_init", worker_init)


def job_records(service) -> list[dict]:
    """Per job: the service's own queue/execute/render spans, anchored
    on the job's perf-counter marks."""
    records = []
    for job in list(service._by_id.values()):
        phases = {}
        if job.trace is not None:
            for record in job.trace.records():
                if record["name"] in ("serve.queue", "serve.execute",
                                      "serve.render"):
                    phases[record["name"]] = record["dur_s"]
        records.append({"id": job.id, "enqueued": job.enqueued_perf,
                        "started": job.execute_started_perf,
                        "phases": phases})
    return records


def worker_init(store_dir) -> None:
    """Pool initializer: wrap the worker's layers, dump spans at exit,
    then run the service's own initializer."""
    from multiprocessing import util

    from repro import runner
    from repro.serve import jobs

    recorder = Recorder()
    digest = jobs.request_digest
    recorder.patch(runner, "_subprocess_entry", recorder.span(
        "runner.subprocess_entry", runner._subprocess_entry,
        req=lambda args, _result: "j-" + digest(args[0][1])))
    _install_execution(recorder)
    directory = os.environ[SPANS_ENV]
    util.Finalize(None, recorder.dump, args=(directory, "worker"),
                  exitpriority=10)
    runner._worker_init(store_dir)


def install_client(recorder: Recorder) -> None:
    """Wrappers for the load generator's calls into ``serve.client``."""
    from repro.serve import client

    recorder.patch(client, "submit", recorder.span(
        "client.submit", client.submit,
        req=lambda _args, result: result.get("job")))
    recorder.patch(client, "stream_events", recorder.span(
        "client.stream_events", client.stream_events,
        req=lambda args, _result: args[1]))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

#: Depth of each span in a request's tree: at any instant the deepest
#: active span owns the time.
RANK = {
    "client.submit": 0, "client.stream_events": 0,
    "http.do_POST": 1, "http.do_GET": 1,
    "service.submit": 2, "service.read_events": 2,
    "jobs.normalize_request": 3, "jobs.request_digest": 3, "store.get": 3,
    "serve.queue": 3, "serve.execute": 3, "service.complete": 3,
    "serve.render": 4, "runner.subprocess_entry": 4, "store.put": 5,
    "jobs.serve_job_worker": 5,
    "seq.check_transformation": 6, "psna.explore": 6,
}

#: Per-layer self-time metric each span's time goes to.
BUCKET = {
    "client.submit": "client.self_ms",
    "client.stream_events": "client.self_ms",
    "http.do_POST": "http.self_ms", "http.do_GET": "http.self_ms",
    "service.submit": "service.submit_self_ms",
    "service.read_events": "service.stream_self_ms",
    "service.complete": "service.stream_self_ms",
    "jobs.normalize_request": "jobs.normalize_ms",
    "jobs.request_digest": "jobs.normalize_ms",
    "store.get": "store.get_ms",
    "serve.queue": "service.queue_wait_ms",
    "serve.render": "service.render_ms",
    "store.put": "store.put_ms",
    "runner.subprocess_entry": "obs.job_overhead_ms",
    "jobs.serve_job_worker": "jobs.execute_ms",
    "seq.check_transformation": "seq.check_ms",
    "psna.explore": "psna.explore_ms",
}

#: Summed PS^na inner calls → their self-time metric.
HOT_BUCKET = {
    "psna.certifiable": "psna.certify_ms",
    "psna.intern": "psna.intern_ms",
    "psna.canonical_key": "psna.canonical_key_ms",
    "psna.successors": "psna.successors_ms",
    "psna.cert_store": "psna.cert_store_ms",
}

SELF_METRICS = sorted(set(BUCKET.values()) | set(HOT_BUCKET.values())
                      | {"pool.dispatch_ms", "obs.job_overhead_ms"})


def load_dumps(directory: str) -> list[dict]:
    dumps = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                dumps.append(json.load(handle))
    return dumps


def _resolve_requests(rows: list[list]) -> None:
    """Give every span a request id: an ``http.do_POST`` takes its
    ``service.submit`` child's, everything else inherits its parent's."""
    for row in rows:
        if row[0] == "service.submit" and row[4] is not None \
                and row[3] >= 0 and rows[row[3]][4] is None:
            rows[row[3]][4] = row[4]
    for row in rows:  # parents precede children
        if row[4] is None and row[3] >= 0:
            row[4] = rows[row[3]][4]


def _service_phases(job: dict, finish_end: Optional[float]) -> list:
    """The service's queue/execute/render spans as intervals."""
    out = []
    phases = job["phases"]
    if job["enqueued"] is not None and job["started"] is not None:
        out.append(("serve.queue", job["enqueued"], job["started"], None))
        if "serve.execute" in phases:
            out.append(("serve.execute", job["started"],
                        job["started"] + phases["serve.execute"], None))
    if "serve.render" in phases and finish_end is not None:
        out.append(("serve.render", finish_end - phases["serve.render"],
                    finish_end, None))
    return out


def attribute(window: tuple[float, float],
              intervals: list[tuple]) -> tuple[dict, float]:
    """Split ``window`` among ``(name, start, end, info)`` intervals:
    each instant goes to the active interval of highest rank (the latest
    started among equals).  Returns ``({interval index: seconds},
    unattributed seconds)``."""
    lo, hi = window
    clipped = [(max(start, lo), min(end, hi), index)
               for index, (_name, start, end, _info) in enumerate(intervals)
               if min(end, hi) > max(start, lo)]
    cuts = sorted({lo, hi} | {t for start, end, _i in clipped
                              for t in (start, end)})
    owned: dict[int, float] = {}
    unattributed = 0.0
    for left, right in zip(cuts, cuts[1:]):
        best, best_key = None, None
        for start, end, index in clipped:
            if start <= left and end >= right:
                key = (RANK[intervals[index][0]], start)
                if best_key is None or key > best_key:
                    best, best_key = index, key
        if best is None:
            unattributed += right - left
        else:
            owned[best] = owned.get(best, 0.0) + (right - left)
    return owned, unattributed


def analyze(dumps: list[dict], requests: list[tuple[str, float, float]],
            jobs: int) -> dict:
    """Per-layer metrics over the timed ``requests`` — ``(job id, start,
    end)`` on the client's clock — from all processes' span dumps."""
    by_job: dict[str, list[int]] = {}
    for position, (job, _start, _end) in enumerate(requests):
        by_job.setdefault(job, []).append(position)
    starts = {job: [requests[p][1] for p in positions]
              for job, positions in by_job.items()}

    def owner(job: Optional[str], at: float) -> Optional[int]:
        """The timed request of ``job`` whose window holds ``at``."""
        positions = by_job.get(job)
        if not positions:
            return None
        slot = bisect_right(starts[job], at) - 1
        if slot < 0:
            return None
        position = positions[slot]
        return position if at <= requests[position][2] else None

    intervals: list[list] = [[] for _ in requests]
    finishes: dict[str, list[float]] = {}
    job_rows: list[dict] = []
    for dump in dumps:
        rows = dump["spans"]
        _resolve_requests(rows)
        for name, start, end, _parent, job, info in rows:
            if name == "service.finish_stream":
                finishes.setdefault(job, []).append(end)
                continue
            if name not in RANK:
                continue
            position = owner(job, start)
            if position is not None:
                intervals[position].append((name, start, end, info))
        job_rows.extend(dump.get("jobs", ()))
    for job in job_rows:
        finish = finishes.get(job["id"], [])
        for phase in _service_phases(job, finish[0] if finish else None):
            position = owner(job["id"], phase[1])
            if position is not None:
                intervals[position].append(phase)

    totals = {name: 0.0 for name in SELF_METRICS}
    counts = {"http.requests": 0, "seq.checks": 0, "seq.game_states": 0,
              "psna.explorations": 0, "psna.states": 0,
              "psna.certify_calls": 0}
    explore_s = dedup_hits = dedup_all = cert_hits = cert_all = 0
    latency = unattributed = 0.0
    execute_bucket = "pool.dispatch_ms" if jobs > 1 \
        else "obs.job_overhead_ms"
    for (_job, start, end), spans in zip(requests, intervals):
        latency += end - start
        owned, missing = attribute((start, end), spans)
        unattributed += missing
        for index, seconds in owned.items():
            name, _s, _e, info = spans[index]
            if name == "serve.execute":
                totals[execute_bucket] += seconds
            elif name == "psna.explore":
                hot = (info or {}).get("hot", {})
                for hot_name, (_calls, _total, self_s) in hot.items():
                    totals[HOT_BUCKET[hot_name]] += self_s
                    seconds -= self_s
                totals["psna.explore_ms"] += seconds
            else:
                totals[BUCKET[name]] += seconds
        for name, span_start, span_end, info in spans:
            info = info or {}
            if name.startswith("http."):
                counts["http.requests"] += 1
            elif name == "seq.check_transformation":
                counts["seq.checks"] += 1
                counts["seq.game_states"] += info.get("game_states", 0)
            elif name == "psna.explore":
                counts["psna.explorations"] += 1
                counts["psna.states"] += info.get("states", 0)
                explore_s += span_end - span_start
                dedup_hits += info.get("dedup_hits", 0)
                dedup_all += info.get("dedup_hits", 0) \
                    + info.get("dedup_misses", 0)
                cert_hits += info.get("cert_hits", 0)
                cert_all += info.get("cert_hits", 0) \
                    + info.get("cert_misses", 0)
                certify = info.get("hot", {}).get("psna.certifiable")
                if certify:
                    counts["psna.certify_calls"] += certify[0]
    n = max(1, len(requests))
    metrics = {name: seconds * 1000.0 / n for name, seconds in totals.items()}
    metrics.update(counts)
    metrics["psna.states_per_s"] = counts["psna.states"] / explore_s \
        if explore_s else 0.0
    metrics["psna.dedup_share"] = dedup_hits / dedup_all if dedup_all else 0.0
    metrics["psna.cert_cache_hit_share"] = cert_hits / cert_all \
        if cert_all else 0.0
    metrics["trace.unattributed_share"] = unattributed / latency \
        if latency else 0.0
    return metrics


def setup_spans(dumps: list[dict]) -> dict:
    """Start of the service constructor and the verdict-store open time
    (the last one opened: the service that served the timed phase)."""
    init_start = None
    open_s = 0.0
    for dump in dumps:
        for name, start, end, _parent, _job, _info in dump["spans"]:
            if name == "service.init":
                init_start = start
            elif name == "store.open":
                open_s = end - start
    return {"init_start": init_start, "store_open_s": open_s}
