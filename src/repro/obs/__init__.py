"""Observability: counters, spans, and JSONL trace export.

Zero-dependency and **off by default**: when no session is active every
hook in the instrumented code degrades to a ``None`` check or a shared
no-op context manager, so the explorers and checkers pay nothing
measurable.  With a session on, the loop-level search counters
(exploration states, dedup and cache hits) still accumulate in local
integers and flush once per run, but the per-step rule counters do
not: :func:`repro.psna.thread.thread_steps` and
:func:`repro.psna.machine.labeled_machine_steps` call
``registry.inc`` for every step they enumerate.  That cost is paid
wherever a session is active, including every job of the verification
service, which runs each job inside one.

Usage::

    from repro import obs

    with obs.session(trace="run.jsonl") as session:
        with obs.span("my.phase", detail="..."):
            ...
        obs.inc("my.counter", 3)
        obs.event("result", behaviors=["..."])
    print(obs.report.render_stats_table(session.metrics.snapshot()))

The module-level session is intentionally process-global (like logging):
instrumented library code must not need a handle threaded through every
call.  Nested sessions are rejected — the CLI owns the session.

A case that runs in another process records into a session of its own
and hands the result back in one picklable dict: the parent session's
:meth:`ObsSession.worker_spec` opens the worker's session,
:meth:`ObsSession.export` packs what it recorded, and the parent's
:meth:`ObsSession.absorb` folds that in (see :mod:`repro.runner`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from . import report
from .attrib import AttribRecorder
from .events import EVENTS_SCHEMA, EventStream, read_events
from .metrics import Histogram, MetricsRegistry, diff_snapshots
from .monitor import MONITOR_SCHEMA, Monitor
from .statespace import GRAPH_SCHEMA, GraphRecorder
from .trace import (
    NULL_SINK,
    NULL_SPAN,
    JsonlSink,
    MemorySink,
    NullSink,
    Span,
    TraceSink,
    read_trace,
    TRACE_SCHEMA,
)

__all__ = [
    "Histogram", "MetricsRegistry", "diff_snapshots",
    "JsonlSink", "MemorySink", "NullSink", "TraceSink", "read_trace",
    "TRACE_SCHEMA", "EVENTS_SCHEMA", "GRAPH_SCHEMA", "MONITOR_SCHEMA",
    "report",
    "AttribRecorder", "EventStream", "GraphRecorder", "Monitor",
    "read_events",
    "ObsSession", "session", "start", "stop", "active", "enabled",
    "metrics", "span", "event", "inc", "gauge", "observe",
    "collect_into", "attribution", "graph", "stream", "monitor",
]


#: The recorders a worker ships back as ``snapshot()`` sections and the
#: parent folds in with ``merge_snapshot``, in fold order.
_RECORDERS = ("metrics", "attrib", "graph", "monitor")


class ObsSession:
    """One observability session: a metrics registry plus a trace sink.

    Optionally carries an :class:`AttribRecorder` (per-stack time
    attribution), a :class:`GraphRecorder` (state-space graph
    telemetry), a :class:`Monitor` (runtime invariant checks) and an
    :class:`EventStream` (live NDJSON events plus the flight-recorder
    ring); each is ``None`` unless requested, and the instrumented
    loops skip every hook when it is.
    """

    def __init__(self, sink: TraceSink = NULL_SINK,
                 meta: Optional[dict] = None,
                 attrib: bool = False,
                 graph: Optional[GraphRecorder] = None,
                 events: Optional[EventStream] = None,
                 monitor: Optional[Monitor] = None) -> None:
        self.metrics = MetricsRegistry()
        self.sink = sink
        self.span_stack: list[str] = []
        self.attrib: Optional[AttribRecorder] = (
            AttribRecorder() if attrib else None)
        self.graph = graph
        self.events = events
        self.monitor = monitor
        if sink.active:
            header = {"ev": "meta", "schema": TRACE_SCHEMA, "t": time.time()}
            if meta:
                header.update(meta)
            sink.emit(header)

    def event(self, name: str, **fields) -> None:
        if self.sink.active:
            payload = {"ev": "event", "name": name, "t": time.time()}
            payload.update(fields)
            self.sink.emit(payload)
        if self.events is not None:
            self.events.emit("event", name=name, **fields)

    # -- the worker hand-off ----------------------------------------------

    def worker_spec(self) -> dict:
        """The :func:`session` keywords under which a worker records
        what this session records.  The monitor travels as its
        ``--monitor`` spelling, so each task opens a fresh one."""
        spec: dict = {}
        if self.attrib is not None:
            spec["attrib"] = True
        if self.graph is not None:
            spec["graph"] = True
        if self.events is not None:
            spec["stream"] = True
        if self.monitor is not None:
            spec["monitor"] = self.monitor.spec
        return spec

    def export(self) -> dict:
        """What this session recorded, as one picklable dict: a
        ``snapshot()`` section per recorder that is on, plus the drained
        event ring under ``"events"``.  Call it before the session
        closes: closing appends the ``coverage`` event."""
        shipment = {}
        for name in _RECORDERS:
            recorder = getattr(self, name)
            if recorder is not None:
                shipment[name] = recorder.snapshot()
        if self.events is not None:
            shipment["events"] = self.events.drain()
        return shipment

    def absorb(self, shipment: dict, **tags) -> None:
        """Fold a worker's :meth:`export` in: each section through its
        recorder's ``merge_snapshot``, then the events replayed into
        this session's stream with ``tags`` added (a ``worker-drop``
        event first when the worker's ring overflowed)."""
        for name in _RECORDERS:
            recorder = getattr(self, name)
            section = shipment.get(name)
            if recorder is not None and section is not None:
                recorder.merge_snapshot(section)
        drained = shipment.get("events")
        if self.events is None or drained is None:
            return
        if drained["dropped"]:
            self.events.emit("worker-drop", dropped=drained["dropped"],
                             **tags)
        for event in drained["events"]:
            self.events.replay(event, **tags)

    def close(self) -> None:
        if self.events is not None and not self.events.closed:
            rules = {name: value for name, value
                     in self.metrics.snapshot()["counters"].items()
                     if name.startswith("rule.")}
            if rules:
                self.events.emit("coverage", rules=rules)
            self.events.close()
        self.sink.close()


_ACTIVE: Optional[ObsSession] = None

#: Cross-session accumulator (see :func:`collect_into`).
_COLLECTOR: Optional[MetricsRegistry] = None


def collect_into(registry: Optional[MetricsRegistry],
                 ) -> Optional[MetricsRegistry]:
    """Install a registry that accumulates every session's metrics.

    While a collector is installed, :func:`stop` merges the closing
    session's metrics into it before discarding the session.  This is
    how the pytest plugin (:mod:`repro.obs.pytest_plugin`) aggregates
    rule-coverage counters across a whole test run without holding a
    session open itself — tests open and close their own sessions, and
    nested sessions are rejected by design.

    Pass ``None`` to uninstall.  Returns the previously installed
    collector so callers can restore it.
    """
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = registry
    return previous


def start(trace: Union[str, TraceSink, None] = None,
          meta: Optional[dict] = None,
          attrib: bool = False,
          graph: Union[bool, GraphRecorder] = False,
          stream: Union[str, EventStream, bool, None] = None,
          monitor: Union[str, Monitor, None] = None) -> ObsSession:
    """Activate a session; ``trace`` is a JSONL path, a sink, or None.

    ``attrib`` additionally records per-stack time attribution
    (:mod:`repro.obs.attrib`) — the ``--profile``/``--folded`` data.
    ``graph`` (``True`` or a :class:`GraphRecorder`) records state-space
    graph telemetry.  ``stream`` opens a live event stream: a path,
    ``"-"`` (stdout), an :class:`EventStream`, or ``True`` for a
    ring-only flight recorder (the worker-process mode).  ``monitor``
    attaches a runtime invariant monitor: a :class:`Monitor` or a
    ``--monitor`` spec string (``"strict"`` / ``"sample:N"``).
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an observability session is already active")
    if trace is None:
        sink: TraceSink = NULL_SINK
    elif isinstance(trace, TraceSink):
        sink = trace
    else:
        sink = JsonlSink(trace)
    if graph is False:
        recorder: Optional[GraphRecorder] = None
    elif graph is True:
        recorder = GraphRecorder()
    else:
        recorder = graph
    if stream is None:
        events: Optional[EventStream] = None
    elif isinstance(stream, EventStream):
        events = stream
    elif stream is True:
        events = EventStream(None, meta=meta)
    else:
        events = EventStream(stream, meta=meta)
    if monitor is None or isinstance(monitor, Monitor):
        checker: Optional[Monitor] = monitor
    else:
        checker = Monitor.from_spec(monitor)
    _ACTIVE = ObsSession(sink, meta, attrib=attrib, graph=recorder,
                         events=events, monitor=checker)
    return _ACTIVE


def stop() -> Optional[ObsSession]:
    """Deactivate and close the current session; returns it (or None)."""
    global _ACTIVE
    current, _ACTIVE = _ACTIVE, None
    if current is not None:
        if _COLLECTOR is not None:
            _COLLECTOR.merge_snapshot(current.metrics.snapshot())
        current.close()
    return current


@contextmanager
def session(trace: Union[str, TraceSink, None] = None,
            meta: Optional[dict] = None,
            attrib: bool = False,
            graph: Union[bool, GraphRecorder] = False,
            stream: Union[str, EventStream, bool, None] = None,
            monitor: Union[str, Monitor, None] = None,
            ) -> Iterator[ObsSession]:
    current = start(trace, meta, attrib=attrib, graph=graph, stream=stream,
                    monitor=monitor)
    try:
        yield current
    finally:
        stop()


def active() -> Optional[ObsSession]:
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def metrics() -> Optional[MetricsRegistry]:
    """The active registry, or None — instrumented code holds this in a
    local and guards each batch flush with one ``is not None`` check."""
    return None if _ACTIVE is None else _ACTIVE.metrics


def attribution() -> Optional[AttribRecorder]:
    """The active session's attribution recorder, if one is recording."""
    return None if _ACTIVE is None else _ACTIVE.attrib


def graph() -> Optional[GraphRecorder]:
    """The active session's state-graph recorder, if one is recording."""
    return None if _ACTIVE is None else _ACTIVE.graph


def stream() -> Optional[EventStream]:
    """The active session's live event stream, if one is open."""
    return None if _ACTIVE is None else _ACTIVE.events


def monitor() -> Optional[Monitor]:
    """The active session's invariant monitor, if one is attached."""
    return None if _ACTIVE is None else _ACTIVE.monitor


def span(name: str, **fields):
    """A timed region; a shared no-op object when no session is active."""
    if _ACTIVE is None:
        return NULL_SPAN
    return Span(_ACTIVE, name, fields)


def event(name: str, **fields) -> None:
    if _ACTIVE is not None:
        _ACTIVE.event(name, **fields)


def inc(name: str, delta: int = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.metrics.inc(name, delta)


def gauge(name: str, value) -> None:
    if _ACTIVE is not None:
        _ACTIVE.metrics.gauge(name, value)


def observe(name: str, value) -> None:
    if _ACTIVE is not None:
        _ACTIVE.metrics.observe(name, value)
