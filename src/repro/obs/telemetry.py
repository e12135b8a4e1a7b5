"""Request-scoped telemetry: one trace per service request.

The batch observability stack (:mod:`repro.obs`) answers "what did this
run do"; a service must answer "what happened to *this* request".  This
module adds the request-scoped layer:

* a **trace id** names one request end to end — minted at submission
  (or adopted from the client's ``X-Repro-Trace`` header) and carried
  through normalization, store consult, queueing, execution and
  rendering;
* a **span id** names one timed phase inside the trace.  Completed
  phases serialize as ``repro-trace/1``-compatible span records
  (``{"ev": "span", "name", "t", "dur_s", "depth"}``) extended with
  ``trace``/``span``/``parent`` fields, so every existing trace
  consumer (``repro query``, the explainer) reads them unchanged.

No trace context crosses into a spawn worker.  The worker records its
spans into its own session like any other case; the service stamps and
re-parents them itself when they come back (:meth:`repro.serve.service.
VerificationService._complete_job`).

:class:`JobTrace` assembles one request's record set on the service
side: phase records are appended as the job moves through the
pipeline (normalize, store consult, queue wait, worker execute,
stream render), worker-side span events are folded in at completion,
and ``close()`` seals the root ``serve.request`` span.  ``lines()``
renders the whole set as ``repro-trace/1`` NDJSON — the body of
``GET /v1/jobs/<id>/trace``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Optional

from .trace import TRACE_SCHEMA


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (8 random bytes)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-digit span id (4 random bytes)."""
    return os.urandom(4).hex()


#: Longest accepted caller-supplied trace id (``X-Repro-Trace``);
#: anything longer or containing non-token characters is ignored and a
#: fresh id is minted instead — headers must not smuggle arbitrary
#: bytes into audit ledgers and NDJSON streams.
MAX_TRACE_ID_LEN = 64


def sanitize_trace_id(value: Optional[str]) -> Optional[str]:
    """``value`` if it is a usable caller-supplied trace id, else None."""
    if not isinstance(value, str):
        return None
    value = value.strip()
    if not value or len(value) > MAX_TRACE_ID_LEN:
        return None
    if not all(ch.isalnum() or ch in "-_." for ch in value):
        return None
    return value


def span_record(name: str, t: float, dur_s: float, depth: int = 0,
                trace: Optional[str] = None, span: Optional[str] = None,
                parent: Optional[str] = None, **fields) -> dict:
    """One completed-span record, ``repro-trace/1`` line shape."""
    record = {"ev": "span", "name": name, "t": t, "dur_s": dur_s,
              "depth": depth}
    if trace is not None:
        record["trace"] = trace
    if span is not None:
        record["span"] = span
    if parent is not None:
        record["parent"] = parent
    record.update(fields)
    return record


class JobTrace:
    """One request's span-record set, assembled service-side.

    Thread-safe by a single lock: the HTTP thread, the drainer, and
    pool-result callbacks all append phase records.  Records keep
    emission order (phases complete in pipeline order; the root span
    closes last), which is also causal order — consumers that want
    wall-clock order sort by ``t``.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 meta: Optional[dict] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.root_id = new_span_id()
        self.started_wall = time.time()
        self._started_perf = time.perf_counter()
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._meta = dict(meta or {})
        self.closed = False

    def record(self, name: str, dur_s: float,
               t: Optional[float] = None,
               parent: Optional[str] = None, depth: int = 1,
               span_id: Optional[str] = None, **fields) -> dict:
        """Append one completed phase span (child of the root unless a
        ``parent`` span id is given); returns the record."""
        rec = span_record(
            name, self.started_wall if t is None else t, dur_s,
            depth=depth, trace=self.trace_id,
            span=span_id or new_span_id(),
            parent=self.root_id if parent is None else parent, **fields)
        with self._lock:
            self._records.append(rec)
        return rec

    def add(self, record: dict) -> None:
        """Append a pre-built record (worker-side spans, folded in at
        job completion)."""
        with self._lock:
            self._records.append(record)

    def close(self, name: str = "serve.request", **fields) -> None:
        """Seal the root span: one depth-0 record covering the whole
        request.  Idempotent (dedup'd submissions may race)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._records.append(span_record(
                name, self.started_wall,
                time.perf_counter() - self._started_perf,
                depth=0, trace=self.trace_id, span=self.root_id,
                **fields))

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def lines(self) -> list[str]:
        """The ``repro-trace/1`` NDJSON body: meta line + records."""
        head = {"ev": "meta", "schema": TRACE_SCHEMA,
                "trace": self.trace_id, **self._meta}
        return [json.dumps(entry, sort_keys=True, default=repr)
                for entry in [head] + self.records()]
