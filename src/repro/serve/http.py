"""The stdlib HTTP/JSON front end of ``repro serve``.

A :class:`ThreadingHTTPServer` over one
:class:`~repro.serve.service.VerificationService`.  Endpoints (all
under ``/v1``, all JSON unless noted):

======  ========================  =======================================
method  path                      body / response
======  ========================  =======================================
GET     /v1/version               service + semantics provenance
GET     /v1/stats                 service counters, job states, store
GET     /v1/store/stats           the ``repro-verdict/1`` index stats
GET     /v1/metrics               Prometheus text exposition (or the
                                  ``repro-servemetrics/1`` JSON with
                                  ``?format=json``)
POST    /v1/jobs                  one job spec → ``{"job", "state",
                                  "cached", "served_from", "trace"}``
POST    /v1/batch                 ``{"jobs": [spec, ...]}`` → one entry
                                  per spec, in order
GET     /v1/jobs/<id>             job status (+ ``result`` when done)
GET     /v1/jobs/<id>/events      live ``repro-events/1`` NDJSON stream
                                  (chunked; ends after ``stream-end``)
GET     /v1/jobs/<id>/trace       the job's ``repro-trace/1`` NDJSON
                                  span records (complete once done)
POST    /v1/shutdown              graceful drain, then stop
======  ========================  =======================================

Submissions may carry an ``X-Repro-Trace`` header: the job's spans
record under the caller's trace id (distributed tracing across
clients), and every submission body echoes the job's ``trace``.

Every error — malformed JSON, unknown kind, oversized program, unknown
job, and any unexpected exception — is a ``repro-error/1`` JSON body
with a matching 4xx/5xx status; a traceback never crosses the wire.

Connections are persistent (HTTP/1.1 keep-alive): a client sends its
requests one after another on one connection, served by one handler
thread.  Each response leaves in one write with Nagle off, each event
chunk in one write.  An error response closes its connection, since
the request body may still be unread and the next request could not
be told apart from it; a connection idle for :data:`IDLE_TIMEOUT_S`
is closed and its handler thread exits.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .. import __version__
from ..obs.provenance import provenance_meta
from ..psna.semantics import SEMANTICS_VERSION
from .jobs import JOB_KINDS, RequestError
from .metrics import render_exposition
from .service import ServiceClosed, VerificationService

ERROR_SCHEMA = "repro-error/1"

#: Largest request body accepted before parsing (a batch of the full
#: litmus catalog is ~4 KB; this leaves ample room for program batches).
DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024

#: How long one blocking read of a job's event stream waits before
#: re-checking (keeps streaming threads responsive to server shutdown).
_STREAM_POLL_S = 1.0

#: How long a kept-alive connection may wait for its next request before
#: the server closes it and frees its handler thread.
IDLE_TIMEOUT_S = 60.0


def error_body(status: int, code: str, detail: str) -> dict:
    return {"schema": ERROR_SCHEMA, "status": status, "error": code,
            "detail": detail}


class _Handler(BaseHTTPRequestHandler):
    """One request; the service and settings hang off the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    timeout = IDLE_TIMEOUT_S
    # A buffered wfile: headers and body leave in one write (the stdlib
    # flushes after each request), and Nagle would hold the next one.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------

    @property
    def service(self) -> VerificationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def send_error(self, code, message=None, explain=None):
        """Stdlib-origin errors (unsupported method, malformed request
        line) go out as ``repro-error/1`` JSON too, not as HTML.  The
        stdlib returns without flushing after these, so flush here."""
        try:
            self._send_error_json(int(code), "bad-request",
                                  str(message or explain or code))
            self.wfile.flush()
        except OSError:
            pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, default=repr) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # The request body may be unread (411, 413, an unsupported
            # method): the next request could not be parsed after it.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str,
                         detail: str) -> None:
        self._send_json(status, error_body(status, code, detail))

    def _read_body(self) -> object:
        """Parse the JSON request body; raises RequestError on anything
        malformed or oversized."""
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise RequestError(411, "length-required",
                               "Content-Length header required")
        limit = getattr(self.server, "max_body_bytes",
                        DEFAULT_MAX_BODY_BYTES)
        if length > limit:
            raise RequestError(413, "body-too-large",
                               f"request body exceeds {limit} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, "bad-json",
                               f"request body is not JSON: {error}")

    def _chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))
        self.wfile.flush()

    def _end_chunks(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -- dispatch ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib name
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — stdlib name
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        service = getattr(self.server, "service", None)
        if service is not None:
            service.metrics.inc("http.requests")
        try:
            self._route(method)
        except RequestError as error:
            self._send_error_json(error.status, error.code, error.detail)
        except ServiceClosed as error:
            self._send_error_json(503, "shutting-down", str(error))
        except BrokenPipeError:
            pass  # client went away mid-stream
        except Exception as error:  # noqa: BLE001 — no tracebacks on
            try:                    # the wire, ever
                self._send_error_json(
                    500, "internal-error",
                    f"{type(error).__name__}: {error}")
            except OSError:
                pass
        finally:
            if service is not None:
                service.metrics.observe(
                    "http.request_s", time.perf_counter() - started)

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if method == "GET":
            if path == "/v1/version":
                return self._get_version()
            if path == "/v1/stats":
                return self._send_json(200, self.service.stats())
            if path == "/v1/store/stats":
                return self._get_store_stats()
            if path == "/v1/metrics":
                return self._get_metrics()
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/events"):
                    return self._get_events(rest[:-len("/events")])
                if rest.endswith("/trace"):
                    return self._get_trace(rest[:-len("/trace")])
                if "/" not in rest:
                    return self._get_job(rest)
            raise RequestError(404, "not-found",
                               f"no such resource: {path}")
        # POST
        if path == "/v1/jobs":
            return self._post_job()
        if path == "/v1/batch":
            return self._post_batch()
        if path == "/v1/shutdown":
            return self._post_shutdown()
        if path in ("/v1/version", "/v1/stats", "/v1/store/stats",
                    "/v1/metrics") \
                or path.startswith("/v1/jobs/"):
            raise RequestError(405, "method-not-allowed",
                               f"{path} does not accept {method}")
        raise RequestError(404, "not-found", f"no such resource: {path}")

    # -- endpoints --------------------------------------------------------

    def _get_version(self) -> None:
        provenance = provenance_meta()
        self._send_json(200, {
            "service": "repro-serve/1",
            "version": __version__,
            "semantics": SEMANTICS_VERSION,
            "python": provenance.get("python"),
            "git_sha": provenance.get("git_sha"),
            "kinds": list(JOB_KINDS),
        })

    def _get_store_stats(self) -> None:
        if self.service.store is None:
            raise RequestError(404, "store-disabled",
                               "the verdict store is disabled")
        self._send_json(200, self.service.store.stats())

    def _query_param(self, name: str) -> Optional[str]:
        query = self.path.split("?", 1)
        if len(query) != 2:
            return None
        for part in query[1].split("&"):
            if part.startswith(name + "="):
                return part[len(name) + 1:]
        return None

    def _get_metrics(self) -> None:
        payload = self.service.metrics_payload()
        if self._query_param("format") == "json":
            return self._send_json(200, payload)
        body = render_exposition(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_trace(self, job_id: str) -> None:
        job = self.service.get(job_id)
        if job is None:
            raise RequestError(404, "unknown-job",
                               f"no such job: {job_id}")
        # The root span closes just after the job's state and stream
        # end; a finished job's trace waits out that gap (at most 1 s),
        # so a client that saw ``stream-end`` reads a complete record set.
        deadline = time.monotonic() + 1.0
        while job.trace is not None and not job.trace.closed \
                and job.state in ("done", "failed") \
                and time.monotonic() < deadline:
            time.sleep(0.001)
        lines = job.trace.lines() if job.trace is not None else []
        body = "".join(line + "\n" for line in lines).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def _submission_body(job, served_from: str) -> dict:
        return {"job": job.id, "kind": job.canonical["kind"],
                "state": job.state,
                "cached": served_from == "store",
                "served_from": served_from,
                "trace": job.trace.trace_id
                if job.trace is not None else None}

    def _trace_header(self) -> Optional[str]:
        return self.headers.get("X-Repro-Trace")

    def _client_address(self) -> Optional[str]:
        try:
            return self.client_address[0]
        except (TypeError, IndexError):
            return None

    def _post_job(self) -> None:
        job, served_from = self.service.submit(
            self._read_body(), trace_id=self._trace_header(),
            client=self._client_address())
        self._send_json(202, self._submission_body(job, served_from))

    def _post_batch(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise RequestError(400, "bad-request",
                               "batch body must be a JSON object")
        submissions = self.service.submit_batch(
            body.get("jobs"), trace_id=self._trace_header(),
            client=self._client_address())
        cached = sum(1 for _job, served in submissions
                     if served == "store")
        self._send_json(202, {
            "total": len(submissions),
            "cached": cached,
            "jobs": [self._submission_body(job, served)
                     for job, served in submissions],
        })

    def _get_job(self, job_id: str) -> None:
        job = self.service.get(job_id)
        if job is None:
            raise RequestError(404, "unknown-job",
                               f"no such job: {job_id}")
        self._send_json(200, job.status())

    def _get_events(self, job_id: str) -> None:
        query = self.path.split("?", 1)
        since = 0
        if len(query) == 2:
            for part in query[1].split("&"):
                if part.startswith("since="):
                    try:
                        since = max(0, int(part[len("since="):]))
                    except ValueError:
                        raise RequestError(400, "bad-field",
                                           "since must be an integer")
        if self.service.get(job_id) is None:
            raise RequestError(404, "unknown-job",
                               f"no such job: {job_id}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        cursor = since
        while True:
            lines, cursor, ended = self.service.read_events(
                job_id, since=cursor, timeout=_STREAM_POLL_S)
            if lines:
                self._chunk("".join(line + "\n" for line in lines))
            if ended and not lines:
                break
            if ended and lines:
                break
        self._end_chunks()

    def _post_shutdown(self) -> None:
        self._send_json(202, {"shutting_down": True})
        threading.Thread(target=self.server.initiate_shutdown,
                         daemon=True).start()


class ServeHTTPServer(ThreadingHTTPServer):
    """The bound server; carries the service and the shutdown hook."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: VerificationService,
                 verbose: bool = False,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        self._shutdown_started = threading.Event()

    def handle_error(self, request, client_address) -> None:
        """A client that went away (a reset or closed kept-alive
        connection, a stream abandoned part-way) is not a server error:
        only other exceptions print their traceback."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def initiate_shutdown(self) -> None:
        """Graceful stop: drain the service, then stop serving.  Safe to
        call more than once (signal + endpoint)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        self.service.shutdown(drain=True)
        self.shutdown()


def make_server(host: str, port: int, service: VerificationService,
                verbose: bool = False,
                max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                ) -> ServeHTTPServer:
    return ServeHTTPServer((host, port), service, verbose=verbose,
                           max_body_bytes=max_body_bytes)


def serve_forever(server: ServeHTTPServer,
                  ready_file: Optional[str] = None) -> None:
    """Run until a shutdown request or signal; installs SIGINT/SIGTERM
    handlers that drain before stopping."""
    import signal

    def _signal(signum, frame):
        threading.Thread(target=server.initiate_shutdown,
                         daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _signal)
        except ValueError:
            pass  # not the main thread (tests drive serve_forever)
    if ready_file is not None:
        host, port = server.server_address[:2]
        with open(ready_file, "w") as handle:
            handle.write(f"http://{host}:{port}\n")
    server.serve_forever()
    server.server_close()
