"""The service client: ``repro client`` and the CI smoke's code path.

A thin :mod:`http.client` wrapper over the ``/v1`` endpoints — no
third-party HTTP stack, mirroring the server.  Each thread keeps one
persistent HTTP/1.1 connection, with Nagle off, to the service it last
talked to, so a caller's requests reuse one TCP connection and one
server handler thread instead of connecting per call; a call to another
host:port closes it and connects anew.  When the server has closed a
reused connection (an idle timeout, an error response) the call is sent
once more on a fresh one: every request is idempotent (job ids are
content addresses, live jobs dedup, shutdown may be asked twice).  Every
transport failure surfaces as :class:`ServiceError`.

The one substantive piece is :func:`run_litmus`: it submits the whole
litmus catalog as one batch, waits for every job, and renders
**exactly** the output of ``repro litmus --format json`` / ``--format
table`` — same keys, same order, same summary line — which is what the
CI smoke byte-compares.  The batch response also reports how many
submissions were answered straight from the verdict store
(``served_from == "store"``), which :func:`run_litmus` can export for
the warm-hit-rate gate.
"""

from __future__ import annotations

import io
import json
import socket
import sys
import threading
import urllib.parse
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import IO, Callable, Optional

DEFAULT_BASE = "http://127.0.0.1:8642"


class ServiceError(Exception):
    """An error response (``repro-error/1``) or transport failure."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail


class _Connection(HTTPConnection):
    """A thread's connection; closed with the thread's local storage."""

    def __del__(self) -> None:
        self.close()


#: ``conn``: this thread's :class:`_Connection`, if it has made a call.
_local = threading.local()


def _transport_error(base: str, error: Exception) -> ServiceError:
    if isinstance(error, TimeoutError):
        return ServiceError(0, "timeout", f"no answer from {base}: {error}")
    return ServiceError(0, "unreachable", f"cannot reach {base}: "
                                          f"{type(error).__name__}: {error}")


def _connection(base: str, timeout: float) -> tuple[_Connection, bool]:
    """This thread's connection to ``base``, connected, with ``timeout``
    on its socket; and whether it was connected before this call."""
    parts = urllib.parse.urlsplit(base)
    if parts.scheme != "http" or not parts.hostname:
        raise ServiceError(0, "unreachable",
                           f"cannot reach {base}: not an http:// URL")
    host, port = parts.hostname, parts.port or 80
    conn = getattr(_local, "conn", None)
    if conn is None or (conn.host, conn.port) != (host, port):
        if conn is not None:
            conn.close()
        conn = _local.conn = _Connection(host, port)
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
        return conn, True
    try:
        conn.connect()
        # http.client sends a POST's headers and body in two send()
        # calls: with Nagle on, the body waits for the delayed ACK.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError as error:
        conn.close()
        raise ServiceError(0, "unreachable",
                           f"cannot reach {base}: {error}") from None
    return conn, False


def _drop() -> None:
    """Close this thread's connection, e.g. after a part-read response
    (the next call connects again)."""
    conn = getattr(_local, "conn", None)
    if conn is not None:
        conn.close()


def _read(base: str, read: Callable[[], bytes]) -> bytes:
    """``read()`` from a response; a transport failure part-way drops
    the connection."""
    try:
        return read()
    except (OSError, HTTPException) as error:
        _drop()
        raise _transport_error(base, error) from None


def _open(base: str, method: str, path: str, timeout: float,
          body: Optional[bytes] = None,
          headers: Optional[dict] = None) -> HTTPResponse:
    """Send one request and read the response's status line and headers;
    an error status raises ServiceError with the ``repro-error/1`` body's
    code and detail.  A reused connection the server has closed
    (``RemoteDisconnected`` is a ``ConnectionResetError``) before any
    response byte gets the request once more on a new one."""
    target = urllib.parse.urlsplit(base).path.rstrip("/") + path
    while True:
        conn, reused = _connection(base, timeout)
        try:
            conn.request(method, target, body=body, headers=headers or {})
            response = conn.getresponse()
            break
        except (ConnectionResetError, BrokenPipeError) as error:
            _drop()
            if not reused:
                raise _transport_error(base, error) from None
        except (OSError, HTTPException) as error:
            _drop()
            raise _transport_error(base, error) from None
    if response.status < 400:
        return response
    data = _read(base, response.read)
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        payload = {}
    raise ServiceError(response.status, payload.get("error", "http-error"),
                       payload.get("detail", f"HTTP {response.status} "
                                             f"{response.reason}"))


def request(base: str, method: str, path: str,
            body: Optional[dict] = None,
            timeout: float = 120.0,
            headers: Optional[dict] = None) -> dict:
    """One JSON request/response round-trip; raises ServiceError on any
    HTTP error (decoding the ``repro-error/1`` body) or socket failure."""
    data = None
    send_headers = {"Accept": "application/json"}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        send_headers["Content-Type"] = "application/json"
    if headers:
        send_headers.update(headers)
    response = _open(base, method, path, timeout, data, send_headers)
    return json.loads(_read(base, response.read).decode("utf-8"))


def stream_events(base: str, job_id: str, since: int = 0,
                  out: Optional[IO[str]] = None,
                  timeout: float = 300.0) -> int:
    """Copy a job's NDJSON event stream to ``out`` as it grows; returns
    the number of lines written.  The server ends the stream after the
    ``stream-end`` sentinel, so this terminates without client-side
    idle logic; ``timeout`` bounds each silence between lines."""
    sink = out if out is not None else sys.stdout
    response = _open(base, "GET", f"/v1/jobs/{job_id}/events?since={since}",
                     timeout, headers={"Accept": "application/x-ndjson"})
    lines = 0
    try:
        while True:
            raw = _read(base, response.readline)
            if not raw:
                return lines
            sink.write(raw.decode("utf-8"))
            sink.flush()
            lines += 1
    except BaseException:
        _drop()  # the rest of the stream is still on the wire
        raise


def wait_job(base: str, job_id: str, timeout: float = 300.0) -> dict:
    """Block on the job's event stream until ``stream-end``, then return
    its status body.  Raises ServiceError(0, "timeout", ...) when the
    job sends nothing for ``timeout`` seconds."""
    stream_events(base, job_id, out=io.StringIO(), timeout=timeout)
    return request(base, "GET", f"/v1/jobs/{job_id}", timeout=timeout)


def submit(base: str, spec: dict, timeout: float = 120.0,
           trace_id: Optional[str] = None) -> dict:
    headers = {"X-Repro-Trace": trace_id} if trace_id else None
    return request(base, "POST", "/v1/jobs", body=spec, timeout=timeout,
                   headers=headers)


def submit_batch(base: str, specs: list,
                 timeout: float = 300.0,
                 trace_id: Optional[str] = None) -> dict:
    headers = {"X-Repro-Trace": trace_id} if trace_id else None
    return request(base, "POST", "/v1/batch", body={"jobs": specs},
                   timeout=timeout, headers=headers)


def fetch_metrics(base: str, as_json: bool = True,
                  timeout: float = 60.0):
    """``GET /v1/metrics``: the ``repro-servemetrics/1`` payload
    (``as_json=True``) or the raw Prometheus exposition text."""
    if as_json:
        return request(base, "GET", "/v1/metrics?format=json",
                       timeout=timeout)
    response = _open(base, "GET", "/v1/metrics", timeout,
                     headers={"Accept": "text/plain"})
    return _read(base, response.read).decode("utf-8")


def fetch_trace(base: str, job_id: str, timeout: float = 60.0) -> list:
    """``GET /v1/jobs/<id>/trace``: the job's span records, parsed."""
    response = _open(base, "GET", f"/v1/jobs/{job_id}/trace", timeout,
                     headers={"Accept": "application/x-ndjson"})
    text = _read(base, response.read).decode("utf-8")
    return [json.loads(line) for line in text.splitlines() if line]


def run_litmus(base: str, extended: bool = False,
               as_json: bool = True,
               out: Optional[IO[str]] = None,
               cache_stats: Optional[dict] = None,
               timeout: float = 600.0) -> int:
    """The service-backed litmus table, byte-identical to the CLI's.

    Submits the catalog as one batch, waits for every job in catalog
    order, and prints what ``repro litmus --format json|table`` prints.
    When ``cache_stats`` (a dict) is given, it is filled with the batch
    submission accounting: ``total``, ``cached`` (answered from the
    verdict store without executing), and ``hit_rate`` — the CI warm
    gate reads these.  Returns the CLI's exit status (1 on mismatch).
    """
    from ..litmus import ALL_TRANSFORMATION_CASES, EXTENDED_CASES
    from ..runner import LITMUS_ROW_KEYS

    sink = out if out is not None else sys.stdout
    cases = EXTENDED_CASES if extended else ALL_TRANSFORMATION_CASES
    specs = [{"kind": "litmus", "case": case.name} for case in cases]
    batch = submit_batch(base, specs, timeout=timeout)
    if cache_stats is not None:
        total = batch["total"]
        cached = batch["cached"]
        cache_stats.update(total=total, cached=cached,
                           hit_rate=cached / total if total else 0.0)
    mismatches = 0
    incomplete_cases: list[tuple[str, tuple[str, ...]]] = []
    rows = []
    for entry in batch["jobs"]:
        status = wait_job(base, entry["job"], timeout=timeout)
        if status.get("state") != "done":
            raise ServiceError(0, "job-failed",
                               f"job {entry['job']} "
                               f"{status.get('state')}: "
                               f"{status.get('error')}")
        # A row served from the verdict segments has sorted keys; pick
        # them in the CLI's order.
        row = {key: status["result"][key] for key in LITMUS_ROW_KEYS}
        rows.append(row)
        mismatches += not row["agree"]
        incomplete = (",".join(row["incomplete_reasons"]) or "-"
                      if not row["complete"] else "-")
        if not as_json:
            print(f"{row['case']:36s} {row['expected']:9s} "
                  f"{row['measured']:9s} "
                  f"{'ok' if row['agree'] else 'MISMATCH':8s} "
                  f"{incomplete}", file=sink)
        if not row["complete"]:
            incomplete_cases.append(
                (row["case"], tuple(row["incomplete_reasons"])))
    if as_json:
        print(json.dumps({"command": "litmus", "total": len(cases),
                          "mismatches": mismatches, "cases": rows},
                         indent=2), file=sink)
    else:
        print(f"{len(cases) - mismatches}/{len(cases)} verdicts match",
              file=sink)
    for name, reasons in incomplete_cases:
        print(f"warning: case {name!r}: refinement game incomplete — "
              f"exhausted bounds: {', '.join(reasons) or 'unknown'}; "
              f"its verdict may be based on a truncated search",
              file=sys.stderr)
    return 1 if mismatches else 0


def shutdown(base: str, timeout: float = 60.0) -> dict:
    return request(base, "POST", "/v1/shutdown", timeout=timeout)
