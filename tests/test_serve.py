"""The verification service: engine, HTTP front end, verdict store.

Three layers under test:

* :class:`repro.serve.service.VerificationService` driven directly —
  dedup, store hits, event streams, drain-on-shutdown;
* the HTTP front end through a real bound socket and the
  :mod:`repro.serve.client` wrapper — error bodies, NDJSON streaming,
  byte-parity with the plain CLI, one kept-alive connection per client
  thread;
* :class:`repro.serve.store.VerdictStore` under concurrent writers and
  across restarts.
"""

import io
import json
import multiprocessing
import os
import re
import signal
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import runner
from repro.cli import main as cli_main
from repro.litmus import ALL_TRANSFORMATION_CASES
from repro.obs.events import validate_events
from repro.psna import certstore
from repro.serve import client
from repro.serve import jobs as serve_jobs
from repro.serve.http import (
    IDLE_TIMEOUT_S,
    ServeHTTPServer,
    _Handler,
    make_server,
)
from repro.serve.jobs import (
    RequestError,
    job_id_for,
    normalize_request,
    request_digest,
    serve_job_worker,
)
from repro.serve.service import ServiceClosed, VerificationService
from repro.serve.store import VerdictStore

VALIDATE_SPEC = {"kind": "validate",
                 "source": "x_na := 1; x_na := 2; return 0;",
                 "target": "x_na := 2; return 0;"}


@pytest.fixture
def service(tmp_path):
    created = []

    def factory(jobs: int = 1, store_dir=None) -> VerificationService:
        if store_dir is None:
            store_dir = str(tmp_path / "verdicts")
        svc = VerificationService(jobs=jobs, store_dir=store_dir)
        created.append(svc)
        return svc

    yield factory
    for svc in created:
        svc.shutdown(drain=True, timeout=30.0)


@pytest.fixture
def live(service):
    """A service behind a real HTTP socket; yields (base_url, service)."""
    servers = []

    def factory(jobs: int = 1, store_dir=None, **server_kw):
        svc = service(jobs=jobs, store_dir=store_dir)
        server = make_server("127.0.0.1", 0, svc, **server_kw)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        host, port = server.server_address[:2]
        return f"http://{host}:{port}", svc

    yield factory
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestNormalization:
    def test_formatting_does_not_change_the_job_id(self):
        a = normalize_request({"kind": "validate",
                               "source": "x_na:=1;return 0;",
                               "target": "x_na   := 1; return 0;"})
        b = normalize_request({"kind": "validate",
                               "source": "x_na := 1;\nreturn 0;",
                               "target": "x_na := 1; return 0;"})
        assert a == b
        assert job_id_for(a) == job_id_for(b)

    def test_unknown_kind_is_a_400(self):
        with pytest.raises(RequestError) as excinfo:
            normalize_request({"kind": "frobnicate"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown-kind"

    def test_oversized_program_is_a_413(self):
        huge = "x_na := 1; " * 10_000 + "return 0;"
        with pytest.raises(RequestError) as excinfo:
            normalize_request({"kind": "validate", "source": huge,
                               "target": "return 0;"},
                              max_program_bytes=1024)
        assert excinfo.value.status == 413
        assert excinfo.value.code == "program-too-large"

    def test_unparseable_program_is_a_400_not_a_traceback(self):
        with pytest.raises(RequestError) as excinfo:
            normalize_request({"kind": "validate", "source": "x := (",
                               "target": "return 0;"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-program"


class TestServiceEngine:
    def test_validate_job_end_to_end(self, service):
        svc = service()
        job, served = svc.submit(VALIDATE_SPEC)
        assert served == "queue"
        finished = svc.wait(job.id, timeout=120.0)
        assert finished.state == "done"
        assert finished.result["command"] == "validate"
        assert finished.result["valid"] is True

    def test_event_stream_is_one_valid_repro_events_stream(self, service):
        """Meta first, monotonic seq, result + stream-end present —
        across the submit/start/complete hand-offs there must be exactly
        one stream, not one per phase."""
        svc = service()
        job, _ = svc.submit(VALIDATE_SPEC)
        svc.wait(job.id, timeout=120.0)
        lines, _cursor, ended = svc.read_events(job.id, timeout=30.0)
        assert ended
        events = [json.loads(line) for line in lines]
        assert validate_events(events) == []
        kinds = [event.get("name") or event["ev"] for event in events]
        assert kinds[0] == "meta"
        assert "result" in kinds
        assert kinds[-1] == "stream-end"

    def test_parallel_identical_submissions_share_one_job(self, service):
        """The dedup gate under contention: N racing submissions of the
        same request must collapse onto a single job id and a single
        execution."""
        svc = service()
        results = []
        barrier = threading.Barrier(8)

        def submitter():
            barrier.wait()
            results.append(svc.submit(VALIDATE_SPEC))

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = {job.id for job, _ in results}
        assert len(ids) == 1
        assert sum(1 for _, served in results if served == "queue") == 1
        svc.wait(ids.pop(), timeout=120.0)
        assert svc.executed == 1
        assert svc.deduped == 7

    def test_warm_restart_serves_from_the_verdict_store(self, service,
                                                        tmp_path):
        """A new service over the same store directory answers without
        executing — the verdict survives the process boundary."""
        store_dir = str(tmp_path / "persistent")
        cold = service(store_dir=store_dir)
        job, _ = cold.submit(VALIDATE_SPEC)
        result = cold.wait(job.id, timeout=120.0).result
        cold.shutdown(drain=True)

        warm = service(store_dir=store_dir)
        hit, served = warm.submit(VALIDATE_SPEC)
        assert served == "store"
        assert hit.cached is True
        assert hit.state == "done"
        assert hit.result == result
        assert warm.executed == 0

    def test_spawn_pool_jobs2_with_store_contention(self, service):
        """Several distinct jobs through the 2-worker spawn pool, all
        writing the shared verdict store; every verdict must land and
        re-submission must be answered from the store."""
        svc = service(jobs=2)
        names = [case.name for case in ALL_TRANSFORMATION_CASES[:6]]
        jobs = [svc.submit({"kind": "litmus", "case": name})[0]
                for name in names]
        for job in jobs:
            assert svc.wait(job.id, timeout=300.0).state == "done"
        assert svc.executed == len(names)
        stats = svc.store.stats()
        assert stats["writes"] == len(names)
        for name in names:
            _, served = svc.submit({"kind": "litmus", "case": name})
            assert served == "store"

    def test_shutdown_drains_inflight_jobs(self, service):
        """Every accepted job finishes before shutdown returns; intake
        closes immediately (late submissions raise ServiceClosed)."""
        svc = service()
        jobs = [svc.submit({"kind": "litmus", "case": case.name})[0]
                for case in ALL_TRANSFORMATION_CASES[:4]]
        svc.shutdown(drain=True, timeout=300.0)
        for job in jobs:
            assert job.state == "done"
        with pytest.raises(ServiceClosed):
            svc.submit(VALIDATE_SPEC)

    def test_store_disabled_still_serves(self, service):
        svc = service(store_dir="off")
        assert svc.store is None
        job, served = svc.submit(VALIDATE_SPEC)
        assert served == "queue"
        assert svc.wait(job.id, timeout=120.0).state == "done"
        # Without a store the only cache is live dedup, not verdicts.
        _, served = svc.submit(VALIDATE_SPEC)
        assert served == "store"  # finished registry entry answers


class TestCertReuse:
    """A service job is one run of the process's cert store: later jobs
    reuse the certification verdicts earlier jobs found."""

    LB = ["a := x_rlx; y_rlx := a; return a;",
          "b := y_rlx; x_rlx := 1; return b;"]
    #: Explorations certifying the same pairs as LB: LB itself, its
    #: threads listed the other way round, and LB under another bound.
    SPECS = [{"kind": "explore", "programs": LB, "promises": 1},
             {"kind": "explore", "programs": LB[::-1], "promises": 1},
             {"kind": "explore", "programs": LB, "promises": 1,
              "max_states": 5000}]

    @pytest.fixture
    def cert_store(self, tmp_path):
        store = certstore.bind(certstore.CertStore(str(tmp_path / "cert")))
        yield store
        certstore.unbind()

    @staticmethod
    def _store_off(spec):
        bound = certstore.active()
        certstore.unbind()
        try:
            payload = serve_job_worker(normalize_request(spec))
        finally:
            certstore.bind(bound)
        return json.loads(json.dumps(payload))

    def _run(self, svc, spec):
        job = svc.wait(svc.submit(spec)[0].id, timeout=300.0)
        assert job.state == "done"
        return job.result

    def test_in_process_jobs_reuse_earlier_verdicts(self, service,
                                                    cert_store):
        svc = service(jobs=1)
        first, second = self.SPECS[:2]
        self._run(svc, first)
        assert cert_store.hits == 0  # a fresh store has nothing yet
        result = self._run(svc, second)
        assert cert_store.hits > 0
        assert result == self._store_off(second)

    def test_pool_workers_reuse_their_own_verdicts(self, service,
                                                   cert_store):
        """Three jobs on two workers: one worker runs two of them, and
        the later one hits the verdicts its earlier one queued."""
        svc = service(jobs=2)
        for spec in self.SPECS:
            assert self._run(svc, spec) == self._store_off(spec)
        assert cert_store.hits > 0  # shipped back from the workers


def _until(predicate, timeout: float) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestWorkers:
    """The ``jobs > 1`` service: one spawn worker per drainer thread."""

    #: Load buffering run twice per thread, with two promises: an
    #: exploration of a few seconds.
    LONG = {"kind": "explore", "promises": 2,
            "programs": ["a := x_rlx; y_rlx := a; c := x_rlx; "
                         "y_rlx := c; return a;",
                         "b := y_rlx; x_rlx := 1; d := y_rlx; "
                         "x_rlx := 2; return b;"]}

    @staticmethod
    def _kill(processes) -> None:
        for process in processes:
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_dead_worker_fails_its_job_and_is_replaced(self, tmp_path):
        """Killing every worker mid-job fails that job at once, naming
        the exit code; workers that die idle fail nothing; the service
        still runs jobs and shuts down with no process left."""
        before = set(multiprocessing.active_children())

        def children():
            return set(multiprocessing.active_children()) - before

        svc = VerificationService(jobs=2,
                                  store_dir=str(tmp_path / "verdicts"))
        try:
            job, _ = svc.submit(self.LONG)
            assert _until(lambda: job.state == "running", 60.0)
            self._kill(children())
            assert _until(lambda: job.state == "failed", 5.0), job.state
            failed = [json.loads(line) for line in job.event_lines
                      if '"job-failed"' in line]
            assert len(failed) == 1
            assert "worker exited with code -9" in failed[0]["error"]

            idle = children()
            self._kill(idle)
            assert _until(lambda: not any(p.is_alive() for p in idle),
                          10.0)
            after, _ = svc.submit(VALIDATE_SPEC)
            assert svc.wait(after.id, timeout=120.0).state == "done"

            stopper = threading.Thread(
                target=svc.shutdown, kwargs={"drain": True, "timeout": 30.0},
                daemon=True)
            stopper.start()
            stopper.join(timeout=60.0)
            assert not stopper.is_alive(), "shutdown did not return"
            assert children() == set()
        finally:
            self._kill(children())

    def test_completions_on_several_threads_lose_nothing(self, tmp_path):
        """Three workers (more than CI's two cores) finish jobs on three
        drainer threads at once, under a tiny switch interval: every
        shared count sees every job."""
        heartbeat = runner.Heartbeat("stress", interval_s=3600.0,
                                     stream=io.StringIO())
        svc = VerificationService(jobs=3,
                                  store_dir=str(tmp_path / "verdicts"),
                                  heartbeat=heartbeat)
        specs = [{"kind": "validate",
                  "source": f"x_na := {v}; x_na := {v + 1}; return 0;",
                  "target": f"x_na := {v + 1}; return 0;"}
                 for v in range(60)]
        states = []

        def client_thread(part):
            for spec in part:
                job, _ = svc.submit(spec)
                states.append(svc.wait(job.id, timeout=120.0).state)

        clients = [threading.Thread(target=client_thread,
                                    args=(specs[i::4],))
                   for i in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=240.0)
        finally:
            sys.setswitchinterval(switch)
            # Shutdown joins the drainers, so every completion has run.
            svc.shutdown(drain=True, timeout=60.0)
        assert not any(thread.is_alive() for thread in clients)
        assert states == ["done"] * len(specs)
        counters = svc.metrics.snapshot()["counters"]
        assert svc.executed == len(specs)
        assert counters["jobs.executed"] == len(specs)
        assert svc.store.stats()["writes"] == len(specs)
        assert heartbeat.done == len(specs)


class TestHTTPFrontEnd:
    def _raw(self, base, method="POST", path="/v1/jobs", data=b"",
             headers=None):
        """One raw request; returns (status, parsed JSON body)."""
        req = urllib.request.Request(base + path, data=data,
                                     headers=headers or {}, method=method)
        try:
            with urllib.request.urlopen(req, timeout=30.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_version_health_check(self, live):
        base, _svc = live()
        body = client.request(base, "GET", "/v1/version")
        assert body["service"] == "repro-serve/1"
        assert body["kinds"] == ["adequacy", "explore", "litmus",
                                 "validate"]

    def test_malformed_json_is_a_400_error_body(self, live):
        base, _svc = live()
        status, body = self._raw(base, data=b"{not json",
                                 headers={"Content-Length": "9"})
        assert status == 400
        assert body["schema"] == "repro-error/1"
        assert body["error"] == "bad-json"
        assert "Traceback" not in json.dumps(body)

    def test_unknown_kind_is_a_400_error_body(self, live):
        base, _svc = live()
        with pytest.raises(client.ServiceError) as excinfo:
            client.submit(base, {"kind": "frobnicate"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown-kind"

    def test_oversized_body_is_a_413(self, live):
        base, _svc = live(max_body_bytes=64)
        with pytest.raises(client.ServiceError) as excinfo:
            client.submit(base, {"kind": "validate",
                                 "source": "x_na := 1; " * 32
                                           + "return 0;",
                                 "target": "return 0;"})
        assert excinfo.value.status == 413
        assert excinfo.value.code == "body-too-large"

    def test_unknown_job_is_a_404(self, live):
        base, _svc = live()
        with pytest.raises(client.ServiceError) as excinfo:
            client.request(base, "GET", "/v1/jobs/j-doesnotexist")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-job"

    def test_unsupported_method_is_json_not_html(self, live):
        base, _svc = live()
        status, body = self._raw(base, method="DELETE",
                                 path="/v1/version")
        assert status in (405, 501)
        assert body["schema"] == "repro-error/1"

    def test_submit_wait_and_stream(self, live):
        base, _svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        assert submission["state"] in ("queued", "running", "done")
        status = client.wait_job(base, submission["job"], timeout=120.0)
        assert status["state"] == "done"
        assert status["result"]["valid"] is True
        sink = io.StringIO()
        assert client.stream_events(base, submission["job"],
                                    out=sink) > 0
        events = [json.loads(line)
                  for line in sink.getvalue().splitlines()]
        assert validate_events(events) == []
        assert events[-1]["ev"] == "stream-end"

    def test_litmus_catalog_is_byte_identical_to_the_cli(self, live,
                                                         capsys):
        """The CI hard gate, in-process: the service-backed catalog
        sweep renders exactly the bytes of ``repro litmus --format
        json`` (CI smoke repeats this over HTTP for the extended
        catalog, cold and warm)."""
        base, _svc = live(jobs=2)
        stats: dict = {}
        sink = io.StringIO()
        assert client.run_litmus(base, extended=False, as_json=True,
                                 out=sink, cache_stats=stats) == 0
        assert stats["total"] == len(ALL_TRANSFORMATION_CASES)
        assert stats["cached"] == 0
        assert cli_main(["litmus", "--format", "json"]) == 0
        assert sink.getvalue() == capsys.readouterr().out

        # The warm pass is answered from the verdict store — and still
        # renders the same bytes.
        warm_stats: dict = {}
        warm_sink = io.StringIO()
        assert client.run_litmus(base, extended=False, as_json=True,
                                 out=warm_sink,
                                 cache_stats=warm_stats) == 0
        assert warm_stats["hit_rate"] == 1.0
        assert warm_sink.getvalue() == sink.getvalue()

    def test_litmus_catalog_is_byte_identical_after_a_restart(
            self, live, tmp_path):
        """A new service over the same store answers every case from
        the verdict segments on disk; the stored rows come back with
        sorted keys and must still render the cold pass's bytes."""
        store_dir = str(tmp_path / "restart")
        base, cold = live(jobs=2, store_dir=store_dir)
        sink = io.StringIO()
        assert client.run_litmus(base, as_json=True, out=sink) == 0
        cold.shutdown(drain=True, timeout=60.0)
        base, _warm = live(jobs=1, store_dir=store_dir)
        stats: dict = {}
        restart_sink = io.StringIO()
        assert client.run_litmus(base, as_json=True, out=restart_sink,
                                 cache_stats=stats) == 0
        assert stats["cached"] == stats["total"]
        assert restart_sink.getvalue() == sink.getvalue()

    def test_warm_batch_reports_store_hits(self, live):
        base, _svc = live()
        specs = [{"kind": "litmus", "case": case.name}
                 for case in ALL_TRANSFORMATION_CASES[:4]]
        cold = client.submit_batch(base, specs)
        for entry in cold["jobs"]:
            client.wait_job(base, entry["job"], timeout=300.0)
        assert cold["cached"] == 0
        warm = client.submit_batch(base, specs)
        assert warm["cached"] == warm["total"] == len(specs)
        for entry in warm["jobs"]:
            assert entry["cached"] is True
            assert entry["served_from"] == "store"

    def test_closed_service_maps_to_503_shutting_down(self, live):
        """Late submissions while the engine drains: the listener is
        still up, so the refusal must be a 503 error body, never a
        hang or a traceback."""
        base, svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        svc.shutdown(drain=True, timeout=300.0)
        assert svc.get(submission["job"]).state == "done"
        with pytest.raises(client.ServiceError) as excinfo:
            client.submit(base, VALIDATE_SPEC)
        assert excinfo.value.status == 503
        assert excinfo.value.code == "shutting-down"

    def test_shutdown_endpoint_drains_and_stops(self, live):
        base, svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        assert client.shutdown(base)["shutting_down"] is True
        # The accepted job still finishes (drain), then intake closes.
        job = svc.wait(submission["job"], timeout=300.0)
        assert job.state == "done"
        deadline = 200
        while not svc.stats()["closed"] and deadline:
            deadline -= 1
            threading.Event().wait(0.05)
        assert svc.stats()["closed"] is True


@pytest.fixture
def accepted(monkeypatch):
    """One Event per connection a test server accepts, set when the
    connection's handler thread ends."""
    finished: list[threading.Event] = []
    original = ServeHTTPServer.process_request_thread

    def tracked(server, request, client_address):
        done = threading.Event()
        finished.append(done)
        try:
            original(server, request, client_address)
        finally:
            done.set()

    monkeypatch.setattr(ServeHTTPServer, "process_request_thread", tracked)
    return finished


def _address(base: str) -> tuple[str, int]:
    host, port = base.rsplit("/", 1)[1].split(":")
    return host, int(port)


class TestKeepAlive:
    """The transport: one persistent connection per client thread, and
    error responses that close theirs."""

    def test_one_thread_one_connection(self, live, accepted):
        base, _svc = live()
        for _ in range(20):
            submission = client.submit(base, VALIDATE_SPEC)
            client.stream_events(base, submission["job"],
                                 out=io.StringIO())
        assert client.request(base, "GET", "/v1/version")["service"] \
            == "repro-serve/1"
        assert len(accepted) == 1

    def test_two_threads_two_connections(self, live, accepted):
        base, _svc = live()
        errors = []

        def calls():
            try:
                for _ in range(5):
                    client.request(base, "GET", "/v1/version")
            except client.ServiceError as error:
                errors.append(error)

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert errors == []
        assert len(accepted) == 2

    def test_warm_pairs_are_not_stalled_by_nagle(self, live):
        """Nagle plus delayed ACK on a reused connection costs ~40 ms a
        request; a warm submit + stream pair takes a few ms without."""
        base, _svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        client.wait_job(base, submission["job"], timeout=300.0)
        latencies = []
        for _ in range(50):
            started = time.perf_counter()
            warm = client.submit(base, VALIDATE_SPEC)
            client.stream_events(base, warm["job"], out=io.StringIO())
            latencies.append(time.perf_counter() - started)
        assert statistics.median(latencies) < 0.020

    def test_connection_closed_by_the_server_is_replaced(
            self, live, accepted, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        base, _svc = live()
        client.request(base, "GET", "/v1/version")
        assert accepted[0].wait(timeout=10.0)  # idle: the server closed it
        assert client.request(base, "GET", "/v1/version")["service"] \
            == "repro-serve/1"
        assert len(accepted) == 2

    def test_nothing_listening_is_unreachable_after_one_attempt(
            self, monkeypatch):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        attempts = []
        connect = client._Connection.connect

        def counted(conn):
            attempts.append(conn.port)
            return connect(conn)

        monkeypatch.setattr(client._Connection, "connect", counted)
        with pytest.raises(client.ServiceError) as excinfo:
            client.request(f"http://127.0.0.1:{port}", "GET", "/v1/version")
        assert (excinfo.value.status, excinfo.value.code) \
            == (0, "unreachable")
        assert attempts == [port]

    def test_idle_connection_is_closed_and_its_thread_exits(
            self, live, accepted, monkeypatch):
        assert _Handler.timeout == IDLE_TIMEOUT_S
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        base, _svc = live()
        with socket.create_connection(_address(base), timeout=10.0) as raw:
            assert raw.recv(1) == b""
        assert accepted[0].wait(timeout=10.0)

    PIPELINED = b"GET /v1/version HTTP/1.1\r\nHost: test\r\n\r\n"

    @pytest.mark.parametrize("first, status", [
        (b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
         b"Content-Length: 100\r\n\r\nhello", 413),
        (b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n\r\n", 411),
        (b"PUT /v1/jobs HTTP/1.1\r\nHost: test\r\n"
         b"Content-Length: 5\r\n\r\nhello", 501),
        (b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
         b"Content-Length: 9\r\n\r\n{not json", 400),
    ], ids=["413", "411", "501", "400-bad-json"])
    def test_error_response_closes_its_connection(self, live, first,
                                                  status):
        """A request pipelined behind an error must not be parsed out
        of the error's unread body: the error closes the connection."""
        base, _svc = live(max_body_bytes=64)
        received = b""
        with socket.create_connection(_address(base), timeout=10.0) as raw:
            raw.sendall(first + self.PIPELINED)
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                received += chunk
        assert re.findall(rb"HTTP/1\.1 (\d{3}) ", received) \
            == [str(status).encode()]
        head = received.split(b"\r\n\r\n", 1)[0]
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"

    def test_thread_recovers_after_error_responses(self, live, accepted):
        base, _svc = live()
        with pytest.raises(client.ServiceError) as bad:
            client.submit(base, {"kind": "validate", "source": "x := (",
                                 "target": "return 0;"})
        assert (bad.value.status, bad.value.code) == (400, "bad-program")
        with pytest.raises(client.ServiceError) as missing:
            client.request(base, "GET", "/v1/jobs/j-doesnotexist")
        assert (missing.value.status, missing.value.code) \
            == (404, "unknown-job")
        submission = client.submit(base, VALIDATE_SPEC)
        assert client.wait_job(base, submission["job"],
                               timeout=300.0)["state"] == "done"
        assert len(accepted) == 3  # each error closed its connection

    def test_wait_job_blocks_on_the_event_stream(self, live, monkeypatch):
        release = threading.Event()
        worker = serve_jobs.serve_job_worker

        def gated(canonical):
            release.wait(timeout=60.0)
            return worker(canonical)

        monkeypatch.setattr(serve_jobs, "serve_job_worker", gated)
        base, svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        try:
            with pytest.raises(client.ServiceError) as excinfo:
                client.wait_job(base, submission["job"], timeout=0.3)
            assert (excinfo.value.status, excinfo.value.code) \
                == (0, "timeout")
            before = svc.metrics.snapshot()["counters"]["http.requests"]
            opener = threading.Timer(0.3, release.set)
            opener.start()
            status = client.wait_job(base, submission["job"],
                                     timeout=60.0)
            opener.join(timeout=10.0)
        finally:
            release.set()
        assert status["state"] == "done"
        # The stream and one status read, however long the job ran.
        assert svc.metrics.snapshot()["counters"]["http.requests"] \
            - before == 2

    def test_cli_submit_reads_the_stream_once(self, live, capsys):
        """``submit --stream`` prints the events, then the status;
        ``submit --wait`` prints the status.  Each is one submission,
        one event stream and one status read."""
        base, svc = live()
        spec = json.dumps(VALIDATE_SPEC)
        assert cli_main(["client", "--base", base, "submit", "--stream",
                         spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        split = lines.index("{")
        events = [json.loads(line) for line in lines[:split]]
        assert events[-1]["ev"] == "stream-end"
        assert json.loads("\n".join(lines[split:]))["state"] == "done"
        assert cli_main(["client", "--base", base, "submit", "--wait",
                         spec]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"
        assert svc.metrics.snapshot()["counters"]["http.requests"] == 6


class TestVerdictStore:
    def test_concurrent_writers_one_directory(self, tmp_path):
        """Two store handles (= two service processes) interleave writes
        into one directory; a fresh handle sees every verdict."""
        directory = str(tmp_path / "shared")
        a, b = VerdictStore(directory), VerdictStore(directory)
        digests = []
        for index in range(16):
            canonical = {"kind": "validate", "n": index}
            digest = request_digest(canonical)
            digests.append(digest)
            (a if index % 2 else b).put(digest, "validate",
                                        {"n": index})
        a.close(), b.close()
        fresh = VerdictStore(directory)
        try:
            for index, digest in enumerate(digests):
                assert fresh.get(digest) == {"n": index}
        finally:
            fresh.close()

    def test_corrupt_segment_line_is_skipped_not_fatal(self, tmp_path):
        directory = tmp_path / "corrupt"
        store = VerdictStore(str(directory))
        digest = request_digest({"kind": "validate", "ok": True})
        store.put(digest, "validate", {"ok": True})
        store.close()
        segment = next(directory.glob("*.vseg"))
        with open(segment, "a") as handle:
            handle.write("{truncated garbage\n")
        reopened = VerdictStore(str(directory))
        try:
            assert reopened.get(digest) == {"ok": True}
        finally:
            reopened.close()


class TestTelemetry:
    """Cross-process request tracing and the ``/v1/metrics`` layer."""

    def test_one_job_is_one_trace_across_the_spawn_pool(self, live):
        """The acceptance path: a single HTTP job on a ``--jobs 2``
        service yields one trace covering normalize, store consult,
        queue wait, worker execute, and render — with the worker-side
        spans re-parented on the execute span and attributed to the
        originating trace id."""
        base, svc = live(jobs=2)
        submission = client.submit(base, VALIDATE_SPEC,
                                   trace_id="accept-1")
        assert submission["trace"] == "accept-1"
        client.wait_job(base, submission["job"], timeout=300.0)
        records = client.fetch_trace(base, submission["job"])
        head, spans = records[0], records[1:]
        assert head["ev"] == "meta"
        assert head["schema"] == "repro-trace/1"
        assert head["trace"] == "accept-1"
        names = {record["name"] for record in spans}
        assert {"serve.normalize", "serve.store", "serve.queue",
                "serve.execute", "serve.render",
                "serve.request"} <= names
        assert all(record["trace"] == "accept-1" for record in spans)
        root = next(r for r in spans if r["name"] == "serve.request")
        assert root["depth"] == 0
        execute = next(r for r in spans if r["name"] == "serve.execute")
        assert execute["parent"] == root["span"]
        workers = [r for r in spans if r.get("worker")]
        assert workers, "no worker-side spans crossed the pool boundary"
        assert all(w["depth"] == 2 and w["parent"] == execute["span"]
                   for w in workers)
        # The job's event stream carries the same attribution: every
        # trace-stamped event names the originating trace.
        lines, _cursor, ended = svc.read_events(submission["job"],
                                                timeout=30.0)
        assert ended
        stamped = [json.loads(line) for line in lines
                   if '"trace"' in line]
        assert stamped
        assert all(event["trace"] == "accept-1" for event in stamped)

    def test_unusable_trace_header_gets_a_fresh_id(self, live):
        base, _svc = live()
        submission = client.submit(base, VALIDATE_SPEC,
                                   trace_id="bad header\x00")
        assert submission["trace"]
        assert submission["trace"] != "bad header\x00"

    def test_metrics_json_and_prometheus_agree(self, live):
        from repro.serve.metrics import (
            exposition_problems,
            parse_exposition,
            sample_value,
        )

        base, _svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        client.wait_job(base, submission["job"], timeout=300.0)
        payload = client.fetch_metrics(base, as_json=True)
        assert payload["schema"] == "repro-servemetrics/1"
        text = client.fetch_metrics(base, as_json=False)
        assert exposition_problems(text) == []
        parsed = parse_exposition(text)
        assert sample_value(parsed, "repro_serve_requests_total") \
            == payload["counters"]["requests.total"]
        assert sample_value(parsed, "repro_serve_jobs_executed_total") \
            == payload["counters"]["jobs.executed"] == 1
        latency = payload["histograms"]["request.latency_s"]
        assert sample_value(
            parsed, "repro_serve_request_latency_seconds_count") \
            == latency["count"]

    def test_metrics_deterministic_across_worker_counts(self, service,
                                                        tmp_path):
        """The reproducibility gate: the same submissions through one
        in-process worker and through a 2-process spawn pool must
        produce byte-identical metrics on the deterministic projection
        (integer counters and histogram totals; wall-clock sums,
        gauges, and transport counters excluded by design)."""

        def run(jobs, store_dir):
            svc = service(jobs=jobs, store_dir=store_dir)
            specs = [VALIDATE_SPEC] \
                + [{"kind": "litmus", "case": case.name}
                   for case in ALL_TRANSFORMATION_CASES[:2]]
            for spec in specs:
                job, _ = svc.submit(spec)
                svc.wait(job.id, timeout=300.0)
            # A repeat submission exercises the served-from-registry
            # counter identically in both configurations.
            svc.submit(VALIDATE_SPEC)
            return svc.metrics_payload()

        def project(payload):
            counters = {name: value
                        for name, value in payload["counters"].items()
                        if not name.startswith("http.")}
            histogram_counts = {
                name: summary["count"]
                for name, summary in payload["histograms"].items()
                if not name.startswith("http.")}
            return json.dumps({"counters": counters,
                               "histograms": histogram_counts},
                              sort_keys=True)

        serial = run(1, str(tmp_path / "store-1"))
        pooled = run(2, str(tmp_path / "store-2"))
        assert project(serial) == project(pooled)

    def test_job_stream_and_trace_do_not_depend_on_worker_count(
            self, service, tmp_path):
        """In process or in the pool, a job runs through one executor:
        the same status body, the same event lines apart from their
        clocks, and the same trace shape."""
        specs = [VALIDATE_SPEC,
                 {"kind": "litmus", "case": ALL_TRANSFORMATION_CASES[0].name},
                 {"kind": "explore", "programs": TestCertReuse.LB,
                  "promises": 1},
                 {"kind": "adequacy", "source": VALIDATE_SPEC["source"],
                  "target": VALIDATE_SPEC["target"]}]

        def observe(job):
            events = []
            for line in job.event_lines:
                event = json.loads(line)
                event.pop("t", None)
                event.pop("dur_s", None)
                events.append(event)
            records = job.trace.records()
            names = {record["span"]: record["name"] for record in records}
            shape = [(record["name"], record["depth"],
                      record.get("worker", False),
                      names.get(record.get("parent")))
                     for record in records]
            return job.status(), events, shape

        def run(jobs, store_dir):
            svc = service(jobs=jobs, store_dir=store_dir)
            observed = []
            for spec in specs:
                job = svc.wait(svc.submit(spec, trace_id="parity")[0].id,
                               timeout=300.0)
                # wait() returns once the job is done, which can be
                # before its root span is sealed.
                deadline = time.monotonic() + 30.0
                while not job.trace.closed \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert job.state == "done" and job.trace.closed
                observed.append(observe(job))
            return observed

        serial = run(1, str(tmp_path / "store-1"))
        pooled = run(2, str(tmp_path / "store-2"))
        for spec, one, two in zip(specs, serial, pooled):
            assert one == two, spec["kind"]
        assert any(worker for _status, _events, shape in serial
                   for _name, _depth, worker, _parent in shape)

    def test_audit_ledger_records_the_request_lifecycle(self, live,
                                                        tmp_path):
        base, svc = live()
        submission = client.submit(base, VALIDATE_SPEC,
                                   trace_id="audit-1")
        client.wait_job(base, submission["job"], timeout=300.0)
        client.submit(base, VALIDATE_SPEC)  # warm: served without a run
        svc.shutdown(drain=True, timeout=60.0)
        audit_path = tmp_path / "verdicts" / "audit.jsonl"
        entries = [json.loads(line)
                   for line in audit_path.read_text().splitlines()]
        events = [entry["event"] for entry in entries]
        assert events.count("submitted") == 2
        assert events.count("completed") == 1
        first = next(e for e in entries if e["event"] == "submitted")
        assert first["trace"] == "audit-1"
        assert first["client"] == "127.0.0.1"
        assert first["job"] == submission["job"]
        completed = next(e for e in entries
                         if e["event"] == "completed")
        assert completed["state"] == "done"
        assert completed["verdict"]  # digest of the result payload
        warm = entries[events.index("submitted", 1)] \
            if events.index("submitted", 1) else entries[-1]
        assert warm["served_from"] in ("store", "dedup")

    def test_streaming_client_survives_drain_shutdown(self, live):
        """Satellite: a client mid-way through the event stream when
        ``shutdown(drain=True)`` lands must still receive the
        stream-end sentinel, never a hang or a dropped socket."""
        base, svc = live()
        case = ALL_TRANSFORMATION_CASES[0]
        submission = client.submit(base,
                                   {"kind": "litmus",
                                    "case": case.name})
        sink = io.StringIO()
        errors = []

        def streamer():
            try:
                client.stream_events(base, submission["job"], out=sink,
                                     timeout=300.0)
            except Exception as error:  # surfaced in the main thread
                errors.append(error)

        thread = threading.Thread(target=streamer)
        thread.start()
        svc.shutdown(drain=True, timeout=300.0)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert errors == []
        events = [json.loads(line)
                  for line in sink.getvalue().splitlines()]
        assert events[-1]["ev"] == "stream-end"
        assert any((event.get("name") or event["ev"]) == "result"
                   for event in events)

    def test_repro_top_renders_one_frame(self, live, capsys):
        base, _svc = live()
        submission = client.submit(base, VALIDATE_SPEC)
        client.wait_job(base, submission["job"], timeout=300.0)
        assert cli_main(["top", "--base", base, "--once"]) == 0
        frame = capsys.readouterr().out
        assert "p50" in frame and "p95" in frame and "p99" in frame
        assert "queue" in frame
        # --once never clears the screen (pipe- and CI-friendly).
        assert "\x1b[" not in frame

    def test_top_against_a_dead_service_exits_two(self, capsys):
        assert cli_main(["top", "--base", "http://127.0.0.1:1",
                         "--once"]) == 2
        assert "" == capsys.readouterr().out


class TestStoreLRU:
    def _seed(self, directory, n=8):
        writer = VerdictStore(directory)
        digests = []
        for index in range(n):
            digest = request_digest({"kind": "validate", "n": index})
            digests.append(digest)
            writer.put(digest, "validate", {"n": index, "valid": True})
        writer.close()
        return digests

    def test_responses_identical_with_lru_on_and_off(self, tmp_path):
        directory = str(tmp_path / "store")
        digests = self._seed(directory)
        cached = VerdictStore(directory)
        bare = VerdictStore(directory, lru_entries=0)
        try:
            for _pass in range(2):  # cold from disk, then LRU-warm
                for digest in digests:
                    assert json.dumps(cached.get(digest),
                                      sort_keys=True) \
                        == json.dumps(bare.get(digest), sort_keys=True)
            stats = cached.stats()
            assert stats["lru_hits"] == len(digests)
            assert stats["lru_misses"] == len(digests)
            assert bare.stats()["lru_hits"] == 0
            assert bare.stats()["lru_size"] == 0
        finally:
            cached.close()
            bare.close()

    def test_lru_capacity_is_bounded(self, tmp_path):
        directory = str(tmp_path / "store")
        digests = self._seed(directory)
        store = VerdictStore(directory, lru_entries=2)
        try:
            for digest in digests:
                assert store.get(digest) is not None
            stats = store.stats()
            assert stats["lru_size"] == 2
            assert stats["lru_entries"] == 2
            # Re-reading the most recent entry hits; the evicted
            # oldest one goes back to disk.
            store.get(digests[-1])
            assert store.stats()["lru_hits"] == 1
            assert store.get(digests[0]) is not None
        finally:
            store.close()

    def test_get_misses_do_not_touch_lru_counters(self, tmp_path):
        store = VerdictStore(str(tmp_path / "store"))
        try:
            assert store.get("d" * 32) is None
            stats = store.stats()
            assert stats["misses"] == 1
            assert stats["lru_hits"] == stats["lru_misses"] == 0
        finally:
            store.close()
