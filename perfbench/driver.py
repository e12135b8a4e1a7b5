"""Service processes, the closed-loop load generator, and /proc readings.

The service under test is a real ``repro serve`` child process; the
load comes from this process, over at most two connections, each
sending its next request only after the previous one's ``stream-end``
line arrived on the blocking ``GET /v1/jobs/<id>/events`` stream.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPException
from typing import Optional

from repro.serve import client as svc

clock = time.perf_counter

READY_TIMEOUT_S = 60.0
#: Socket timeout of one request; a job still silent after this counts
#: as failed.
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class ServiceFailed(RuntimeError):
    """The service did not come up, or set-up requests failed."""


class ServiceProcess:
    """One ``repro serve`` child on a free port, store under ``cache``.

    ``spans_dir`` launches it through ``perfbench/traced_serve.py``, which
    installs the ledger's wrappers first and leaves span files there.
    """

    def __init__(self, root: str, run_dir: str, cache: str, jobs: int,
                 name: str, spans_dir: Optional[str] = None) -> None:
        self.run_dir = run_dir
        self.ready = os.path.join(run_dir, f"ready-{name}.txt")
        self.log_path = os.path.join(run_dir, f"serve-{name}.log")
        if spans_dir is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable,
                    os.path.join(root, "perfbench", "traced_serve.py"),
                    spans_dir]
        self.argv = argv + ["serve", "--host", "127.0.0.1", "--port", "0",
                            "--jobs", str(jobs), "--ready-file", self.ready]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        REPRO_CACHE_DIR=cache)
        self.proc: Optional[subprocess.Popen] = None
        self.base = ""

    def start(self) -> None:
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.run_dir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                with open(self.ready) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    self.base = text.strip()
                    return
            except FileNotFoundError:
                pass
            if self.proc.poll() is not None:
                raise ServiceFailed(f"repro serve exited with "
                                    f"{self.proc.returncode}: {self.log()}")
            if time.monotonic() > deadline:
                self.kill()
                raise ServiceFailed("repro serve did not become ready")
            time.sleep(0.005)

    def log(self) -> str:
        try:
            with open(self.log_path) as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """Graceful drain through ``POST /v1/shutdown``; waits for exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            svc.shutdown(self.base, timeout=STOP_TIMEOUT_S)
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (svc.ServiceError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self) -> None:
        """SIGKILL the service and its pool workers."""
        if self.proc is not None and self.proc.poll() is None:
            for pid in reversed(process_tree(self.proc.pid)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait()


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


class _StreamSink:
    """Collects a job's NDJSON stream; stamps the ``stream-end`` line."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.end: Optional[float] = None

    def write(self, text: str) -> None:
        self.parts.append(text)
        if self.end is None and '"ev": "stream-end"' in text:
            self.end = clock()

    def flush(self) -> None:
        pass


@dataclass
class Outcome:
    """What one request got: times, submission body, result, error."""

    started: float
    ended: float
    job: Optional[str] = None
    served_from: Optional[str] = None
    state: Optional[str] = None
    result: Optional[dict] = None
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.state is not None

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


def one_request(base: str, spec: dict) -> Outcome:
    started = clock()
    try:
        submission = svc.submit(base, spec, timeout=REQUEST_TIMEOUT_S)
        sink = _StreamSink()
        svc.stream_events(base, submission["job"], out=sink,
                          timeout=REQUEST_TIMEOUT_S)
        events = [json.loads(line)
                  for line in "".join(sink.parts).splitlines()]
    except (svc.ServiceError, OSError, HTTPException, ValueError,
            KeyError) as error:
        return Outcome(started, clock(),
                       error=f"{type(error).__name__}: {error}")
    outcome = Outcome(started, sink.end if sink.end is not None else clock(),
                      job=submission["job"],
                      served_from=submission.get("served_from"))
    for event in events:
        if event.get("ev") == "event" and event.get("name") == "result":
            outcome.result = {key: value for key, value in event.items()
                              if key not in ("ev", "seq", "t", "name",
                                             "job", "cached", "trace")}
        elif event.get("ev") == "stream-end":
            outcome.state = event.get("state")
    if outcome.state is None:
        outcome.error = "stream ended without stream-end"
    return outcome


def closed_loop(base: str, specs: list[dict],
                connections: int) -> list[Outcome]:
    """Send ``specs`` in order over ``connections`` closed-loop clients;
    outcomes come back in spec order."""
    outcomes: list[Optional[Outcome]] = [None] * len(specs)
    cursor = iter(range(len(specs)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcomes[index] = one_request(base, specs[index])

    threads = [threading.Thread(target=client, name=f"client-{n}",
                                daemon=True)
               for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# /proc readings of the service's process tree
# ---------------------------------------------------------------------------


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its descendants (pool workers included)."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        try:
            threads = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for thread in threads:
            try:
                with open(f"/proc/{current}/task/{thread}/children") as fh:
                    frontier.extend(int(child) for child in fh.read().split())
            except OSError:
                continue
    return tree


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_memory_mb(pid: int, field: str) -> float:
    """Sum of ``VmHWM`` (peak) or ``VmRSS`` (current) over the tree."""
    return sum(_status_kb(p, field) for p in process_tree(pid)) / 1024.0


def tree_cpu_s(pid: int) -> dict[int, float]:
    """User + system CPU seconds of every process in the tree."""
    ticks = os.sysconf("SC_CLK_TCK")
    usage = {}
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        usage[member] = (int(fields[11]) + int(fields[12])) / ticks
    return usage


def cpu_delta_s(before: dict[int, float], after: dict[int, float]) -> float:
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())
