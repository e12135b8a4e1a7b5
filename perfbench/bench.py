"""One benchmark run: set-up, timed phase, scoring and output.

:func:`main` is what ``perfbench/run.py`` calls once ``repro`` is
importable; see that file and ``README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import sys
import time

from repro.serve import client as svc

from . import driver, ledger, workloads

RUNS_DIR = ".perfbench-runs"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A latency percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

clock = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values: list[float], q: float) -> int:
    threshold = percentile(values, q)
    return sum(1 for value in values if value > threshold)


def tail_percentile(values: list[float], q: float = 90.0) -> float:
    """``percentile(values, q)``, refusing a tail too thin to report."""
    if not values or samples_beyond(values, q) < TAIL_SAMPLES:
        raise ValueError(f"p{q:g} needs at least {TAIL_SAMPLES} samples "
                         f"beyond it; {len(values)} latencies measured")
    return percentile(values, q)


class Run:
    """One benchmark invocation's services, phases and files."""

    def __init__(self, root: str, workload, run_dir: str) -> None:
        self.root = root
        self.workload = workload
        self.run_dir = run_dir
        self.launches = 0

    def _service(self, cache: str, spans_dir=None):
        self.launches += 1
        return driver.ServiceProcess(
            self.root, self.run_dir, cache, self.workload.jobs,
            str(self.launches), spans_dir)

    def _require(self, requests, outcomes, phase: str) -> None:
        bad = wrong_answers(requests, outcomes)
        if bad:
            raise driver.ServiceFailed(
                f"{phase} failed ({len(bad)}): " + "; ".join(bad[:3]))

    def setup(self, spans_dir=None):
        """Boot on a fresh store (populate, shut down and boot again for
        ``warm-restart``), then warm every worker up.  Returns the
        running service and the set-up seconds."""
        wl = self.workload
        cache = os.path.join(self.run_dir, f"cache-{self.launches + 1}")
        started = clock()
        if wl.populate is not None:
            first = self._service(cache)
            try:
                first.start()
                outcomes = driver.closed_loop(
                    first.base, [r.spec for r in wl.populate],
                    wl.connections)
                self._require(wl.populate, outcomes, "populate")
            finally:
                first.stop()
        service = self._service(cache, spans_dir)
        try:
            service.start()
            outcomes = driver.closed_loop(
                service.base, [r.spec for r in wl.warmup], wl.connections)
            self._require(wl.warmup, outcomes, "warm-up")
        except BaseException:
            service.kill()
            raise
        return service, clock() - started

    def timed(self, service) -> dict:
        """The timed phase: every timed request, closed loop."""
        pid = service.proc.pid
        cpu_before = driver.tree_cpu_s(pid)
        client_before = time.process_time()
        started = clock()
        outcomes = driver.closed_loop(
            service.base, [r.spec for r in self.workload.timed],
            self.workload.connections)
        wall = clock() - started
        return {"outcomes": outcomes, "wall_s": wall,
                "client_cpu_s": time.process_time() - client_before,
                "service_cpu_s": driver.cpu_delta_s(
                    cpu_before, driver.tree_cpu_s(pid)),
                "peak_rss_mb": driver.tree_memory_mb(pid, "VmHWM")}


def wrong_answers(requests, outcomes, served_from=None) -> list[str]:
    """One line per request that failed: transport error, failed job,
    wrong answer, or (with ``served_from``) answered from elsewhere."""
    reasons = workloads.check_answers(
        requests, [o.result if o.state == "done" else None
                   for o in outcomes])
    wrong = []
    for index, (request, outcome, reason) in enumerate(
            zip(requests, outcomes, reasons)):
        why = outcome.error
        if why is None and outcome.state != "done":
            why = f"job {outcome.state}"
        if why is None and served_from is not None \
                and outcome.served_from != served_from:
            why = (f"served from {outcome.served_from}, expected "
                   f"{served_from}")
        why = why or reason
        if why:
            wrong.append(f"#{index} {request.label} "
                         f"({outcome.job}): {why}")
    return wrong


def score(workload, phase: dict) -> dict:
    """Correctness and the latency/throughput figures of one phase."""
    outcomes = phase["outcomes"]
    # Cold workloads must execute every request; the warm replay must
    # execute none.
    wrong = wrong_answers(
        workload.timed, outcomes,
        "store" if workload.populate is not None else "queue")
    latencies = [o.latency_ms for o in outcomes if o.completed]
    attempted = len(outcomes)
    p90 = tail_percentile(latencies, 90)
    return {
        "attempted": attempted, "wrong": wrong,
        "completed": len(latencies),
        "verdicts_per_s": len(latencies) / phase["wall_s"],
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": p90,
        "beyond_p90": samples_beyond(latencies, 90),
        "correct_share": (attempted - len(wrong)) / attempted,
    }


def measure(run: Run) -> tuple[dict, dict]:
    """``--trace 0``: the end-to-end metrics."""
    setups = []
    service = None
    for attempt in range(SETUP_REPEATS):
        service, seconds = run.setup()
        setups.append(seconds)
        if attempt < SETUP_REPEATS - 1:
            service.stop()
    try:
        phase = run.timed(service)
    finally:
        service.stop()
    scored = score(run.workload, phase)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (scored["verdicts_per_s"], "1/s"),
        "latency_p50_ms": (scored["latency_p50_ms"], "ms"),
        "latency_p90_ms": (scored["latency_p90_ms"], "ms"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
        "correct_share": (scored["correct_share"], "ratio"),
    }
    return scored, metrics


#: Per-layer metric units (the ``--trace 1`` output, in this order).
LAYER_UNITS = {
    "client.self_ms": "ms", "client.cpu_share": "ratio",
    "http.requests": "count", "http.self_ms": "ms",
    "jobs.normalize_ms": "ms", "jobs.execute_ms": "ms",
    "store.open_ms": "ms", "store.get_ms": "ms",
    "store.hit_share": "ratio", "store.lru_hit_share": "ratio",
    "store.put_ms": "ms", "store.bytes_written": "B",
    "service.submit_self_ms": "ms", "service.stream_self_ms": "ms",
    "service.queue_wait_ms": "ms", "service.render_ms": "ms",
    "service.served_store": "count", "service.served_queue": "count",
    "service.served_dedup": "count", "service.cpu_ms_per_verdict": "ms",
    "service.rss_after_setup_mb": "MB",
    "pool.boot_s": "s", "pool.dispatch_ms": "ms",
    "obs.job_overhead_ms": "ms",
    "seq.checks": "count", "seq.check_ms": "ms",
    "seq.game_states": "count",
    "psna.explorations": "count", "psna.explore_ms": "ms",
    "psna.states": "count", "psna.states_per_s": "1/s",
    "psna.dedup_share": "ratio", "psna.certify_calls": "count",
    "psna.certify_ms": "ms", "psna.cert_cache_hit_share": "ratio",
    "psna.cert_store_ms": "ms", "psna.intern_ms": "ms",
    "psna.canonical_key_ms": "ms", "psna.successors_ms": "ms",
    "trace.overhead_share": "ratio", "trace.unattributed_share": "ratio",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def trace(run: Run) -> tuple[dict, dict]:
    """``--trace 1``: an untraced pass for reference, then the traced
    pass whose spans make the per-layer ledger."""
    service, _seconds = run.setup()
    rss_after_setup = driver.tree_memory_mb(service.proc.pid, "VmRSS")
    try:
        plain = run.timed(service)
    finally:
        service.stop()
    plain_scored = score(run.workload, plain)

    spans_dir = os.path.join(run.run_dir, "spans")
    os.makedirs(spans_dir)
    service, _seconds = run.setup(spans_dir)
    warm_end = clock()
    recorder = ledger.Recorder()
    try:
        metrics_before = svc.fetch_metrics(service.base)["counters"]
        store_before = svc.request(service.base, "GET", "/v1/store/stats")
        ledger.install_client(recorder)
        try:
            traced = run.timed(service)
        finally:
            recorder.unpatch()
        metrics_after = svc.fetch_metrics(service.base)["counters"]
        store_after = svc.request(service.base, "GET", "/v1/store/stats")
    finally:
        service.stop()
    scored = score(run.workload, traced)

    dumps = ledger.load_dumps(spans_dir)
    dumps.append({"role": "client", "spans": recorder.rows()})
    requests = [(o.job, o.started, o.ended)
                for o in traced["outcomes"] if o.completed]
    layers = ledger.analyze(dumps, requests, run.workload.jobs)
    setup_spans = ledger.setup_spans(dumps)

    def delta(before, after, name):
        return after.get(name, 0) - before.get(name, 0)

    hits = delta(store_before, store_after, "hits")
    misses = delta(store_before, store_after, "misses")
    lru_hits = delta(store_before, store_after, "lru_hits")
    lru_misses = delta(store_before, store_after, "lru_misses")
    boot = warm_end - setup_spans["init_start"] \
        if run.workload.jobs > 1 and setup_spans["init_start"] else 0.0
    layers.update({
        "client.cpu_share": _share(plain["client_cpu_s"], plain["wall_s"]),
        "store.open_ms": setup_spans["store_open_s"] * 1000.0,
        "store.hit_share": _share(hits, hits + misses),
        "store.lru_hit_share": _share(lru_hits, lru_hits + lru_misses),
        "store.bytes_written": delta(store_before, store_after,
                                     "size_bytes"),
        "service.served_store": delta(metrics_before, metrics_after,
                                      "served.store"),
        "service.served_queue": delta(metrics_before, metrics_after,
                                      "served.queue"),
        "service.served_dedup": delta(metrics_before, metrics_after,
                                      "served.dedup"),
        "service.cpu_ms_per_verdict": _share(
            plain["service_cpu_s"] * 1000.0, plain_scored["completed"]),
        "service.rss_after_setup_mb": rss_after_setup,
        "pool.boot_s": boot,
        "trace.overhead_share": 1.0 - _share(
            scored["verdicts_per_s"], plain_scored["verdicts_per_s"]),
    })
    metrics = {name: (layers[name], unit)
               for name, unit in LAYER_UNITS.items()}
    # Both passes count towards correctness.
    scored["attempted"] += plain_scored["attempted"]
    scored["wrong"] = [f"(untraced pass) {line}"
                       for line in plain_scored["wrong"]] + scored["wrong"]
    return scored, metrics


def main(root: str, argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Compile once per checkout, so no set-up pays for bytecode.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    workload = workloads.build(args.workload, args.seed, args.seconds)
    runs = os.path.join(root, RUNS_DIR)
    run_dir = os.path.join(runs, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        run = Run(root, workload, run_dir)
        scored, metrics = trace(run) if args.trace else measure(run)
    except Exception as error:  # noqa: BLE001 — report, print no result
        print(f"perfbench: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    for line in scored["wrong"]:
        print(f"wrong answer {line}")
    print(f"{args.workload} seed={args.seed}: {scored['attempted']} timed "
          f"requests, {scored['completed']} latency samples, "
          f"{scored['beyond_p90']} beyond p90, "
          f"{len(scored['wrong'])} wrong")
    print(json.dumps({
        "correct": not scored["wrong"],
        "attempted": scored["attempted"],
        "failed": len(scored["wrong"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
