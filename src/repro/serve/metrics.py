"""Deterministic service metrics: ``repro-servemetrics/1`` + Prometheus.

The service's operative signals — tail latency, queue saturation,
cache effectiveness — are distributions and rates, which the batch
:class:`repro.obs.metrics.Histogram` (count/sum/min/max) cannot
answer.  This module adds the service-grade layer: **integer counts in
fixed buckets**, with quantiles that are *exact functions of the
counts* (the upper bound of the bucket holding the rank), not
interpolations.  The service process records every observation itself,
whether a job ran in process or in a spawn worker, so the same
submissions give the same counts at any ``--jobs``.

Three surfaces, one source of truth:

* :class:`ServiceMetrics` — the thread-safe in-process registry
  (counters, gauges, fixed-bucket histograms, bounded sample rings
  for sparklines), owned by :class:`~repro.serve.service.
  VerificationService`;
* ``repro-servemetrics/1`` — the JSON snapshot schema
  (:func:`validate_servemetrics`), consumed by ``repro query``, the
  dashboard's Service-health panel, and CI artifacts;
* :func:`render_exposition` — the Prometheus text format served at
  ``GET /v1/metrics`` (``repro_serve_*`` names, cumulative
  ``_bucket{le=...}`` counts), with :func:`parse_exposition` /
  :func:`exposition_problems` as the matching reader and lint used by
  the CI metrics gate.

Naming: JSON metric names are dotted (``requests.total``,
``queue.wait_s``); the Prometheus mapping strips a leading ``serve.``
(store-owned counters arrive as ``serve.store.lru_hits``), turns dots
into underscores, suffixes counters with ``_total``, and renames a
histogram's trailing ``_s`` unit to ``_seconds``.

Determinism note: counters and histogram *counts* are exact integers;
histogram *sums* are float accumulations and gauges are point-in-time
samples, so byte-identity claims (and the tests that enforce them)
cover the integer projection plus exact-by-construction quantiles.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Optional, Sequence

from ..psna.semantics import SEMANTICS_VERSION

SERVEMETRICS_SCHEMA = "repro-servemetrics/1"

#: The fixed latency ladder, in seconds.  Fixed means *fixed*: every
#: worker count and run buckets identically, which is what keeps bucket
#: counts and quantiles comparable across runs.
LATENCY_BUCKETS_S = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                     0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: How many trailing samples a :meth:`ServiceMetrics.sample` ring
#: keeps (queue-depth sparklines on the dashboard).
SAMPLE_RING = 64

PROM_PREFIX = "repro_serve_"


class BucketHistogram:
    """Fixed-bucket histogram with exact quantiles.

    ``counts[i]`` counts observations ``v <= bounds[i]``; the final
    slot is the overflow bucket (``v > bounds[-1]``).
    ``quantile(q)`` returns the upper bound of the bucket containing
    the ``ceil(q * count)``-th observation (overflow clamps to the
    largest finite bound), an exact function of the counts.
    """

    __slots__ = ("bounds", "counts", "total")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must strictly increase")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value

    @property
    def count(self) -> int:
        return sum(self.counts)

    def quantile(self, q: float) -> float:
        count = self.count
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(q * count))
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]
        return self.bounds[-1]

    def summary(self) -> dict:
        return {
            "le": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class ServiceMetrics:
    """Thread-safe registry behind ``GET /v1/metrics``.

    Everything is O(1) per operation and guarded by one lock; the
    service calls into this from the HTTP threads, the drainer, and
    pool-result callbacks.
    """

    def __init__(self, sample_ring: int = SAMPLE_RING) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, BucketHistogram] = {}
        self._samples: dict[str, deque] = {}
        self._sample_ring = max(1, sample_ring)

    def inc(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = BucketHistogram(bounds)
            histogram.observe(value)

    def sample(self, name: str, value: float) -> None:
        """Record a gauge *and* append it to the bounded sample ring
        (the dashboard's sparkline series)."""
        with self._lock:
            self._gauges[name] = value
            ring = self._samples.get(name)
            if ring is None:
                ring = self._samples[name] = deque(maxlen=self._sample_ring)
            ring.append(value)

    def snapshot(self) -> dict:
        """The ``repro-servemetrics/1`` payload (sorted keys)."""
        with self._lock:
            return {
                "schema": SERVEMETRICS_SCHEMA,
                "semantics": SEMANTICS_VERSION,
                "counters": {name: self._counters[name]
                             for name in sorted(self._counters)},
                "gauges": {name: self._gauges[name]
                           for name in sorted(self._gauges)},
                "histograms": {name: self._histograms[name].summary()
                               for name in sorted(self._histograms)},
                "samples": {name: list(self._samples[name])
                            for name in sorted(self._samples)},
            }


def validate_servemetrics(payload) -> list[str]:
    """Problems (empty when valid) for a ``repro-servemetrics/1``
    payload — the :mod:`repro.obs.report` validator branch."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SERVEMETRICS_SCHEMA:
        problems.append(f"schema is not {SERVEMETRICS_SCHEMA}")
    if not isinstance(payload.get("semantics"), str):
        problems.append("semantics missing or not a string")
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        problems.append("counters missing or not an object")
    else:
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"counter {name} is not an integer")
            elif value < 0:
                problems.append(f"counter {name} is negative")
    gauges = payload.get("gauges")
    if not isinstance(gauges, dict):
        problems.append("gauges missing or not an object")
    else:
        for name, value in gauges.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"gauge {name} is not a number")
    histograms = payload.get("histograms")
    if not isinstance(histograms, dict):
        problems.append("histograms missing or not an object")
    else:
        for name, summary in histograms.items():
            problems.extend(f"histogram {name}: {issue}"
                            for issue in _summary_problems(summary))
    samples = payload.get("samples")
    if samples is not None and not isinstance(samples, dict):
        problems.append("samples is not an object")
    elif isinstance(samples, dict):
        for name, series in samples.items():
            if (not isinstance(series, list)
                    or not all(isinstance(v, (int, float))
                               and not isinstance(v, bool)
                               for v in series)):
                problems.append(f"sample series {name} is not a number list")
    return problems


def _summary_problems(summary) -> list[str]:
    if not isinstance(summary, dict):
        return ["not an object"]
    problems = []
    bounds = summary.get("le")
    if (not isinstance(bounds, list) or not bounds
            or not all(isinstance(b, (int, float))
                       and not isinstance(b, bool) for b in bounds)):
        problems.append("le missing or not a number list")
        bounds = None
    elif [float(b) for b in bounds] != sorted({float(b) for b in bounds}):
        problems.append("le bounds do not strictly increase")
    counts = summary.get("counts")
    if (not isinstance(counts, list)
            or not all(isinstance(c, int) and not isinstance(c, bool)
                       and c >= 0 for c in counts)):
        problems.append("counts missing or not non-negative integers")
        counts = None
    elif bounds is not None and len(counts) != len(bounds) + 1:
        problems.append("counts length is not len(le) + 1")
    if counts is not None and summary.get("count") != sum(counts):
        problems.append("count does not equal sum(counts)")
    for key in ("sum", "p50", "p95", "p99"):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{key} missing or not a number")
    return problems


def _prom_base(name: str) -> str:
    if name.startswith("serve."):
        name = name[len("serve."):]
    return PROM_PREFIX + name.replace(".", "_")


def _prom_counter(name: str) -> str:
    base = _prom_base(name)
    return base if base.endswith("_total") else base + "_total"


def _prom_histogram(name: str) -> str:
    base = _prom_base(name)
    return base[:-2] + "_seconds" if base.endswith("_s") else base


def _prom_float(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_exposition(payload: dict) -> str:
    """The Prometheus text exposition for a servemetrics payload.

    Counters become ``<base>_total``, gauges render verbatim, and
    histograms expand to cumulative ``_bucket{le="..."}`` series plus
    ``_sum``/``_count`` — the standard shape every scraper and the
    CI gate's :func:`parse_exposition` expect.
    """
    lines: list[str] = []
    for name in sorted(payload.get("counters", {})):
        prom = _prom_counter(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {payload['counters'][name]}")
    for name in sorted(payload.get("gauges", {})):
        prom = _prom_base(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_float(payload['gauges'][name])}")
    for name in sorted(payload.get("histograms", {})):
        summary = payload["histograms"][name]
        prom = _prom_histogram(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(summary["le"], summary["counts"]):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_float(bound)}"}} {cumulative}')
        cumulative += summary["counts"][-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_float(summary['sum'])}")
        lines.append(f"{prom}_count {summary['count']}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r'^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>\S+)$')
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    """Parse Prometheus text back into ``{"types", "samples"}``.

    ``types`` maps metric base name to its declared TYPE; ``samples``
    is a list of ``(name, labels, value)`` with ``labels`` a sorted
    tuple of ``(key, value)`` pairs.  Raises ``ValueError`` on a
    malformed line — parse failure *is* the CI gate's signal.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, tuple, float]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: unparseable sample: {line!r}")
        labels = tuple(sorted(
            (key, value.replace('\\"', '"').replace("\\\\", "\\"))
            for key, value in _LABEL_RE.findall(match.group("labels") or "")))
        raw = match.group("value")
        value = math.inf if raw == "+Inf" else float(raw)
        samples.append((match.group("name"), labels, value))
    return {"types": types, "samples": samples}


def sample_value(parsed: dict, name: str, **labels) -> Optional[float]:
    """The value of one sample from :func:`parse_exposition` output."""
    want = tuple(sorted(labels.items()))
    for sample_name, sample_labels, value in parsed["samples"]:
        if sample_name == name and sample_labels == want:
            return value
    return None


def exposition_problems(text: str) -> list[str]:
    """Lint a text exposition: parseability, TYPE coverage, histogram
    bucket monotonicity, ``+Inf`` == ``_count`` — the hard gates the
    CI metrics step enforces."""
    try:
        parsed = parse_exposition(text)
    except ValueError as error:
        return [str(error)]
    problems: list[str] = []
    types, samples = parsed["types"], parsed["samples"]
    histogram_buckets: dict[str, list[tuple[float, float]]] = {}
    scalar: dict[str, float] = {}
    for name, labels, value in samples:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                base = name[:-len(suffix)]
        if base not in types:
            problems.append(f"{name}: no # TYPE declaration")
            continue
        if name.endswith("_bucket") and types.get(base) == "histogram":
            le = dict(labels).get("le")
            if le is None:
                problems.append(f"{name}: bucket sample without le label")
                continue
            bound = math.inf if le == "+Inf" else float(le)
            histogram_buckets.setdefault(base, []).append((bound, value))
        else:
            scalar[name] = value
            if types.get(name) == "counter" and value < 0:
                problems.append(f"{name}: negative counter")
    for base, kind in types.items():
        if kind != "histogram":
            continue
        buckets = sorted(histogram_buckets.get(base, []))
        if not buckets:
            problems.append(f"{base}: histogram with no buckets")
            continue
        if buckets[-1][0] != math.inf:
            problems.append(f"{base}: missing +Inf bucket")
        previous = -1.0
        for bound, count in buckets:
            if count < previous:
                problems.append(
                    f"{base}: bucket counts not monotone at "
                    f"le={_prom_float(bound)}")
                break
            previous = count
        count = scalar.get(base + "_count")
        if count is None:
            problems.append(f"{base}: missing _count")
        elif buckets[-1][0] == math.inf and buckets[-1][1] != count:
            problems.append(f"{base}: +Inf bucket != _count")
        if scalar.get(base + "_sum") is None:
            problems.append(f"{base}: missing _sum")
    return problems


def metrics_rows(payload: dict) -> list[dict]:
    """Flatten a servemetrics payload into event-shaped rows for
    ``repro query`` (``ev: "metric"``, one row per metric).

    Histogram rows carry a ``buckets`` dict (upper bound → per-bucket
    count, overflow keyed ``"+Inf"``) — dict-valued fields are exactly
    what ``--by`` folding aggregates.
    """
    rows: list[dict] = []
    for name, value in payload.get("counters", {}).items():
        rows.append({"ev": "metric", "type": "counter",
                     "name": name, "value": value})
    for name, value in payload.get("gauges", {}).items():
        rows.append({"ev": "metric", "type": "gauge",
                     "name": name, "value": value})
    for name, summary in payload.get("histograms", {}).items():
        buckets = {_prom_float(bound): count
                   for bound, count in zip(summary.get("le", ()),
                                           summary.get("counts", ()))}
        counts = summary.get("counts", ())
        if counts:
            buckets["+Inf"] = counts[-1]
        rows.append({"ev": "metric", "type": "histogram", "name": name,
                     "count": summary.get("count"),
                     "sum": summary.get("sum"),
                     "p50": summary.get("p50"),
                     "p95": summary.get("p95"),
                     "p99": summary.get("p99"),
                     "buckets": buckets})
    return rows


def _rate(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def _ms(seconds) -> str:
    if seconds is None:
        return "-"
    return f"{1000.0 * float(seconds):.1f}ms"


def render_top(stats: dict, metrics: dict,
               qps: Optional[float] = None,
               base: Optional[str] = None) -> str:
    """One ``repro top`` frame: a plain-text ops table built from a
    ``repro-serve/1`` stats payload and a servemetrics payload."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    latency = metrics.get("histograms", {}).get("request.latency_s", {})
    states = stats.get("states", {})
    store = stats.get("store") or {}
    requests = counters.get("requests.total", 0)
    lines = []
    title = "repro top"
    if base:
        title += f" — {base}"
    uptime = stats.get("uptime_s")
    if uptime is not None:
        title += f" (uptime {uptime:.0f}s, jobs={stats.get('jobs', '?')})"
    lines.append(title)
    lines.append(
        f"  requests {requests}"
        f" | qps {'-' if qps is None else f'{qps:.1f}'}"
        f" | hit-rate {_rate(store.get('hits', 0), store.get('hits', 0) + store.get('misses', 0))}"
        f" | queue {gauges.get('queue.depth', 0):.0f}"
        f" | inflight {gauges.get('inflight', 0):.0f}"
        f" | util {_rate(gauges.get('utilization', 0.0), 1.0)}")
    lines.append(
        f"  latency  p50 {_ms(latency.get('p50'))}"
        f" p95 {_ms(latency.get('p95'))}"
        f" p99 {_ms(latency.get('p99'))}"
        f" (n={latency.get('count', 0)})")
    lines.append(
        f"  jobs     queued {states.get('queued', 0)}"
        f" running {states.get('running', 0)}"
        f" done {states.get('done', 0)}"
        f" failed {states.get('failed', 0)}"
        f" | served store {counters.get('served.store', 0)}"
        f" dedup {counters.get('served.dedup', 0)}"
        f" queue {counters.get('served.queue', 0)}")
    if store:
        lru_hits = counters.get("serve.store.lru_hits", 0)
        lru_misses = counters.get("serve.store.lru_misses", 0)
        lines.append(
            f"  store    {store.get('entries', 0)} entries"
            f" in {store.get('segments', 0)} segments"
            f" | lru {lru_hits}/{lru_hits + lru_misses} hits"
            f" ({_rate(lru_hits, lru_hits + lru_misses)})")
    kinds = sorted((name[len("requests.kind."):], value)
                   for name, value in counters.items()
                   if name.startswith("requests.kind."))
    if kinds:
        lines.append("  kinds    " + "  ".join(
            f"{kind}={value}" for kind, value in kinds))
    return "\n".join(lines) + "\n"


def dump_servemetrics(payload: dict) -> str:
    """Canonical JSON text for a servemetrics payload (sorted keys,
    trailing newline) — the byte-comparable form tests and CI use."""
    return json.dumps(payload, sort_keys=True) + "\n"
