"""Hierarchical metrics: counters, gauges, and histograms.

Metric names are dotted paths (``psna.explore.states``,
``seq.game.frontier``); the dots are purely conventional — the registry
stores flat dictionaries, and :mod:`repro.obs.report` groups rows by
prefix when rendering.  The registry is deliberately primitive (plain
dicts, no locks, no background threads): the checkers are
single-threaded per process, and the hot loops accumulate into *local*
integers and flush once per run, so the registry is never on a hot path.

Snapshots are plain JSON-serializable dicts.
:meth:`MetricsRegistry.merge_snapshot` folds one in, which is how a
worker's metrics join the parent session and how the ``collect_into``
collector accumulates sessions; :func:`diff_snapshots` subtracts two,
which is how the CLI derives per-litmus-case tables from one shared
registry.
"""

from __future__ import annotations

from typing import Optional, Union

Number = Union[int, float]


class Histogram:
    """A scalar distribution summary: count / sum / min / max.

    No buckets: the observability layer records enough to compute means
    and spot outliers, while staying one cache line per metric.  Use a
    counter pair instead when an exact ratio matters (e.g. dedup hits
    vs. misses).
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean}

    def __repr__(self) -> str:
        return (f"Histogram(count={self.count}, mean={self.mean:.4g}, "
                f"min={self.min}, max={self.max})")


class MetricsRegistry:
    """A flat registry of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, Number] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- write side --------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: Number) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- read side ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable copy of the current state."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: h.summary()
                           for name, h in self.histograms.items()},
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        The inverse of :meth:`snapshot`: worker processes ship their
        metrics across process boundaries as plain snapshot dicts
        (JSON-safe and picklable by construction), and the parent folds
        them in here.  Histogram summaries merge count/sum/min/max
        exactly.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            other = Histogram()
            other.count = summary.get("count", 0)
            other.total = summary.get("sum", 0.0)
            other.min = summary.get("min")
            other.max = summary.get("max")
            histogram.merge(other)


def diff_snapshots(before: dict, after: dict) -> dict:
    """Subtract ``before`` from ``after`` (counters and histogram sums).

    Gauges are point-in-time, so the diff keeps ``after``'s values.
    Histogram min/max are not subtractable and are dropped; the diff
    keeps the count and sum deltas (enough for per-phase means).
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    histograms = {}
    for name, summary in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(
            name, {"count": 0, "sum": 0.0})
        count = summary["count"] - prior["count"]
        total = summary["sum"] - prior["sum"]
        histograms[name] = {"count": count, "sum": total,
                            "mean": total / count if count else 0.0}
    return {
        "counters": {k: v for k, v in counters.items() if v},
        "gauges": dict(after.get("gauges", {})),
        "histograms": {k: v for k, v in histograms.items() if v["count"]},
    }
