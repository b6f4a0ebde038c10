"""The process-wide metrics registry: counters, gauges, histograms.

Unlike span tracing -- which is installed per run and writes a file --
the registry is always on: an increment is a plain attribute update, so
instrumented code never checks whether metrics are "enabled".  The suite
snapshots the registry around each circuit and stores the delta in
``report["perf"]["metrics"]``; the parallel suite merges each worker's
fresh per-circuit delta back into the parent's registry, and the
``--metrics-out`` CLI flag dumps the whole registry after a run.

Metric names are dotted strings (``cache.hits``,
``stage.seconds.solve:minobswin``); the Prometheus writer sanitizes
them to ``repro_cache_hits``-style identifiers.  Histograms use fixed
bucket bounds chosen at creation (default: latency seconds), so two
snapshots are always subtractable bucket-by-bucket.

JSON dump schema (``format: repro-metrics``, version 1)::

    {
      "format": "repro-metrics",
      "version": 1,
      "metrics": {
        "cache.hits":  {"type": "counter", "value": 12, "help": "..."},
        "suite.phi":   {"type": "gauge", "value": 8.25, "help": "..."},
        "stage.seconds.observability": {
          "type": "histogram", "buckets": [0.001, ...],
          "counts": [0, 2, ...], "sum": 0.83, "count": 5, "help": "..."
        }
      }
    }

The metric-name table lives in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any

from ..errors import TelemetryError

METRICS_FORMAT = "repro-metrics"
METRICS_VERSION = 1

#: Default histogram bounds: latencies in seconds, microbenchmark to
#: minutes.  One overflow bucket (+Inf) is implicit.
DEFAULT_SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
                           5.0, 10.0, 60.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        self.value += amount


class Gauge:
    """A value that goes up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bound cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise TelemetryError(
                "histogram bucket bounds must be a non-empty ascending "
                "sequence")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # +1: +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Name -> metric, with get-or-create accessors and exports."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type, factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise TelemetryError(
                f"metric {name!r} is already registered as a "
                f"{type(metric).__name__}, not a {kind.__name__}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        if help:
            self._help.setdefault(name, help)
        return self._get(name, Counter, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        if help:
            self._help.setdefault(name, help)
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
                  help: str = "") -> Histogram:
        if help:
            self._help.setdefault(name, help)
        metric = self._get(name, Histogram, lambda: Histogram(buckets))
        if metric.bounds != tuple(float(b) for b in buckets):
            raise TelemetryError(
                f"histogram {name!r} is already registered with bounds "
                f"{metric.bounds}")
        return metric

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A point-in-time JSON-serializable dump of every metric."""
        metrics: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: dict[str, Any] = {"help": self._help.get(name, "")}
            if isinstance(metric, Counter):
                entry.update(type="counter", value=metric.value)
            elif isinstance(metric, Gauge):
                entry.update(type="gauge", value=metric.value)
            else:
                entry.update(type="histogram",
                             buckets=list(metric.bounds),
                             counts=list(metric.counts),
                             sum=metric.sum, count=metric.count)
            metrics[name] = entry
        return {"format": METRICS_FORMAT, "version": METRICS_VERSION,
                "metrics": metrics}

    @staticmethod
    def delta(before: dict[str, Any],
              after: dict[str, Any]) -> dict[str, Any]:
        """Per-metric increments between two :meth:`snapshot` dumps.

        Counters and histograms subtract (a metric absent from
        ``before`` counts from zero); gauges report their ``after``
        value.  Metrics whose delta is all-zero are dropped, so the
        result is a compact "what happened in this window" record.
        """
        out: dict[str, Any] = {}
        prior = before.get("metrics", {})
        for name, entry in after.get("metrics", {}).items():
            base = prior.get(name, {})
            if entry["type"] == "counter":
                value = entry["value"] - base.get("value", 0)
                if value:
                    out[name] = value
            elif entry["type"] == "gauge":
                out[name] = entry["value"]
            else:
                count = entry["count"] - base.get("count", 0)
                if count:
                    base_counts = base.get("counts",
                                           [0] * len(entry["counts"]))
                    out[name] = {
                        "count": count,
                        "sum": entry["sum"] - base.get("sum", 0.0),
                        "counts": [a - b for a, b in
                                   zip(entry["counts"], base_counts)],
                    }
        return out

    def merge(self, delta: dict[str, Any]) -> None:
        """Add a :meth:`delta` recorded in another process to this registry.

        Counters add; histogram bucket counts, sums and counts add (a
        histogram new to this registry gets the default bounds, and the
        bucket count must match).  A gauge is a point-in-time reading
        of the other process, so a name this registry holds as a gauge
        is skipped; any other number is a counter increment.
        """
        for name, value in delta.items():
            if isinstance(value, dict):
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self.histogram(name)
                if not isinstance(metric, Histogram) or \
                        len(value["counts"]) != len(metric.counts):
                    raise TelemetryError(
                        f"cannot merge histogram delta {name!r}: "
                        f"bucket layout does not match")
                for index, count in enumerate(value["counts"]):
                    metric.counts[index] += count
                metric.sum += value["sum"]
                metric.count += value["count"]
            elif not isinstance(self._metrics.get(name), Gauge):
                self.counter(name).inc(value)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom = prometheus_name(name)
            help_text = self._help.get(name, "")
            if help_text:
                lines.append(f"# HELP {prom} {help_text}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {prom} counter")
                lines.append(f"{prom} {_fmt(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom} {_fmt(metric.value)}")
            else:
                lines.append(f"# TYPE {prom} histogram")
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    lines.append(f'{prom}_bucket{{le="{_fmt(bound)}"}} '
                                 f"{cumulative}")
                cumulative += metric.counts[-1]
                lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{prom}_sum {_fmt(metric.sum)}")
                lines.append(f"{prom}_count {metric.count}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | os.PathLike[str]) -> None:
        """Dump the registry: Prometheus text for ``*.prom``, JSON else."""
        path = os.fspath(path)
        if path.endswith(".prom") or path.endswith(".txt"):
            payload = self.to_prometheus()
        else:
            payload = json.dumps(self.snapshot(), indent=2,
                                 sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)

    def reset(self) -> None:
        """Drop every metric (test isolation hook)."""
        self._metrics.clear()
        self._help.clear()


def histogram_quantile(q: float, buckets: list[float],
                       counts: list[int]) -> float | None:
    """Estimate quantile ``q`` from a histogram snapshot entry.

    ``buckets``/``counts`` are a histogram's snapshot fields
    (non-cumulative per-bucket counts with the trailing +Inf overflow
    slot).  Linear interpolation within the winning bucket, Prometheus
    style; observations in the overflow bucket clamp to the last finite
    bound.  Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if index >= len(buckets):   # +Inf overflow bucket
                return float(buckets[-1])
            lo = buckets[index - 1] if index else 0.0
            hi = buckets[index]
            fraction = (rank - cumulative) / count
            return lo + (hi - lo) * fraction
        cumulative += count
    return float(buckets[-1])


def prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _fmt(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


#: The process-wide registry every instrumented layer writes to.
REGISTRY = MetricsRegistry()
