"""The unified telemetry plane: span tracing and a metrics registry.

The four load-bearing runtime layers (resilient executor, fault plane,
parallel suite, analysis cache) used to report through ad-hoc
channels -- stage clocks in ``report.perf``, cache ``stats.delta``
counters, chaos scorecards, batched worker progress lines.  This package
is the single substrate they all feed:

* :mod:`repro.telemetry.spans` -- a zero-dependency structured span
  tracer (context-manager API, nested spans, monotonic clocks, span
  attributes) writing append-only JSONL trace files.  Installed like the
  fault plane's injector: a module global that every instrumented call
  checks with one ``None`` test; the traced cost is measured by
  ``benchmarks/bench_observability.py``.
* :mod:`repro.telemetry.metrics` -- a process-wide registry of
  counters, gauges and fixed-bucket histograms with a JSON dump and a
  Prometheus-style text exposition writer.  Always on (increments are
  plain attribute updates); the suite snapshots it per circuit and
  stores the delta in ``report["perf"]["metrics"]``, which
  ``mask_volatile`` masks wholesale.
* :mod:`repro.telemetry.traceview` -- the reader behind the
  ``repro-ser trace`` CLI subcommand (``summarize`` / ``top`` /
  ``flame``).

Layering: this package imports nothing from the rest of :mod:`repro`
except :mod:`repro.errors`, so every layer -- the core solver, the sim,
the cache, the fault plane -- may emit telemetry without cycles.

See ``docs/observability.md`` for the span model, the metric-name table
and the trace-file schema.
"""

from .metrics import (REGISTRY, Counter, Gauge, Histogram,
                      MetricsRegistry, histogram_quantile)
from .spans import (TRACE_FORMAT, TRACE_VERSION, Tracer, active,
                    add_attrs, current_span_id, event, install, installed,
                    new_trace_id, span, uninstall)

__all__ = [
    "REGISTRY", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "TRACE_FORMAT", "TRACE_VERSION", "Tracer", "active", "add_attrs",
    "current_span_id", "event", "histogram_quantile", "install",
    "installed", "new_trace_id", "span", "uninstall",
]
