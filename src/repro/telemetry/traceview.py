"""Reading and rendering trace files: the ``repro-ser trace`` backend.

Three views over one trace JSONL file (schema in
:mod:`repro.telemetry.spans`):

* :func:`summarize_trace` -- per-circuit stage breakdown plus aggregate
  stage totals and solver-iteration counts; the view the CI smoke job
  greps for stage names.
* :func:`top_spans` -- span names ranked by *self* time (duration minus
  child durations), the critical-path table.
* :func:`flame` -- an indented text flame of the span tree, with long
  runs of identical siblings (solver iterations) collapsed.

Spans are written when they end, so the file order is children-first;
:func:`build_tree` reconstructs the forest from ``id``/``parent``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..errors import TelemetryError


@dataclass
class SpanNode:
    """One span with its resolved children (sorted by start time)."""

    id: str
    parent: str | None
    name: str
    t0: float
    dur: float
    attrs: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return max(0.0, self.dur - sum(c.dur for c in self.children))


@dataclass
class Trace:
    """A loaded trace file: headers, spans and events in file order.

    ``skipped`` counts unparsable or unknown-type lines the loader
    tolerated -- torn tails and interior tears from killed/restarted
    service processes appending to one file.
    """

    headers: list[dict[str, Any]]
    spans: list[dict[str, Any]]
    events: list[dict[str, Any]]
    skipped: int = 0

    @property
    def roots(self) -> list[SpanNode]:
        return build_tree(self.spans)


def load_trace(path: str | os.PathLike[str]) -> Trace:
    """Parse a trace JSONL file, leniently.

    Accepts multiple header records (append-mode reopens produce
    them).  Malformed lines and unknown record types are
    *skipped and counted* (``Trace.skipped``) wherever they appear: a
    service killed mid-write and restarted appends after the tear, so a
    torn line can sit anywhere in the file, and future record types
    must not break old readers.  Only an unreadable file or a file with
    no header at all raises :class:`TelemetryError`.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise TelemetryError(f"cannot read trace {path!r}: {exc}") from exc
    headers: list[dict[str, Any]] = []
    spans: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1  # torn line (kill mid-write, anywhere in file)
            continue
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "trace":
            headers.append(record)
        elif kind == "span":
            spans.append(record)
        elif kind == "event":
            events.append(record)
        else:
            skipped += 1  # unknown record type: forward compatibility
    if not headers:
        raise TelemetryError(f"{path}: not a repro-trace file (no header)")
    return Trace(headers=headers, spans=spans, events=events,
                 skipped=skipped)


def filter_trace(trace: Trace, key: str) -> Trace:
    """Restrict a multi-job trace to one job: ``key`` is a trace id
    (``t-...``) or a job id (``j-...``).

    A job id resolves to the trace ids its lifecycle spans carry, so
    either handle selects the same merged span tree (the HTTP request
    span, every attempt's lifecycle spans, and the sandbox subtree).
    """
    traces = {key}
    for span in trace.spans:
        if span.get("attrs", {}).get("job") == key and span.get("trace"):
            traces.add(span["trace"])

    def keep(record: dict[str, Any]) -> bool:
        return record.get("trace") in traces \
            or record.get("attrs", {}).get("job") == key
    return Trace(headers=trace.headers,
                 spans=[s for s in trace.spans if keep(s)],
                 events=[e for e in trace.events if keep(e)],
                 skipped=trace.skipped)


def build_tree(spans: list[dict[str, Any]]) -> list[SpanNode]:
    """Reconstruct the span forest; roots sorted by start time.

    A span whose parent never closed (crash) becomes a root.
    """
    nodes = {record["id"]: SpanNode(
        id=record["id"], parent=record.get("parent"),
        name=record["name"], t0=record["t0"], dur=record["dur"],
        attrs=record.get("attrs", {})) for record in spans}
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.t0)
    roots.sort(key=lambda node: node.t0)
    return roots


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def _walk(nodes: list[SpanNode]):
    for node in nodes:
        yield node
        yield from _walk(node.children)


def _service_job_lines(trace: Trace) -> list[str]:
    """The per-job service section: one row per trace id.

    A service trace holds many jobs (and several attempts per job);
    grouping by the ``trace`` record key -- not by file position --
    gives each job its queue-time vs execution-time breakdown no matter
    how interleaved the worker threads wrote their spans.
    """
    jobs: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    for span in trace.spans:
        trace_id = span.get("trace")
        if trace_id is None:
            continue
        info = jobs.get(trace_id)
        if info is None:
            info = jobs[trace_id] = {
                "job": None, "queue": 0.0, "execute": 0.0,
                "persist": 0.0, "attempts": 0, "spans": 0, "errors": 0}
            order.append(trace_id)
        info["spans"] += 1
        attrs = span.get("attrs", {})
        if info["job"] is None and attrs.get("job"):
            info["job"] = str(attrs["job"])
        name = span.get("name")
        if name == "queue.wait":
            info["queue"] += span.get("dur", 0.0)
        elif name == "job.execute":
            info["execute"] += span.get("dur", 0.0)
        elif name == "job.persist":
            info["persist"] += span.get("dur", 0.0)
        attempt = attrs.get("attempt")
        if isinstance(attempt, int):
            info["attempts"] = max(info["attempts"], attempt)
        if attrs.get("error"):
            info["errors"] += 1
    if not jobs:
        return []
    lines = ["service jobs"]
    for trace_id in order:
        info = jobs[trace_id]
        extra = f"  errors {info['errors']}" if info["errors"] else ""
        lines.append(
            f"  {info['job'] or '(no job)':<16} trace {trace_id}  "
            f"attempts {info['attempts']}  "
            f"queue {_fmt_seconds(info['queue']).strip()}  "
            f"execute {_fmt_seconds(info['execute']).strip()}  "
            f"persist {_fmt_seconds(info['persist']).strip()}  "
            f"spans {info['spans']}{extra}")
    lines.append("")
    return lines


def summarize_trace(trace: Trace) -> str:
    """Per-circuit stage table plus aggregate stage/solver totals.

    Multi-job service traces additionally get the per-job section
    (:func:`_service_job_lines`) grouped by trace id -- one file can
    hold any number of jobs, attempts and service restarts.
    """
    roots = trace.roots
    lines: list[str] = _service_job_lines(trace)
    circuits = [node for node in _walk(roots) if node.name == "circuit"]
    stage_totals: dict[str, tuple[int, float]] = {}
    iteration_totals: dict[str, int] = {}

    def tally(stage: SpanNode) -> None:
        count, total = stage_totals.get(stage.name, (0, 0.0))
        stage_totals[stage.name] = (count + 1, total + stage.dur)

    for circuit in circuits:
        label = circuit.attrs.get("circuit", circuit.id)
        lines.append(f"circuit {label}  total {_fmt_seconds(circuit.dur)}")
        for stage in circuit.children:
            if not stage.name.startswith("stage:"):
                continue
            tally(stage)
            iterations = sum(1 for node in _walk(stage.children)
                             if node.name == "solver.iteration")
            extra = ""
            if iterations:
                key = stage.name
                iteration_totals[key] = iteration_totals.get(key, 0) \
                    + iterations
                extra = f"  iterations {iterations}"
            lines.append(f"  {stage.name[6:]:<20}"
                         f"{_fmt_seconds(stage.dur)}{extra}")
        lines.append("")
    if not circuits:
        # Stage spans may exist without circuit parents (partial trace).
        for node in _walk(roots):
            if node.name.startswith("stage:"):
                tally(node)
    lines.append("stage totals")
    if stage_totals:
        for name in sorted(stage_totals):
            count, total = stage_totals[name]
            extra = ""
            if name in iteration_totals:
                extra = f"  iterations {iteration_totals[name]}"
            lines.append(f"  {name[6:]:<20}{_fmt_seconds(total)}"
                         f"  x{count}{extra}")
    else:
        lines.append("  (no stage spans)")
    n_events = len(trace.events)
    lines.append(f"spans {len(trace.spans)}  events {n_events}")
    return "\n".join(lines)


def top_spans(trace: Trace, limit: int = 15) -> str:
    """Span names ranked by aggregate self time (critical-path table)."""
    totals: dict[str, tuple[int, float, float]] = {}
    for node in _walk(trace.roots):
        count, self_total, dur_total = totals.get(node.name, (0, 0.0, 0.0))
        totals[node.name] = (count + 1, self_total + node.self_time,
                             dur_total + node.dur)
    ranked = sorted(totals.items(), key=lambda item: -item[1][1])[:limit]
    width = max((len(name) for name, _ in ranked), default=4)
    lines = [f"{'span':<{width}}  {'count':>7}  {'self':>10}  "
             f"{'total':>10}"]
    for name, (count, self_total, dur_total) in ranked:
        lines.append(f"{name:<{width}}  {count:>7}  "
                     f"{_fmt_seconds(self_total):>10}  "
                     f"{_fmt_seconds(dur_total):>10}")
    return "\n".join(lines)


#: Identical-name sibling runs longer than this collapse to one line.
FLAME_COLLAPSE_THRESHOLD = 3


def flame(trace: Trace, max_depth: int | None = None) -> str:
    """Indented text flame of the span tree.

    Runs of more than :data:`FLAME_COLLAPSE_THRESHOLD` identical-name
    siblings (solver iterations, cache probes) collapse into a single
    ``name xN`` line carrying their summed duration.
    """
    lines: list[str] = []

    def render(nodes: list[SpanNode], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        index = 0
        while index < len(nodes):
            node = nodes[index]
            run_end = index
            while run_end + 1 < len(nodes) and \
                    nodes[run_end + 1].name == node.name:
                run_end += 1
            run = nodes[index:run_end + 1]
            indent = "  " * depth
            if len(run) > FLAME_COLLAPSE_THRESHOLD:
                total = sum(sibling.dur for sibling in run)
                lines.append(f"{indent}{node.name} x{len(run)}  "
                             f"{_fmt_seconds(total)}")
            else:
                for sibling in run:
                    detail = ""
                    circuit = sibling.attrs.get("circuit")
                    if circuit:
                        detail = f"  [{circuit}]"
                    error = sibling.attrs.get("error")
                    if error:
                        detail += f"  !{error}"
                    lines.append(f"{indent}{sibling.name}  "
                                 f"{_fmt_seconds(sibling.dur)}{detail}")
                    render(sibling.children, depth + 1)
            index = run_end + 1

    render(trace.roots, 0)
    return "\n".join(lines) if lines else "(empty trace)"
