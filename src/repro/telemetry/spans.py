"""Structured span tracing to append-only JSONL files.

A *span* is one named, timed region of work with free-form attributes
and a parent (the span open when it began) -- circuits, pipeline stages,
solver calls, individual MinObsWin iterations.  An *event* is a point in
time attached to the currently open span -- a cache load, a fault-plane
firing.  Spans are written when they *end*, so children precede their
parents in the file; readers reconstruct the tree from ``id``/``parent``.

Trace-file schema (``format: repro-trace``, version 1), one JSON object
per line::

    {"type": "trace", "format": "repro-trace", "version": 1,
     "clock": "perf_counter", "prefix": "", "wall_time": 1722849600.0,
     "meta": {...}}                                    // header record
    {"type": "span", "id": "3", "parent": "1", "name": "stage:initialize",
     "t0": 0.0123, "dur": 0.0041, "attrs": {"circuit": "s13207"}}
    {"type": "event", "id": "4", "parent": "3", "name": "cache.load",
     "t": 0.0130, "attrs": {"kind": "init", "hit": false}}

``t0``/``t``/``dur`` are monotonic seconds relative to the tracer's
creation (``time.perf_counter``); the header's ``wall_time`` anchors
them to the wall clock for humans.  Records may carry an optional
``trace`` key -- a request-scoped trace id (:func:`new_trace_id`) that
groups every span of one service job across threads, processes and
retries; readers treat records without it as belonging to the implicit
single trace of a CLI run.  Every record is written with a
single buffered ``write`` followed by a flush (one writer per file by
construction -- parallel workers get their own per-circuit file), and the file
is ``fsync``\\ ed on :meth:`Tracer.close`, so a crash loses at most the
spans still open.

Installation mirrors :mod:`repro.faultplane.hooks`: a module-global
tracer that every instrumented call checks with a single ``None`` test.
With no tracer installed, :func:`span` returns a shared no-op context
manager and :func:`event` returns immediately -- the instrumented
pipeline stays bit-identical.  The traced cost is measured by
``benchmarks/bench_observability.py``.

Parallel runs: each suite task traces to a per-circuit sibling file
with a span-id prefix that keeps ids globally unique, and the parent
folds the files into its own trace with :meth:`Tracer.absorb` in
canonical circuit order -- records are copied verbatim, so parent/child
ids are preserved exactly.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import TelemetryError

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def new_trace_id() -> str:
    """A fresh request-scoped trace id (``t-`` + 16 hex chars)."""
    return "t-" + uuid.uuid4().hex[:16]


class _Span:
    """One open span (bookkeeping only; serialized on end)."""

    __slots__ = ("id", "parent", "name", "t0", "attrs", "trace")

    def __init__(self, span_id: str, parent: str | None, name: str,
                 t0: float, attrs: dict[str, Any],
                 trace: str | None = None):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.attrs = attrs
        self.trace = trace


class Tracer:
    """Writes one JSONL trace file.

    Parameters
    ----------
    path:
        Trace file, opened in append mode (a header record is written on
        every open; readers treat the file as a record stream and accept
        multiple headers).
    prefix:
        Prepended to every span/event id -- per-circuit and sandbox
        tracers use one so absorbed ids never collide.
    meta:
        Free-form JSON-serializable run description for the header.

    Span stacks are *thread-local*: the service shares one tracer
    between HTTP handler threads and worker threads, and each thread
    nests its own spans without seeing the others'.  The write path is
    locked, so any thread may :meth:`begin`/:meth:`end`,
    :meth:`emit_span` or :meth:`event` safely.
    """

    def __init__(self, path: str | os.PathLike[str], prefix: str = "",
                 meta: dict[str, Any] | None = None):
        self.path = os.fspath(path)
        self.prefix = prefix
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._closed = False
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._emit({
            "type": "trace", "format": TRACE_FORMAT,
            "version": TRACE_VERSION, "clock": "perf_counter",
            "prefix": prefix, "wall_time": time.time(),
            "meta": meta or {},
        })

    # ------------------------------------------------------------------
    # Clock and ids
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Monotonic seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    def _new_id(self) -> str:
        with self._lock:
            span_id = f"{self.prefix}{self._next_id}"
            self._next_id += 1
        return span_id

    @property
    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self) -> str | None:
        """Id of this thread's innermost open span, or ``None``."""
        stack = self._stack
        return stack[-1].id if stack else None

    def current_trace(self) -> str | None:
        """Trace id of this thread's innermost open span, or ``None``."""
        stack = self._stack
        return stack[-1].trace if stack else None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, name: str, attrs: dict[str, Any] | None = None, *,
              parent: str | None = None, trace: str | None = None,
              ) -> _Span:
        """Open a span as a child of this thread's innermost open span.

        ``parent`` overrides the stack-derived parent -- the service uses
        it to hang lifecycle spans off a job's durable root span even
        after the originating HTTP request span has closed.  ``trace``
        tags the span with a request-scoped trace id; when omitted it is
        inherited from the enclosing open span of this thread.
        """
        stack = self._stack
        if parent is None and stack:
            parent = stack[-1].id
        if trace is None and stack:
            trace = stack[-1].trace
        span = _Span(self._new_id(), parent, name, self.now(),
                     dict(attrs) if attrs else {}, trace)
        stack.append(span)
        return span

    def end(self, span: _Span) -> None:
        """Close ``span`` (and anything left open inside it) and emit."""
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        record = {"type": "span", "id": span.id, "parent": span.parent,
                  "name": span.name, "t0": span.t0,
                  "dur": self.now() - span.t0, "attrs": span.attrs}
        if span.trace is not None:
            record["trace"] = span.trace
        self._emit(record)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_Span]:
        """Context manager around :meth:`begin`/:meth:`end`.

        An exception propagating out of the body is recorded as an
        ``error`` attribute (the exception type name) before re-raising.
        """
        span = self.begin(name, attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.end(span)

    def emit_span(self, name: str, t0: float,
                  attrs: dict[str, Any] | None = None, *,
                  parent: str | None = None,
                  trace: str | None = None) -> str:
        """Emit an already-finished span (hot-loop fast path).

        The caller supplies the start time (from :meth:`now`); the span
        is parented to this thread's innermost *open* span (or the
        explicit ``parent``) and never enters the stack, so thousands of
        solver-iteration spans cost one dict and one write each.
        Returns the span id.
        """
        span_id = self._new_id()
        stack = self._stack
        if parent is None and stack:
            parent = stack[-1].id
        if trace is None and stack:
            trace = stack[-1].trace
        record = {"type": "span", "id": span_id, "parent": parent,
                  "name": name, "t0": t0, "dur": self.now() - t0,
                  "attrs": attrs or {}}
        if trace is not None:
            record["trace"] = trace
        self._emit(record)
        return span_id

    def add_attrs(self, **attrs: Any) -> None:
        """Merge attributes into the innermost open span (no-op bare)."""
        stack = self._stack
        if stack:
            stack[-1].attrs.update(attrs)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> str:
        """Emit a point event attached to the innermost open span.

        Returns the event id (cited by, e.g., chaos scorecards).
        """
        event_id = self._new_id()
        record = {"type": "event", "id": event_id,
                  "parent": self.current_id(), "name": name,
                  "t": self.now(), "attrs": attrs}
        trace = self.current_trace()
        if trace is not None:
            record["trace"] = trace
        self._emit(record)
        return event_id

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def _emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._closed:
                return
            self._handle.write(line)
            self._handle.flush()

    def absorb(self, shard_path: str, delete: bool = True) -> int:
        """Fold a finished shard trace into this still-open trace.

        Re-emits the shard's span/event lines verbatim through this
        tracer's own locked handle, so the service can merge a sandbox
        subprocess's shard, and a parallel suite a task's per-circuit
        trace, while this tracer keeps writing.  Shard header records are
        dropped and torn lines skipped (a killed child loses only spans
        still open at death).  A missing shard is a no-op (the child
        died before tracing started).  Returns the record count.
        """
        try:
            with open(shard_path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return 0
        except OSError as exc:
            raise TelemetryError(
                f"cannot absorb shard trace {shard_path!r}: {exc}") from exc
        absorbed = 0
        with self._lock:
            if not self._closed:
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail of a killed child
                    if not isinstance(record, dict) or \
                            record.get("type") == "trace":
                        continue
                    self._handle.write(line + "\n")
                    absorbed += 1
                self._handle.flush()
        if delete:
            try:
                os.unlink(shard_path)
            except OSError:
                pass
        return absorbed

    def close(self) -> None:
        """Flush, fsync and close the trace file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass  # durability is best-effort on exotic filesystems
            self._handle.close()


# ----------------------------------------------------------------------
# The process-global tracer (mirrors repro.faultplane.hooks)
# ----------------------------------------------------------------------

_TRACER: Tracer | None = None


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP = _NoopSpan()


def active() -> Tracer | None:
    """The installed tracer, or ``None`` (tracing off)."""
    return _TRACER


def install(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` globally; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def uninstall() -> Tracer | None:
    """Remove any installed tracer; returns it."""
    return install(None)


@contextmanager
def installed(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Context manager: install ``tracer``, restore the previous one."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def span(name: str, **attrs: Any):
    """Open a span on the installed tracer (shared no-op when off)."""
    if _TRACER is None:
        return _NOOP
    return _TRACER.span(name, **attrs)


def event(name: str, **attrs: Any) -> str | None:
    """Emit an event on the installed tracer; returns its id (or None)."""
    if _TRACER is None:
        return None
    return _TRACER.event(name, **attrs)


def current_span_id() -> str | None:
    """Id of the innermost open span of the installed tracer, if any."""
    return _TRACER.current_id() if _TRACER is not None else None


def add_attrs(**attrs: Any) -> None:
    """Merge attributes into the current span of the installed tracer."""
    if _TRACER is not None:
        _TRACER.add_attrs(**attrs)
