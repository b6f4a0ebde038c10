"""Unit tests for the span tracer and the module-global install plumbing."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Tracer
from repro.telemetry import spans as telemetry


def read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spans_of(records):
    return [r for r in records if r["type"] == "span"]


class TestTracer:
    def test_header_first_then_spans_children_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path, meta={"kind": "test"})
        with tracer.span("outer", circuit="s13207"):
            with tracer.span("inner"):
                pass
        tracer.close()
        records = read_records(path)
        assert records[0]["type"] == "trace"
        assert records[0]["format"] == "repro-trace"
        assert records[0]["version"] == 1
        assert records[0]["meta"] == {"kind": "test"}
        inner, outer = spans_of(records)
        # Spans are emitted on end: the child precedes its parent.
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"circuit": "s13207"}
        assert outer["dur"] >= inner["dur"] >= 0.0

    def test_exception_recorded_as_error_attr_and_reraised(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        tracer.close()
        (span,) = spans_of(read_records(path))
        assert span["attrs"]["error"] == "ValueError"

    def test_emit_span_parents_to_open_span_without_stack_push(
            self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("solve"):
            t0 = tracer.now()
            tracer.emit_span("solver.iteration", t0, {"i": 1})
            # The emitted span never became "current".
            assert tracer.current_id() is not None
            with tracer.span("verify"):
                pass
        tracer.close()
        records = spans_of(read_records(path))
        by_name = {r["name"]: r for r in records}
        solve = by_name["solve"]
        assert by_name["solver.iteration"]["parent"] == solve["id"]
        assert by_name["solver.iteration"]["attrs"] == {"i": 1}
        assert by_name["verify"]["parent"] == solve["id"]

    def test_add_attrs_merges_into_innermost_open_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("solve"):
            tracer.add_attrs(iterations=7, objective=42)
        tracer.add_attrs(ignored=True)  # bare: silently dropped
        tracer.close()
        (span,) = spans_of(read_records(path))
        assert span["attrs"] == {"iterations": 7, "objective": 42}

    def test_event_attaches_to_current_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("stage:initialize"):
            event_id = tracer.event("cache.load", hit=True)
        tracer.close()
        records = read_records(path)
        (event,) = [r for r in records if r["type"] == "event"]
        (span,) = spans_of(records)
        assert event["id"] == event_id
        assert event["parent"] == span["id"]
        assert event["attrs"] == {"hit": True}

    def test_prefix_applies_to_every_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path, prefix="s03-")
        with tracer.span("a"):
            tracer.event("e")
        tracer.close()
        records = read_records(path)
        assert records[0]["prefix"] == "s03-"
        for record in records[1:]:
            assert record["id"].startswith("s03-")

    def test_close_is_idempotent_and_drops_late_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        tracer.close()
        tracer.close()
        tracer.event("late")  # no crash, no write
        assert len(read_records(path)) == 1  # header only

    def test_append_mode_keeps_prior_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = Tracer(path)
        with first.span("one"):
            pass
        first.close()
        second = Tracer(path)
        with second.span("two"):
            pass
        second.close()
        records = read_records(path)
        assert [r["type"] for r in records] == ["trace", "span", "trace",
                                                "span"]


class TestTraceContext:
    """The request-scoped additions: trace ids, explicit parentage,
    per-thread span stacks, and shard absorption."""

    def test_new_trace_id_shape_and_uniqueness(self):
        ids = {telemetry.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(t.startswith("t-") and len(t) == 18 for t in ids)

    def test_explicit_parent_and_trace_override_stack(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("unrelated"):
            span = tracer.begin("queue.wait", {"job": "j-1"},
                                parent="root-span", trace="t-abc")
            tracer.end(span)
        tracer.close()
        by_name = {r["name"]: r for r in spans_of(read_records(path))}
        assert by_name["queue.wait"]["parent"] == "root-span"
        assert by_name["queue.wait"]["trace"] == "t-abc"
        # The enclosing span is untraced: no trace key at all.
        assert "trace" not in by_name["unrelated"]

    def test_children_inherit_trace_from_stack(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        root = tracer.begin("http.request", trace="t-abc")
        with tracer.span("stage:prepare"):
            pass
        tracer.end(root)
        tracer.close()
        by_name = {r["name"]: r for r in spans_of(read_records(path))}
        assert by_name["stage:prepare"]["trace"] == "t-abc"
        assert by_name["stage:prepare"]["parent"] == root.id

    def test_emit_span_accepts_explicit_parent_and_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        tracer.emit_span("queue.wait", tracer.now() - 0.5, {"job": "j-1"},
                         parent="root-span", trace="t-abc")
        tracer.close()
        (span,) = spans_of(read_records(path))
        assert span["parent"] == "root-span"
        assert span["trace"] == "t-abc"
        assert span["dur"] >= 0.5

    def test_span_stacks_are_per_thread(self, tmp_path):
        import threading

        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        ready = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with tracer.span("worker-root"):
                seen["worker"] = tracer.current_id()
                ready.set()
                release.wait(5.0)

        thread = threading.Thread(target=worker)
        with tracer.span("main-root"):
            thread.start()
            assert ready.wait(5.0)
            # The worker's open span must not leak into this thread.
            assert tracer.current_id() != seen["worker"]
            release.set()
        thread.join(5.0)
        tracer.close()
        by_name = {r["name"]: r for r in spans_of(read_records(path))}
        assert by_name["worker-root"]["parent"] is None
        assert by_name["main-root"]["parent"] is None

    def test_absorb_folds_shard_into_open_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        root = tracer.begin("job.execute", trace="t-abc")
        shard = f"{tracer.path}.sandbox-j1-1.jsonl"
        child = Tracer(shard, prefix="sb-")
        span = child.begin("job.sandbox", {"job": "j-1"},
                           parent=root.id, trace="t-abc")
        child.end(span)
        child.close()
        assert tracer.absorb(shard) == 1  # header dropped, span kept
        import os
        assert not os.path.exists(shard)  # shard consumed
        tracer.end(root)
        tracer.close()
        by_name = {r["name"]: r for r in spans_of(read_records(path))}
        assert by_name["job.sandbox"]["parent"] == root.id
        assert by_name["job.sandbox"]["id"].startswith("sb-")
        assert by_name["job.sandbox"]["trace"] == "t-abc"

    def test_absorb_skips_torn_tail(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        shard = str(tmp_path / "t.jsonl.circuit-0.jsonl")
        child = Tracer(shard, prefix="c0-")
        with child.span("circuit", circuit="ant"):
            pass
        child.close()
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "id": "c0-99", "na')
        assert tracer.absorb(shard) == 1  # the whole span, not the tear
        tracer.close()
        records = read_records(tmp_path / "t.jsonl")
        assert [r["id"] for r in spans_of(records)] == ["c0-1"]

    def test_absorb_missing_shard_is_zero(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        assert tracer.absorb(str(tmp_path / "absent.jsonl")) == 0
        tracer.close()

    def test_absorb_unreadable_shard_raises(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with pytest.raises(TelemetryError, match="cannot absorb"):
            tracer.absorb(str(tmp_path))  # a directory, not a file
        tracer.close()


class TestGlobalInstall:
    def test_noop_when_uninstalled(self):
        telemetry.uninstall()
        assert telemetry.active() is None
        with telemetry.span("anything", x=1):
            assert telemetry.current_span_id() is None
        telemetry.add_attrs(x=1)
        assert telemetry.event("nothing") is None

    def test_install_restore_roundtrip(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        try:
            previous = telemetry.install(tracer)
            assert telemetry.active() is tracer
            with telemetry.span("root"):
                assert telemetry.current_span_id() is not None
            assert telemetry.install(previous) is tracer
        finally:
            telemetry.uninstall()
            tracer.close()

    def test_installed_context_manager_restores_on_error(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        try:
            with pytest.raises(RuntimeError):
                with telemetry.installed(tracer):
                    assert telemetry.active() is tracer
                    raise RuntimeError
            assert telemetry.active() is None
        finally:
            tracer.close()
