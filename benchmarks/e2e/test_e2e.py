"""Tests of the end-to-end benchmark's tracing, metrics and output.

Run with ``pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
import workloads
from repro.runtime.suite import SuiteConfig, run_suite
from repro.telemetry.traceview import load_trace, top_spans

BENCHMARK = Path(workloads.ROOT) / "BENCHMARK.json"


def hand_built_recorder() -> layers.Recorder:
    """workload(10) -> a(4) -> c(1); workload -> b(3) -> c(2)."""
    recorder = layers.Recorder()
    recorder.spans = [
        [layers.ROOT, None, 0.0, 10.0],
        ["a", 0, 0.0, 4.0],
        ["c", 1, 0.5, 1.0],
        ["b", 0, 5.0, 3.0],
        ["c", 3, 5.5, 2.0],
    ]
    return recorder


def test_every_layer_target_resolves():
    with layers.Tracing(layers.Recorder()) as tracing:
        assert tracing.missing == []


def test_deleted_target_counts_zero_calls():
    gone = layers.Layer("gone", ("repro.pipeline:no_such_function",
                                 "repro.no_such_module:f",
                                 "repro.pipeline:PipelineResult.nope"))
    recorder = layers.Recorder()
    with layers.Tracing(recorder, [gone]) as tracing:
        assert tracing.missing == list(gone.targets)
    metrics = layers.layer_metrics(recorder, 1.0, [gone])
    assert metrics["gone.calls"] == 0
    assert metrics["gone.self_s"] == 0


def test_self_time_with_two_callers():
    layer_table = [layers.Layer(name, ()) for name in ("a", "b")] + [
        layers.Layer("c", (), callers=("a", "b"))]
    metrics = layers.layer_metrics(hand_built_recorder(), 10.0, layer_table)
    assert metrics["a.self_s"] == pytest.approx(3.0)
    assert metrics["b.self_s"] == pytest.approx(1.0)
    assert metrics["c.calls"] == 2
    assert metrics["c.self_s"] == pytest.approx(3.0)
    assert metrics["c.from.a.self_s"] == pytest.approx(1.0)
    assert metrics["c.from.b.self_s"] == pytest.approx(2.0)
    assert metrics["c.share"] == pytest.approx(0.3)
    assert metrics["trace.unattributed_s"] == pytest.approx(3.0)
    assert "a.from.workload.self_s" not in metrics  # a has one caller


def test_wrapping_replaces_imported_names_and_restores_them():
    import repro.ser.analysis
    import repro.runtime.suite

    original = repro.ser.analysis.analyze_ser
    assert repro.runtime.suite.analyze_ser is original
    with layers.Tracing(layers.Recorder()):
        assert repro.runtime.suite.analyze_ser is not original
        assert repro.runtime.suite.analyze_ser is \
            repro.ser.analysis.analyze_ser
    assert repro.runtime.suite.analyze_ser is original
    assert repro.ser.analysis.analyze_ser is original


@pytest.fixture(scope="module")
def two_row_runs(tmp_path_factory):
    """An untraced and a traced run of two small Table I rows."""
    config = SuiteConfig(circuits=("s13207", "b14_1_opt"), scale=0.004,
                         seed=0, n_frames=2, n_patterns=64)
    untraced = workloads.suite_digest(run_suite(config), config)
    recorder = layers.Recorder()
    with layers.Tracing(recorder):
        with recorder.span(layers.ROOT):
            traced = workloads.suite_digest(run_suite(config), config)
    trace = tmp_path_factory.mktemp("trace") / "trace-table1.jsonl"
    layers.write_trace(str(trace), recorder, {"kind": "test"})
    return untraced, traced, recorder, trace


def test_tracing_leaves_the_result_digest_unchanged(two_row_runs):
    untraced, traced, recorder, _ = two_row_runs
    assert traced == untraced
    wall = recorder.spans[0][3]
    metrics = layers.layer_metrics(recorder, wall)
    assert metrics["core.solve.calls"] == 4  # 2 rows x 2 algorithms
    assert metrics["core.initialize.calls"] == 2
    assert metrics["core.regular_forest.calls"] > 0
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0


def test_trace_file_loads_with_traceview(two_row_runs):
    _, _, recorder, path = two_row_runs
    trace = load_trace(path)
    assert trace.skipped == 0
    assert len(trace.spans) == len(recorder.spans)
    assert [root.name for root in trace.roots] == [layers.ROOT]
    assert "core.solve" in top_spans(trace)


def fake_payload(wall_s: float, traced: bool) -> dict:
    recorder = hand_built_recorder()
    payload = {"t_first": 0.0, "setup_s": 0.5, "wall_s": wall_s,
               "workers": 1, "peak_rss_mb": 100.0, "digest": "sha256:x",
               "problems": [], "ser_change_new_pct": -20.0,
               "ser_change_ref_pct": -18.0,
               "circuits": [["r1", 1.0, "ok"], ["r2", 3.0, "ok"]]}
    if traced:
        payload["layers"] = layers.layer_metrics(recorder, wall_s)
        payload["missing"] = []
    return payload


def test_benchmark_json_matches_the_runner_catalog():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in run.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in run.PER_LAYER]


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_printed(trace):
    measurement = run.Measurement("table1", seed=1)
    measurement.untraced = [fake_payload(4.0, False),
                            fake_payload(4.2, False)]
    if trace:
        measurement.traced = [fake_payload(4.4, True)]
    result = run.combine([run.evaluate(measurement, {})])
    assert result["correct"]
    line = json.loads(run.contract_line(result, trace))
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in
             spec["per_layer" if trace else "end_to_end"]]
    assert list(line["metrics"]) == names
    assert line["attempted"] == (6 if trace else 4)
    assert line["failed"] == 0
    metrics = result["metrics"]
    assert metrics["wall_s"]["value"] == 4.0  # the lower median
    assert metrics["circuit_s_p50"]["value"] == 2.0
    if trace:
        assert line["metrics"]["trace.overhead_pct"]["value"] == \
            pytest.approx(10.0)
    text = run.report("table1", 1, result)
    assert all(name in text for name in names)


def test_digest_disagreement_fails_the_run():
    measurement = run.Measurement("table1", seed=0)
    first, second = fake_payload(4.0, False), fake_payload(4.0, False)
    second["digest"] = "sha256:y"
    measurement.untraced = [first, second]
    result = run.combine([run.evaluate(
        measurement, {"table1": "sha256:x"})])
    assert not result["correct"]
    assert any("disagree" in problem for problem in result["problems"])
