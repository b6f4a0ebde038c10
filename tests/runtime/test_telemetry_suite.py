"""Suite-level telemetry: determinism, coverage and failure-path perf.

Tracing is an *execution* knob: a suite run with ``trace_path`` set (or
under ``workers=2`` per-circuit tracing) must land on the same
``result_checksum`` as a plain run.  The trace itself must cover every
pipeline stage of every circuit and carry at least one MinObsWin
iteration span per solved circuit, and the merged parallel trace must
preserve span parentage within each circuit's folded-in file.
"""

import dataclasses
import json

from repro.circuits import random_sequential_circuit
from repro.runtime import suite as suite_mod
from repro.runtime.manifest import RunManifest
from repro.runtime.suite import SuiteConfig, run_suite
from repro.telemetry import spans as telemetry

NAMES = ("ant", "bee", "cat")

CFG = SuiteConfig(circuits=NAMES, seed=0, n_frames=3, n_patterns=32)

STAGES = ("prepare", "observability", "initialize", "ser-original",
          "solve:minobs", "solve:minobswin")


def grid_factory(name):
    """Module-level so the parallel executor can pickle it by name."""
    return random_sequential_circuit(
        name, n_gates=40, n_dffs=12, n_inputs=4, n_outputs=4,
        seed=sum(map(ord, name)))


def digest_of(path):
    return RunManifest.load(path).result_digest()


def read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestDigestInvariance:
    def test_tracing_off_equals_on_equals_workers2(self, tmp_path):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        par = tmp_path / "par.json"
        run_suite(CFG, manifest_path=plain, circuit_factory=grid_factory)
        run_suite(dataclasses.replace(
            CFG, trace_path=str(tmp_path / "serial.jsonl")),
            manifest_path=traced, circuit_factory=grid_factory)
        run_suite(dataclasses.replace(
            CFG, trace_path=str(tmp_path / "par.jsonl"), workers=2),
            manifest_path=par, circuit_factory=grid_factory)
        assert digest_of(plain) == digest_of(traced) == digest_of(par)

    def test_tracing_cold_equals_warm_cache(self, tmp_path):
        cfg = dataclasses.replace(CFG, cache=True,
                                  cache_dir=str(tmp_path / "cache"))
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        run_suite(dataclasses.replace(
            cfg, trace_path=str(tmp_path / "cold.jsonl")),
            manifest_path=cold, circuit_factory=grid_factory)
        run_suite(dataclasses.replace(
            cfg, trace_path=str(tmp_path / "warm.jsonl")),
            manifest_path=warm, circuit_factory=grid_factory)
        assert digest_of(cold) == digest_of(warm)
        # The warm trace still covers every stage: cache hits short-cut
        # work inside a stage, never the stage spans themselves.
        spans = [r for r in read_records(tmp_path / "warm.jsonl")
                 if r["type"] == "span"]
        names = {s["name"] for s in spans}
        for stage in STAGES:
            assert f"stage:{stage}" in names
        assert any(r["name"] == "cache.load" and r["attrs"]["hit"]
                   for r in read_records(tmp_path / "warm.jsonl")
                   if r["type"] == "event")


class TestTraceCoverage:
    def test_every_stage_and_solver_iterations_per_circuit(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        run_suite(dataclasses.replace(CFG, trace_path=str(trace)),
                  circuit_factory=grid_factory)
        records = read_records(trace)
        spans = [r for r in records if r["type"] == "span"]
        by_id = {s["id"]: s for s in spans}

        def circuit_of(record):
            while record is not None:
                if record["name"] == "circuit":
                    return record["attrs"]["circuit"]
                record = by_id.get(record["parent"])
            return None

        for name in NAMES:
            stage_names = {s["name"] for s in spans
                           if s["name"].startswith("stage:")
                           and circuit_of(s) == name}
            assert stage_names == {f"stage:{s}" for s in STAGES}
            iterations = [s for s in spans if s["name"] == "solver.iteration"
                          and circuit_of(s) == name]
            assert iterations  # >= 1 MinObsWin iteration span per circuit

    def test_merged_parallel_trace_preserves_parentage(self, tmp_path):
        trace = tmp_path / "par.jsonl"
        run_suite(dataclasses.replace(CFG, trace_path=str(trace),
                                      workers=2),
                  circuit_factory=grid_factory)
        records = read_records(trace)
        spans = [r for r in records if r["type"] == "span"]
        ids = {s["id"] for s in spans}
        prefixes = {s["id"].split("-")[0] for s in spans}
        assert prefixes == {"c0", "c1", "c2"}  # one file per circuit
        for span in spans:
            if span["parent"] is not None:
                assert span["parent"] in ids
                # Parent/child never cross a circuit's file.
                assert span["parent"].split("-")[0] == \
                    span["id"].split("-")[0]
        circuits = {s["id"].split("-")[0]: s["attrs"]["circuit"]
                    for s in spans if s["name"] == "circuit"}
        assert circuits == {"c0": "ant", "c1": "bee", "c2": "cat"}
        # No per-circuit trace file is left behind after the fold-in.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["par.jsonl"]

    def test_nested_run_does_not_reinstall_tracer(self, tmp_path):
        """A suite run inside an active tracer reuses it (chaos runs
        disable this via trace_path=None on the reference config)."""
        from repro.telemetry import Tracer

        tracer = Tracer(tmp_path / "outer.jsonl")
        with telemetry.installed(tracer):
            run_suite(dataclasses.replace(
                CFG, circuits=("ant",),
                trace_path=str(tmp_path / "inner.jsonl")),
                circuit_factory=grid_factory)
            assert telemetry.active() is tracer
        tracer.close()
        assert not (tmp_path / "inner.jsonl").exists()
        names = {r["name"] for r in read_records(tmp_path / "outer.jsonl")
                 if r["type"] == "span"}
        assert "circuit" in names


class TestFailurePathPerf:
    def test_gave_up_circuit_still_reports_stage_timings(self, tmp_path,
                                                         monkeypatch):
        """Regression: failure reports used to drop perf entirely."""
        def boom(*args, **kwargs):
            raise RuntimeError("ser exploded")

        monkeypatch.setattr(suite_mod, "analyze_ser", boom)
        result = run_suite(dataclasses.replace(CFG, circuits=("ant",),
                                               max_retries=0),
                           circuit_factory=grid_factory)
        (run,) = result.runs
        assert run.status.startswith("failed:")
        assert run.report is not None
        perf = run.report["perf"]
        assert set(perf) == {"stages", "elw_incremental", "cache",
                             "metrics"}
        # Stages that ran before the failure kept their wall clocks.
        for stage in ("prepare", "observability", "initialize"):
            assert perf["stages"][stage] > 0.0
        assert run.report["failures"]

    def test_prepare_failure_reports_perf(self, tmp_path, monkeypatch):
        def bad_validate(circuit):
            raise ValueError("invalid netlist")

        monkeypatch.setattr(suite_mod, "validate_circuit", bad_validate)
        result = run_suite(dataclasses.replace(CFG, circuits=("ant",)),
                           circuit_factory=grid_factory)
        (run,) = result.runs
        assert run.status == "failed:prepare"
        assert run.report is not None
        assert "prepare" in run.report["perf"]["stages"]

    def test_metrics_delta_rides_in_perf(self, tmp_path):
        result = run_suite(dataclasses.replace(CFG, circuits=("ant",)),
                           circuit_factory=grid_factory)
        (run,) = result.runs
        metrics = run.report["perf"]["metrics"]
        assert metrics["solver.iterations"] > 0
        assert metrics["solver.commits"] > 0
        hist = metrics["stage.seconds.observability"]
        assert hist["count"] == 1
        assert sum(hist["counts"]) == 1
