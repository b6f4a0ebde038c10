"""Tests for the crash-isolated, checkpointing suite runner."""

import math
import re
from dataclasses import replace

import pytest

from repro import cache as analysis_cache
from repro.circuits import random_sequential_circuit
from repro.errors import (DeadlineExceeded, ManifestError, RetimingError,
                          TimingError)
from repro.runtime import suite as suite_mod
from repro.runtime.suite import (SuiteConfig, optimize_resilient,
                                 run_suite)
from repro.ser.report import format_comparison


def tiny_factory(name):
    """Small deterministic circuits keyed (seeded) by name."""
    return random_sequential_circuit(
        name, n_gates=50, n_dffs=15, n_inputs=5, n_outputs=5,
        seed=sum(map(ord, name)))


CFG = SuiteConfig(circuits=("alpha", "beta"), seed=0, n_frames=3,
                  n_patterns=32)


def mask_times(report: str) -> str:
    """Blank the wall-clock t_ref/t_new columns (only nondeterminism)."""
    return re.sub(r"\d+\.\d\d(?=\s|$)", "T", report)


class TestOptimizeResilient:
    def test_clean_circuit_is_ok(self):
        run = optimize_resilient(tiny_factory("alpha"), CFG)
        assert run.status == "ok"
        assert run.failures == []
        assert run.row["circuit"] == "alpha"
        assert run.report["status"] == "ok"
        # the row is directly consumable by the report formatter
        assert "alpha" in format_comparison([run.row])

    def test_solver_failure_degrades_to_identity(self, monkeypatch):
        def broken(problem, r0, algorithm, **kwargs):
            raise TimingError("no feasible move")

        monkeypatch.setattr(suite_mod, "run_solver", broken)
        run = optimize_resilient(tiny_factory("alpha"), CFG)
        assert run.status == "minobs=identity;minobswin=identity"
        assert run.row["ref_ff"] == run.row["FF"]
        assert run.row["new_ff"] == run.row["FF"]
        # identity keeps the original SER: delta is exactly zero
        assert run.row["ref_ser"] == run.row["ser"]
        actions = [f.action for f in run.failures]
        assert "retry" in actions and "degrade" in actions

    def test_init_failure_degrades_to_degenerate(self, monkeypatch):
        def broken(graph, setup, hold, epsilon, **kwargs):
            raise TimingError("R_min infeasible")

        monkeypatch.setattr(suite_mod, "initialize", broken)
        run = optimize_resilient(tiny_factory("alpha"), CFG)
        assert "init=degenerate" in run.status
        assert run.report["used_fallback"] is True
        assert math.isfinite(run.row["ser"])

    def test_observability_retries_with_reseed(self, monkeypatch):
        real = suite_mod.compute_observability
        seeds = []

        def flaky(circuit, n_frames, n_patterns, seed):
            seeds.append(seed)
            if len(seeds) == 1:
                raise RuntimeError("simulated sim crash")
            return real(circuit, n_frames=n_frames,
                        n_patterns=n_patterns, seed=seed)

        monkeypatch.setattr(suite_mod, "compute_observability", flaky)
        run = optimize_resilient(tiny_factory("alpha"), CFG)
        assert len(seeds) == 2
        assert seeds[1] == seeds[0] + suite_mod.RESEED_STRIDE
        assert "obs=attempt2" in run.status

    def test_strict_propagates(self, monkeypatch):
        def broken(problem, r0, algorithm, **kwargs):
            raise TimingError("boom")

        monkeypatch.setattr(suite_mod, "run_solver", broken)
        with pytest.raises(TimingError):
            optimize_resilient(tiny_factory("alpha"),
                               replace(CFG, strict=True))

    def test_deadline_yields_partial_rows(self):
        from repro.circuits.suites import table1_circuit

        circuit = table1_circuit("s13207", scale=0.004, seed=0)
        run = optimize_resilient(circuit,
                                 replace(CFG, deadline=1e-4))
        assert "partial" in run.status
        assert any(f.action == "partial-result" for f in run.failures)
        # the partial retiming still produced a full, finite row
        assert math.isfinite(run.row["new_ser"])
        assert "s13207" in format_comparison([run.row])

    def test_strict_deadline_raises_with_partial(self):
        """Strict runs propagate the expiry instead of keeping a
        ``:partial`` row; the exception still carries the retiming."""
        from repro.circuits.suites import table1_circuit

        circuit = table1_circuit("s13207", scale=0.004, seed=0)
        with pytest.raises(DeadlineExceeded) as info:
            optimize_resilient(circuit, replace(CFG, deadline=1e-4,
                                                strict=True))
        assert info.value.partial is not None


class TestRunSuite:
    def test_all_circuits_produce_rows(self):
        result = run_suite(CFG, circuit_factory=tiny_factory)
        assert [r.row["circuit"] for r in result.runs] == ["alpha", "beta"]
        assert result.degraded == []
        assert result.failures == []

    def test_default_factory_falls_back_to_default_scale(self,
                                                         monkeypatch):
        """``SuiteConfig(scale=None)`` builds Table I rows at
        ``DEFAULT_SCALE`` instead of failing each with TypeError."""
        from repro.circuits import suites

        real = suites.table1_circuit
        requested = []

        def spy(name, scale, seed):
            requested.append(scale)
            return real(name, scale=0.004, seed=seed)  # keep the run small

        monkeypatch.setattr(suites, "table1_circuit", spy)
        config = SuiteConfig(circuits=("s13207",), seed=0, n_frames=2,
                             n_patterns=32)
        result = run_suite(config)
        assert requested == [suites.DEFAULT_SCALE]
        assert result.runs[0].status == "ok"
        assert config.fingerprint()["scale"] is None

    def test_crash_isolation_skips_bad_circuit(self):
        def factory(name):
            if name == "alpha":
                raise RuntimeError("generator exploded")
            return tiny_factory(name)

        result = run_suite(CFG, circuit_factory=factory)
        assert result.runs[0].status == "failed:circuit"
        assert math.isnan(result.runs[0].row["ser"])
        assert result.runs[1].status == "ok"
        # the failed row still formats (as a flagged footnote)
        report = format_comparison(result.rows)
        assert "alpha*" in report
        assert "failed:circuit" in report

    def test_strict_run_propagates_factory_error(self):
        def factory(name):
            raise RuntimeError("generator exploded")

        with pytest.raises(RuntimeError):
            run_suite(replace(CFG, strict=True), circuit_factory=factory)

    def test_progress_callback_sees_every_circuit(self):
        lines = []
        run_suite(CFG, circuit_factory=tiny_factory,
                  progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("alpha:")


class TestCheckpointResume:
    def test_interrupted_run_resumes_and_matches(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        reference = format_comparison(
            run_suite(CFG, circuit_factory=tiny_factory).rows)

        calls = []

        def interrupting(name):
            if calls:
                raise KeyboardInterrupt
            calls.append(name)
            return tiny_factory(name)

        with pytest.raises(KeyboardInterrupt):
            run_suite(CFG, manifest_path=path,
                      circuit_factory=interrupting)

        resumed = run_suite(CFG, manifest_path=path,
                            circuit_factory=tiny_factory)
        assert [r.resumed for r in resumed.runs] == [True, False]
        out = format_comparison(resumed.rows)
        assert mask_times(out) == mask_times(reference)

    def test_resume_of_complete_manifest_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        first = run_suite(CFG, manifest_path=path,
                          circuit_factory=tiny_factory)

        def must_not_run(name):
            raise AssertionError("completed circuits must be skipped")

        second = run_suite(CFG, manifest_path=path,
                           circuit_factory=must_not_run)
        assert all(r.resumed for r in second.runs)
        assert format_comparison(second.rows) == \
            format_comparison(first.rows)

    def test_failed_rows_are_checkpointed_too(self, tmp_path):
        path = str(tmp_path / "manifest.json")

        def factory(name):
            if name == "alpha":
                raise RuntimeError("flaky generator")
            return tiny_factory(name)

        run_suite(CFG, manifest_path=path, circuit_factory=factory)
        resumed = run_suite(CFG, manifest_path=path,
                            circuit_factory=tiny_factory)
        assert resumed.runs[0].resumed
        assert resumed.runs[0].status == "failed:circuit"

    def test_config_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        run_suite(CFG, manifest_path=path, circuit_factory=tiny_factory)
        with pytest.raises(ManifestError, match="refusing to resume"):
            run_suite(replace(CFG, seed=99), manifest_path=path,
                      circuit_factory=tiny_factory)

    def test_resilience_knobs_do_not_invalidate_manifest(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        run_suite(CFG, manifest_path=path, circuit_factory=tiny_factory)
        relaxed = replace(CFG, deadline=60.0, max_retries=5, guard=False)
        resumed = run_suite(relaxed, manifest_path=path,
                            circuit_factory=tiny_factory)
        assert all(r.resumed for r in resumed.runs)


class TestSuiteConfig:
    def test_unknown_algorithm_rejected(self):
        # Not silently run as MinObs under a "magic=minobs" status.
        with pytest.raises(RetimingError, match="SuiteConfig.algorithms.*"
                                                "'magic'"):
            replace(CFG, algorithms=("minobs", "magic"))

    def test_fingerprint_excludes_resilience_knobs(self):
        base = CFG.fingerprint()
        tweaked = replace(CFG, deadline=1.0, max_retries=9, strict=True,
                          guard=False).fingerprint()
        assert base == tweaked

    def test_fingerprint_tracks_experiment_knobs(self):
        assert CFG.fingerprint() != replace(CFG, seed=1).fingerprint()
        assert CFG.fingerprint() != \
            replace(CFG, n_frames=4).fingerprint()

    def test_fingerprint_excludes_worker_count(self):
        # workers is an execution knob: a parallel run must be able to
        # resume a serial manifest and vice versa
        assert CFG.fingerprint() == replace(CFG, workers=8).fingerprint()


class TestObservabilityCache:
    """The suite's observability stage reuses results through the
    analysis cache's ``"obs"`` kind (:mod:`repro.sim.odc`)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.sim import odc

        real = odc._observability_impl
        seen = []

        def counting(circuit, *args):
            seen.append(circuit.name)
            return real(circuit, *args)

        monkeypatch.setattr(odc, "_observability_impl", counting)
        with analysis_cache.activated(analysis_cache.AnalysisCache()):
            yield seen

    def test_repeat_run_hits_cache(self, calls):
        first = optimize_resilient(tiny_factory("alpha"), CFG)
        second = optimize_resilient(tiny_factory("alpha"), CFG)
        assert calls == ["alpha"]  # one simulation, second run cached
        assert first.row["ser"] == second.row["ser"]

    def test_keyed_on_structure_not_name(self, calls):
        circuit = tiny_factory("alpha")
        renamed = circuit.copy(name="other")
        suite_mod.compute_observability(circuit, 3, 32, 0)
        suite_mod.compute_observability(renamed, 3, 32, 0)
        assert calls == ["alpha"]  # same structure -> same cache entry

    def test_distinct_keys_recompute(self, calls):
        circuit = tiny_factory("alpha")
        suite_mod.compute_observability(circuit, 3, 32, 0)
        suite_mod.compute_observability(circuit, 3, 32, 1)  # other seed
        suite_mod.compute_observability(tiny_factory("beta"), 3, 32, 0)
        assert len(calls) == 3


class TestRetimedSerFromScratch:
    def test_small_tier_outcomes_match_fresh_analysis(self):
        # Each retimed rebuild's SER equals a from-scratch analysis of
        # the outcome's circuit, and the one the incremental ELW pass
        # over the original's ELWs gives (an independent implementation).
        from repro.core.elw import circuit_elws, incremental_circuit_elws
        from repro.corpus.families import corpus_circuit, tier_specs
        from repro.ser.analysis import analyze_ser

        names = tuple(spec.name for spec in tier_specs("small"))
        config = SuiteConfig(circuits=names, seed=0, n_frames=2,
                             n_patterns=32)
        result = run_suite(config, circuit_factory=lambda name:
                           corpus_circuit("small", name))
        compared = 0
        for run in result.runs:
            assert run.status == "ok", run.name
            pipeline = run.result
            original = corpus_circuit("small", run.name)
            setup = original.library.setup_time
            hold = original.library.hold_time
            base = circuit_elws(original, pipeline.phi, setup, hold)
            for algorithm, outcome in pipeline.outcomes.items():
                fresh = analyze_ser(outcome.circuit, pipeline.phi, setup,
                                    hold, obs=pipeline.obs)
                assert outcome.ser == fresh, (run.name, algorithm)
                elws, _ = incremental_circuit_elws(
                    outcome.circuit, original, base, pipeline.phi, setup,
                    hold)
                assert outcome.ser == analyze_ser(
                    outcome.circuit, pipeline.phi, setup, hold,
                    obs=pipeline.obs, elws=elws), (run.name, algorithm)
                compared += 1
        assert compared == 2 * len(names)
