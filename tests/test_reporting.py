"""Tests for JSON result reporting and the Table I averages."""

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits import random_sequential_circuit
from repro.errors import AnalysisError
from repro.pipeline import optimize_circuit
from repro.reporting import (
    format_averages,
    load_results,
    result_to_dict,
    save_results,
    summarize,
)
from repro.runtime.suite import SuiteConfig, run_suite


@pytest.fixture(scope="module")
def result():
    circuit = random_sequential_circuit(
        "report", n_gates=70, n_dffs=20, n_inputs=6, n_outputs=6, seed=4)
    return optimize_circuit(circuit, n_frames=4, n_patterns=64)


def report(name, registers, ser, algorithms, used_fallback=False):
    """A flattened report carrying only what :func:`summarize` reads."""
    return {"circuit": name, "registers": registers,
            "ser_original": {"total": ser}, "used_fallback": used_fallback,
            "algorithms": {
                alg: {"registers": ff, "ser_total": total, "runtime": t}
                for alg, (ff, total, t) in algorithms.items()}}


def without_times(summary):
    """A summary minus its wall-clock solve-time ratios."""
    return {k: v for k, v in summary.items() if not k.startswith("time_")}


class TestFlattening:
    def test_plain_json_types(self, result):
        import json

        flattened = result_to_dict(result)
        text = json.dumps(flattened)  # must not raise
        assert "minobswin" in text

    def test_fields(self, result):
        d = result_to_dict(result)
        assert d["circuit"] == "report"
        assert d["phi"] > 0
        assert set(d["algorithms"]) == {"minobs", "minobswin"}
        for entry in d["algorithms"].values():
            assert entry["runtime"] >= 0
            assert entry["registers"] > 0

    def test_labels_optional(self, result):
        without = result_to_dict(result)
        with_labels = result_to_dict(result, include_labels=True)
        assert "retiming" not in without["algorithms"]["minobs"]
        labels = with_labels["algorithms"]["minobs"]["retiming"]
        assert labels[0] == 0  # host
        assert len(labels) == result.vertices + 1

    def test_labels_reapply(self, result):
        """Stored labels reproduce the retimed register count."""
        from repro.graph.retiming_graph import RetimingGraph
        from repro.retime.apply import apply_retiming

        d = result_to_dict(result, include_labels=True)
        circuit = result.outcomes["minobs"].circuit  # rebuilt one
        # Re-apply to the *original* via a fresh pipeline run instead:
        original = random_sequential_circuit(
            "report", n_gates=70, n_dffs=20, n_inputs=6, n_outputs=6,
            seed=4)
        graph = RetimingGraph.from_circuit(original)
        r = np.array(d["algorithms"]["minobs"]["retiming"])
        rebuilt = apply_retiming(original, graph, r)
        assert rebuilt.n_dffs == d["algorithms"]["minobs"]["registers"]


class TestSaveLoad:
    def test_roundtrip(self, result, tmp_path):
        path = tmp_path / "results.json"
        save_results([result], path)
        loaded = load_results(path)
        assert len(loaded) == 1
        assert loaded[0]["circuit"] == "report"

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(AnalysisError):
            load_results(path)

    def test_summarize(self):
        reports = [
            report("a", 10, 2.0, {"minobs": (8, 1.0, 1.0),
                                  "minobswin": (9, 0.5, 3.0)}),
            report("b", 20, 4.0, {"minobs": (20, 4.0, 2.0),
                                  "minobswin": (10, 4.0, 2.0)},
                   used_fallback=True),
            # A failure report carries no algorithms and is skipped.
            {"name": "c", "status": "failed:prepare", "failures": []},
        ]
        stats = summarize(reports)
        assert stats["rows"] == 2
        assert stats["dser_minobs"] == pytest.approx((-50.0 + 0.0) / 2)
        assert stats["dser_minobswin"] == pytest.approx((-75.0 + 0.0) / 2)
        assert stats["dff_minobs"] == pytest.approx((-20.0 + 0.0) / 2)
        assert stats["dff_minobswin"] == pytest.approx((-10.0 - 50.0) / 2)
        assert stats["ser_ratio"] == pytest.approx((200.0 + 100.0) / 2)
        assert stats["ser_ratio_min"] == pytest.approx(100.0)
        assert stats["ser_ratio_max"] == pytest.approx(200.0)
        # Solve-time ratios are ratios of totals; the second leaves out
        # the row whose initialization fell back.
        assert stats["time_ratio"] == pytest.approx((3.0 + 2.0) / 3.0)
        assert stats["rows_no_fallback"] == 1
        assert stats["time_ratio_no_fallback"] == pytest.approx(3.0)


class TestSummarize:
    def test_no_rows_omits_the_means(self):
        stats = summarize([{"name": "c", "status": "failed:prepare"}])
        assert stats == {"rows": 0, "rows_no_fallback": 0}
        assert format_averages(stats).startswith("AVG of 0 rows")

    def test_failed_circuit_does_not_move_averages(self):
        """A circuit that fails adds nothing: not a -100% dFF row."""
        def factory(name):
            if name == "boom":
                raise RuntimeError("generator exploded")
            return random_sequential_circuit(
                name, n_gates=50, n_dffs=15, n_inputs=5, n_outputs=5,
                seed=sum(map(ord, name)))

        config = SuiteConfig(circuits=("alpha", "boom", "beta"), seed=0,
                             n_frames=3, n_patterns=32)
        with_failure = run_suite(config, circuit_factory=factory)
        assert [run.status for run in with_failure.runs] == \
            ["ok", "failed:circuit", "ok"]
        good_only = run_suite(replace(config, circuits=("alpha", "beta")),
                              circuit_factory=factory)
        stats = summarize(with_failure.reports)
        expected = summarize(good_only.reports)
        assert stats["rows"] == 2
        assert without_times(stats) == without_times(expected)
        assert stats.keys() == expected.keys()


class TestCliJson:
    def test_table1_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t1.json"
        code = main(["table1", "s13207", "--scale", "0.004",
                     "--frames", "2", "--patterns", "64",
                     "--json", str(out)])
        assert code == 0
        loaded = load_results(out)
        assert loaded[0]["circuit"] == "s13207"

    def test_table1_resume_prints_same_averages(self, tmp_path, capsys):
        """A fully resumed run averages the stored reports and runtimes."""
        from repro.cli import main

        argv = ["table1", "s13207", "b14_opt", "--scale", "0.004",
                "--frames", "2", "--patterns", "64",
                "--resume", str(tmp_path / "m.json")]
        averages = []
        for _ in range(2):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            averages += [line for line in lines if line.startswith("AVG")]
        assert len(averages) == 2
        assert averages[0] == averages[1]
        assert "t_new/t_ref" in averages[0]
