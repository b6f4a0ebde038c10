"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.circuits import random_sequential_circuit
from repro.netlist import dump_bench


@pytest.fixture
def bench_file(tmp_path):
    circuit = random_sequential_circuit(
        "clitest", n_gates=80, n_dffs=24, n_inputs=6, n_outputs=6, seed=2)
    path = tmp_path / "clitest.bench"
    dump_bench(circuit, path)
    return str(path)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (["analyze", "x.bench"],
                     ["retime", "x.bench", "-a", "minobs"],
                     ["compare", "x.bench"],
                     ["table1", "s13207"],
                     ["generate", "out.bench", "--gates", "50"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_bad_algorithm_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["retime", "x.bench", "-a", "magic"])


class TestCommands:
    def test_analyze(self, bench_file, capsys):
        code = main(["analyze", bench_file, "--frames", "3",
                     "--patterns", "64", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total SER" in out

    def test_retime_writes_output(self, bench_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.bench")
        code = main(["retime", bench_file, "-a", "minobswin",
                     "-o", out_path, "--frames", "3", "--patterns", "64"])
        assert code == 0
        from repro.netlist import load_bench

        retimed = load_bench(out_path)
        assert retimed.n_gates >= 80

    def test_retime_verilog_output(self, bench_file, tmp_path):
        out_path = str(tmp_path / "out.v")
        assert main(["retime", bench_file, "-o", out_path, "--frames",
                     "2", "--patterns", "64"]) == 0
        assert "module" in open(out_path).read()

    def test_compare(self, bench_file, capsys):
        code = main(["compare", bench_file, "--frames", "3",
                     "--patterns", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dSER_new" in out

    def test_table1_subset(self, capsys):
        code = main(["table1", "s13207", "b14_opt", "--scale", "0.004",
                     "--frames", "2", "--patterns", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "s13207" in out and "AVG" in out

    def test_table1_failed_row_leaves_averages(self, capsys):
        """An unknown row fails alone; it does not count as -100% dFF."""
        def averages(names):
            assert main(["table1", *names, "--scale", "0.004", "--frames",
                         "2", "--patterns", "64"]) == 0
            line, = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("AVG")]
            return line.split("  t_new/t_ref")[0]  # drop wall-clock ratios

        assert averages(["s13207", "no_such_row"]) == averages(["s13207"])

    def test_generate_row(self, tmp_path, capsys):
        out_path = str(tmp_path / "row.bench")
        code = main(["generate", out_path, "--row", "b14_opt",
                     "--scale", "0.004"])
        assert code == 0
        from repro.netlist import load_bench

        assert load_bench(out_path).n_gates > 50

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("garbage line\n")
        code = main(["analyze", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_errors_carry_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\ngarbage line\n")
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err

    def test_unsupported_extension_rejected(self, tmp_path, capsys):
        verilog = tmp_path / "c.v"
        verilog.write_text("module c; endmodule\n")
        code = main(["analyze", str(verilog)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert ".v" in err and ".bench" in err and ".blif" in err

    def test_extension_case_insensitive(self, bench_file, tmp_path,
                                        capsys):
        import shutil

        upper = tmp_path / "COPY.BENCH"
        shutil.copy(bench_file, upper)
        assert main(["analyze", str(upper), "--frames", "2",
                     "--patterns", "64"]) == 0

    def test_analyze_matches_pipeline_ser(self, bench_file, capsys):
        """CLI analyze must use the library setup/hold like the pipeline."""
        assert main(["analyze", bench_file, "--frames", "3",
                     "--patterns", "64", "--top", "0"]) == 0
        out = capsys.readouterr().out
        reported = float(out.split("total SER (eq. 4) :")[1].split()[0])

        from repro.graph.retiming_graph import RetimingGraph
        from repro.graph.timing import achieved_period
        from repro.netlist import load_bench
        from repro.ser.analysis import analyze_ser

        circuit = load_bench(bench_file)
        setup = circuit.library.setup_time
        hold = circuit.library.hold_time
        graph = RetimingGraph.from_circuit(circuit)
        phi = achieved_period(graph, graph.zero_retiming(), setup)
        expected = analyze_ser(circuit, phi, setup, hold, n_frames=3,
                               n_patterns=64, seed=0).total
        assert reported == pytest.approx(expected, rel=1e-3)
        assert f"setup {setup:g}" in out
        assert f"hold {hold:g}" in out


class TestTable1Resilience:
    ARGS = ["table1", "s13207", "--scale", "0.004", "--frames", "2",
            "--patterns", "64"]

    def test_deadline_degrades_but_reports(self, capsys):
        code = main(self.ARGS + ["--deadline", "0.0001"])
        assert code == 0
        captured = capsys.readouterr()
        assert "s13207*" in captured.out  # flagged row
        assert "partial" in captured.out  # footnote spells out the status
        assert "warning:" in captured.err

    def test_strict_deadline_is_an_error(self, capsys):
        code = main(self.ARGS + ["--strict", "--deadline", "0.0001"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_resume_creates_and_reuses_manifest(self, tmp_path, capsys):
        manifest = str(tmp_path / "run.json")
        assert main(self.ARGS + ["--resume", manifest]) == 0
        first = capsys.readouterr().out

        import json

        payload = json.loads(open(manifest).read())
        assert payload["format"] == "repro-run-manifest"
        assert "s13207" in payload["completed"]

        assert main(self.ARGS + ["--resume", manifest]) == 0
        second = capsys.readouterr().out
        assert second == first  # resumed rows are byte-identical

    def test_resume_config_mismatch_is_clean_error(self, tmp_path,
                                                   capsys):
        manifest = str(tmp_path / "run.json")
        assert main(self.ARGS + ["--resume", manifest]) == 0
        capsys.readouterr()
        code = main(["table1", "s13207", "--scale", "0.004", "--frames",
                     "3", "--patterns", "64", "--resume", manifest])
        assert code == 1
        assert "refusing to resume" in capsys.readouterr().err

    def test_unwritable_manifest_is_clean_error(self, tmp_path, capsys):
        manifest = str(tmp_path / "no" / "such" / "dir" / "run.json")
        code = main(self.ARGS + ["--resume", manifest])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_resume_corrupt_manifest_is_clean_error(self, tmp_path,
                                                    capsys):
        manifest = str(tmp_path / "run.json")
        assert main(self.ARGS + ["--resume", manifest]) == 0
        capsys.readouterr()
        text = open(manifest).read().replace('"status": "ok"',
                                             '"status": "OK"')
        open(manifest, "w").write(text)
        code = main(self.ARGS + ["--resume", manifest])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "integrity check" in err
        assert "Traceback" not in err

    def test_resume_garbage_manifest_is_clean_error(self, tmp_path,
                                                    capsys):
        manifest = tmp_path / "run.json"
        manifest.write_bytes(b"\x00\xff garbage \x80 not json")
        code = main(self.ARGS + ["--resume", str(manifest)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_strict_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(self.ARGS + ["--strict", "--no-guard",
                                              "--max-retries", "3"])
        assert args.strict and args.no_guard and args.max_retries == 3

    def test_json_report_from_resumed_rows(self, tmp_path, capsys):
        manifest = str(tmp_path / "run.json")
        report = str(tmp_path / "out.json")
        assert main(self.ARGS + ["--resume", manifest]) == 0
        assert main(self.ARGS + ["--resume", manifest, "--json",
                                 report]) == 0

        from repro.reporting import load_results

        results = load_results(report)
        assert results[0]["circuit"] == "s13207"
        assert results[0]["status"] == "ok"
