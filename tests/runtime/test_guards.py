"""Tests for the post-retime verification guards."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist import loads_bench
from repro.pipeline import optimize_circuit, rebuild_retimed_states
from repro.runtime.guards import (GuardReport, default_flush_cycles,
                                  verify_retimed)


@pytest.fixture(scope="module")
def solved(request):
    """A genuine MinObs retiming of a small random circuit."""
    from repro.circuits import random_sequential_circuit

    circuit = random_sequential_circuit(
        "guarded", n_gates=60, n_dffs=18, n_inputs=5, n_outputs=5, seed=11)
    result = optimize_circuit(circuit, algorithms=("minobs",),
                              n_frames=3, n_patterns=32, seed=0)
    graph = RetimingGraph.from_circuit(circuit)
    r = result.outcomes["minobs"].result.r
    retimed, exact = rebuild_retimed_states(circuit, graph, r,
                                            name="guarded_rt")
    return circuit, retimed, graph, r, result.phi, exact


class TestPassingGuard:
    def test_real_retiming_passes_all_checks(self, solved):
        circuit, retimed, graph, r, phi, exact = solved
        report = verify_retimed(circuit, retimed, graph, r, phi,
                                setup=circuit.library.setup_time,
                                exact_states=exact, n_patterns=32, seed=3)
        assert report.ok, report.notes
        assert set(report.checks) == {"valid", "period", "registers",
                                      "cycle_weights", "sequential"}
        assert all(report.checks.values())
        assert report.first_bad_cycle == -1
        report.raise_if_failed()  # must not raise

    def test_identity_retiming_passes(self, solved):
        circuit, _, graph, _, phi, _ = solved
        r = graph.zero_retiming()
        report = verify_retimed(circuit, circuit, graph, r, phi,
                                setup=circuit.library.setup_time)
        assert report.ok, report.notes


class TestFailingGuard:
    def test_too_tight_phi_fails_period(self, solved):
        circuit, retimed, graph, r, _, exact = solved
        report = verify_retimed(circuit, retimed, graph, r, phi=1e-3,
                                setup=circuit.library.setup_time,
                                exact_states=exact)
        assert not report.ok
        assert report.checks["period"] is False
        assert any("period" in note for note in report.notes)

    def test_register_count_mismatch_detected(self, solved):
        circuit, retimed, graph, r, phi, _ = solved
        if retimed.n_dffs == circuit.n_dffs:
            pytest.skip("retiming did not change the register count")
        # claim the zero retiming while handing over the retimed netlist:
        # the shared-chain model then predicts the original FF count
        report = verify_retimed(circuit, retimed, graph,
                                graph.zero_retiming(), phi,
                                setup=circuit.library.setup_time)
        assert report.checks["registers"] is False

    def test_invalid_label_short_circuits(self, solved):
        circuit, retimed, graph, r, phi, _ = solved
        bad = np.asarray(r, dtype=np.int64).copy()
        bad[0] = 5  # host must stay at 0 (P0)
        report = verify_retimed(circuit, retimed, graph, bad, phi)
        assert not report.ok
        assert report.checks["valid"] is False
        assert all(v is False for v in report.checks.values())

    def test_nonequivalent_circuit_fails_sequential(self):
        src = """
INPUT(a)
INPUT(b)
OUTPUT(y)
s1 = DFF(g2)
g1 = NAND(a, s1)
g2 = NOT(g1)
y = AND(g2, b)
"""
        original = loads_bench(src, "orig")
        mutated = loads_bench(src.replace("AND(g2, b)", "OR(g2, b)"),
                              "mut")
        graph = RetimingGraph.from_circuit(original)
        r = graph.zero_retiming()
        phi = 1e9  # timing is not under test here
        report = verify_retimed(original, mutated, graph, r, phi,
                                n_patterns=64, seed=0)
        assert report.checks["sequential"] is False
        assert report.first_bad_cycle >= 0
        with pytest.raises(VerificationError) as excinfo:
            report.raise_if_failed("mutant")
        assert "sequential" in str(excinfo.value)
        assert excinfo.value.report is report

    def test_mismatched_interfaces_fail_fast(self, solved):
        circuit, _, graph, _, phi, _ = solved
        other = loads_bench("""
INPUT(p)
OUTPUT(q)
q = NOT(p)
""", "other")
        report = verify_retimed(circuit, other, graph,
                                graph.zero_retiming(), phi)
        assert report.checks["sequential"] is False


class TestFlushWindow:
    def test_exact_states_use_zero_flush(self, solved):
        circuit, retimed, graph, r, phi, exact = solved
        if not exact:
            pytest.skip("state forwarding fell back on this circuit")
        report = verify_retimed(circuit, retimed, graph, r, phi,
                                setup=circuit.library.setup_time,
                                exact_states=True)
        assert report.flush_cycles == 0

    def test_fallback_states_use_heuristic_flush(self, solved):
        circuit, retimed, graph, r, phi, _ = solved
        report = verify_retimed(circuit, retimed, graph, r, phi,
                                setup=circuit.library.setup_time,
                                exact_states=False)
        assert report.flush_cycles == default_flush_cycles(graph, r)
        assert report.flush_cycles >= 2

    def test_default_flush_cycles_capped(self, solved):
        _, _, graph, r, _, _ = solved
        assert default_flush_cycles(graph, r, cap=3) == 3

    def test_flush_escalates_on_slow_transient(self, solved, monkeypatch):
        """An undershooting heuristic bound must not quarantine a good
        retiming: the guard escalates the window before failing."""
        from repro.runtime import guards as guards_mod

        class SlowTransient(guards_mod.CoSimulation):
            def first_mismatch(self, start, stop):
                if start < 16:  # pretend the reset transient lasts 16
                    return start
                return super().first_mismatch(start, stop)

        monkeypatch.setattr(guards_mod, "CoSimulation", SlowTransient)
        circuit, retimed, graph, r, phi, _ = solved
        report = verify_retimed(circuit, retimed, graph, r, phi,
                                setup=circuit.library.setup_time,
                                exact_states=False)
        assert report.checks["sequential"], report.notes
        assert report.flush_cycles >= 16
        assert any("escalat" in n or "needed" in n for n in report.notes)

    def test_explicit_flush_is_not_escalated(self, solved, monkeypatch):
        from repro.runtime import guards as guards_mod

        calls = []

        class NeverAgrees(guards_mod.CoSimulation):
            def first_mismatch(self, start, stop):
                calls.append(start)
                return start

        monkeypatch.setattr(guards_mod, "CoSimulation", NeverAgrees)
        circuit, retimed, graph, r, phi, _ = solved
        report = verify_retimed(circuit, retimed, graph, r, phi,
                                exact_states=False, flush_cycles=5)
        assert calls == [5]  # caller's window is authoritative
        assert report.checks["sequential"] is False

    def test_explicit_flush_respected(self, solved):
        circuit, retimed, graph, r, phi, exact = solved
        report = verify_retimed(circuit, retimed, graph, r, phi,
                                setup=circuit.library.setup_time,
                                exact_states=exact, flush_cycles=7)
        assert report.flush_cycles == 7


class TestGuardReport:
    def test_to_dict_is_json_plain(self):
        report = GuardReport(ok=False, checks={"valid": True,
                                               "period": False},
                             first_bad_cycle=3, flush_cycles=2,
                             notes=["n"])
        d = report.to_dict()
        assert d == {"ok": False,
                     "checks": {"valid": True, "period": False},
                     "first_bad_cycle": 3, "flush_cycles": 2,
                     "notes": ["n"]}
