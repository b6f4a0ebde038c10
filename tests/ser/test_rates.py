"""Tests for the raw soft-error rates."""

import pytest

from repro.ser.rates import RATE_UNIT, raw_rates, register_rate


class TestRateModels:
    def test_library_model_uses_cells(self, tiny_circuit):
        rate = raw_rates(tiny_circuit)["g1"]
        expected = tiny_circuit.gate_raw_ser("g1") * RATE_UNIT
        assert rate == pytest.approx(expected)
        assert register_rate(tiny_circuit) == pytest.approx(
            tiny_circuit.library.register_raw_ser * RATE_UNIT)

    def test_raw_rates_covers_everything(self, tiny_circuit):
        rates = raw_rates(tiny_circuit)
        assert set(rates) == set(tiny_circuit.gates) | \
            set(tiny_circuit.dffs)
        assert all(v > 0 for v in rates.values())
