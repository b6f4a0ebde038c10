"""Tests for the SER engine (eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.netlist import Circuit
from repro.ser.analysis import analyze_ser, extend_obs_to_registers
from tests.conftest import tiny_random


class TestExtendObs:
    def test_register_takes_driver_obs(self, tiny_circuit):
        obs = {"a": 0.1, "b": 0.2, "g1": 0.3, "g2": 0.4, "y": 0.5}
        full = extend_obs_to_registers(tiny_circuit, obs)
        # s1 is driven by g2.
        assert full["s1"] == 0.4

    def test_chain_takes_comb_source(self):
        c = Circuit("chain")
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("q1", "g")
        c.add_dff("q2", "q1")
        c.add_output("q2")
        full = extend_obs_to_registers(c, {"a": 0.3, "g": 0.7})
        assert full["q1"] == full["q2"] == 0.7

    def test_missing_driver_rejected(self, tiny_circuit):
        with pytest.raises(AnalysisError):
            extend_obs_to_registers(tiny_circuit, {"a": 0.1})


class TestAnalyzeSer:
    def test_hand_computed_single_gate(self):
        c = Circuit("one")
        c.add_input("a")
        c.add_gate("g", "NOT", ["a"])
        c.add_output("g")
        phi = 10.0
        analysis = analyze_ser(c, phi, setup=0.0, hold=2.0,
                               obs={"a": 1.0, "g": 1.0})
        # The generic library's NOT cell has raw SER 1.0, so err(g) =
        # 1.0 * RATE_UNIT = 1e-6.  ELW(g) = [10, 12]: measure 2;
        # SER = 1 * 1e-6 * 2/10.
        assert analysis.total == pytest.approx(2e-7)
        assert analysis.reg == 0.0
        assert analysis.total_no_timing == pytest.approx(1e-6)

    def test_register_contribution(self):
        c = Circuit("reg")
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("q", "g")
        c.add_output("q")
        analysis = analyze_ser(c, 10.0, setup=0.0, hold=2.0,
                               obs={"a": 1.0, "g": 0.5})
        # gate g (BUF, raw SER 0.8 -> err 0.8e-6) latches with window
        # 2/10 at obs 0.5 -> 0.5 * 0.8e-6 * 0.2 = 8e-8
        assert analysis.comb == pytest.approx(8e-8)
        # register q (raw SER 1.3 -> err 1.3e-6) feeds the PO directly:
        # window 2/10, obs(driver)=0.5 -> 0.5 * 1.3e-6 * 0.2 = 1.3e-7
        assert analysis.reg == pytest.approx(1.3e-7)

    def test_bad_phi(self, tiny_circuit):
        with pytest.raises(AnalysisError):
            analyze_ser(tiny_circuit, 0.0)

    def test_defaults_from_library(self, tiny_circuit):
        analysis = analyze_ser(tiny_circuit, 20.0, n_frames=2,
                               n_patterns=64)
        assert analysis.setup == tiny_circuit.library.setup_time
        assert analysis.hold == tiny_circuit.library.hold_time

    def test_per_element_sums_to_total(self, medium_circuit):
        analysis = analyze_ser(medium_circuit, 80.0, n_frames=3,
                               n_patterns=64)
        assert sum(analysis.per_element.values()) == \
            pytest.approx(analysis.total)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 40))
    def test_timing_masking_only_reduces(self, seed):
        """eq. (4) <= eq. (1): the ELW factor is at most ... bounded by
        the number of disjoint windows; with a large enough phi the
        timing factor is < 1 and the masked SER drops below the
        logic-only SER."""
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        phi = 200.0
        analysis = analyze_ser(c, phi, n_frames=3, n_patterns=64)
        assert analysis.total <= analysis.total_no_timing + 1e-12

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 30))
    def test_larger_phi_smaller_ser(self, seed):
        """With a slower clock each glitch has fewer chances per unit
        time to hit the latching window: SER decreases in phi."""
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        obs_kwargs = dict(n_frames=3, n_patterns=64, seed=2)
        slow = analyze_ser(c, 400.0, **obs_kwargs)
        fast = analyze_ser(c, 100.0, **obs_kwargs)
        assert slow.total <= fast.total + 1e-12

    def test_obs_reuse_matches_fresh(self, tiny_circuit):
        from repro.sim.odc import observability

        obs = observability(tiny_circuit, n_frames=3, n_patterns=64,
                            seed=0).obs
        fresh = analyze_ser(tiny_circuit, 20.0, n_frames=3,
                            n_patterns=64, seed=0)
        reused = analyze_ser(tiny_circuit, 20.0, obs=obs)
        assert fresh.total == pytest.approx(reused.total)


class TestReporting:
    def test_report_format(self, tiny_circuit):
        from repro.ser.report import format_ser_report

        analysis = analyze_ser(tiny_circuit, 20.0, n_frames=2,
                               n_patterns=64)
        text = format_ser_report("tiny", analysis)
        assert "total SER" in text
        assert "top" in text

    def test_comparison_table(self):
        from repro.ser.report import format_comparison

        rows = [{
            "circuit": "s27", "V": 10, "E": 14, "FF": 3, "phi": 12.0,
            "ser": 1e-3, "ref_ff": 2, "ref_time": 0.5, "ref_ser": 8e-4,
            "new_ff": 2, "new_time": 1.0, "new_J": 3, "new_ser": 7e-4,
        }]
        text = format_comparison(rows)
        assert "s27" in text
        assert "114%" in text or "115%" in text
