"""Tests for exact error-latching-window computation (eq. 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.elw import circuit_elws, graph_elws, latching_window
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist import Circuit
from tests.conftest import tiny_random


class TestLatchingWindow:
    def test_window(self):
        w = latching_window(10.0, 1.0, 2.0)
        assert w.intervals == ((9.0, 12.0),)
        assert w.measure == pytest.approx(3.0)


class TestCircuitElws:
    def test_gate_before_register(self):
        c = Circuit("direct")
        c.add_input("a")
        c.add_gate("g", "NOT", ["a"])
        c.add_dff("q", "g")
        c.add_output("q")
        elws = circuit_elws(c, phi=10, setup=0, hold=2)
        assert elws["g"].intervals == ((10.0, 12.0),)
        # The register's own window comes through its reader; q feeds the
        # PO directly (a latch point), so ELW(q) is the full window.
        assert elws["q"].intervals == ((10.0, 12.0),)

    def test_shift_through_gate(self):
        c = Circuit("shifted")
        c.add_input("a")
        c.add_gate("g1", "NOT", ["a"])   # d=1
        c.add_gate("g2", "BUF", ["g1"])  # d=2
        c.add_output("g2")
        elws = circuit_elws(c, phi=10, setup=0, hold=2)
        assert elws["g2"].intervals == ((10.0, 12.0),)
        assert elws["g1"].intervals == ((8.0, 10.0),)
        assert elws["a"].intervals == ((7.0, 9.0),)

    def test_union_of_branches(self):
        c = Circuit("branch")
        c.add_input("a")
        c.add_gate("fast", "NOT", ["a"])   # d=1
        c.add_gate("slow", "BUF", ["a"])   # d=2
        c.add_gate("slow2", "BUF", ["slow"])  # d=2
        c.add_output("fast")
        c.add_output("slow2")
        elws = circuit_elws(c, phi=10, setup=0, hold=2)
        # a latches through fast (shift 1) and slow->slow2 (shift 4)
        assert elws["a"].intervals == ((6.0, 8.0), (9.0, 11.0))
        assert elws["a"].measure == pytest.approx(4.0)

    def test_unobservable_net_empty(self):
        c = Circuit("dead")
        c.add_input("a")
        c.add_gate("g", "NOT", ["a"])
        c.add_gate("dead", "BUF", ["a"])
        c.add_output("g")
        elws = circuit_elws(c, phi=10)
        assert elws["dead"].is_empty

    def test_register_to_register_window(self):
        c = Circuit("r2r")
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("q1", "g")
        c.add_dff("q2", "q1")
        c.add_gate("h", "NOT", ["q2"])
        c.add_output("h")
        elws = circuit_elws(c, phi=10, setup=0, hold=2)
        # q1 feeds q2 (a register): full latching window.
        assert elws["q1"].intervals == ((10.0, 12.0),)
        # q2 feeds NOT -> PO: window shifted by d(NOT).
        assert elws["q2"].intervals == ((9.0, 11.0),)


class TestGraphCircuitConsistency:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 80))
    def test_gate_elws_agree(self, seed):
        """Graph-level and netlist-level ELWs agree on gate outputs."""
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        phi = 50.0
        graph_view = graph_elws(g, g.zero_retiming(), phi, 0.0, 2.0)
        circuit_view = circuit_elws(c, phi, 0.0, 2.0)
        for gate in c.gates:
            assert graph_view[g.index[gate]] == circuit_view[gate], gate

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 80))
    def test_elws_after_retiming_rebuild(self, seed):
        """ELWs of a retimed graph equal the ELWs of the rebuilt netlist."""
        import numpy as np

        from repro.pipeline import rebuild_retimed
        from repro.retime.minperiod import min_period_retiming

        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        phi, r = min_period_retiming(g)
        phi = phi + 5.0
        rebuilt = rebuild_retimed(c, g, r)
        graph_view = graph_elws(g, r, phi, 0.0, 2.0)
        circuit_view = circuit_elws(rebuilt, phi, 0.0, 2.0)
        for gate in c.gates:
            assert graph_view[g.index[gate]] == circuit_view[gate], gate
