"""Unit and property tests for the retiming graph."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError, RetimingError
from repro.graph.retiming_graph import HOST, RetimingGraph
from repro.netlist import Circuit
from tests.conftest import tiny_random


class TestConstruction:
    def test_host_is_vertex_zero(self):
        g = RetimingGraph()
        assert g.names[0] == HOST
        assert g.delays[0] == 0.0

    def test_duplicate_vertex(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        with pytest.raises(NetlistError):
            g.add_vertex("a", 2.0)

    def test_negative_delay(self):
        g = RetimingGraph()
        with pytest.raises(NetlistError):
            g.add_vertex("a", -1.0)

    def test_negative_weight(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        with pytest.raises(NetlistError):
            g.add_edge("a", "a", -1)


class TestFromCircuit:
    def test_tiny(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        # 3 gates + host
        assert g.n_vertices == 4
        # 5 gate-input connections + 2 primary outputs
        assert g.n_edges == 7
        # register chain between g2 and g1 traced into the edge weight
        idx_g1 = g.index["g1"]
        idx_g2 = g.index["g2"]
        weights = {(e.u, e.v): e.w for e in g.edges}
        assert weights[(idx_g2, idx_g1)] == 1

    def test_po_through_register(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        # output "s1" is a register fed by g2: edge g2 -> host with w=1
        po_edges = [e for e in g.edges if e.tag and e.tag[0] == "po"]
        assert len(po_edges) == 2
        s1_edge = next(e for e in po_edges if e.tag[1] == 1)
        assert s1_edge.w == 1
        assert g.names[s1_edge.u] == "g2"

    def test_pi_to_po_passthrough(self):
        c = Circuit("thru")
        c.add_input("a")
        c.add_dff("q", "a")
        c.add_output("q")
        c.add_gate("g", "NOT", ["a"])
        c.add_output("g")
        g = RetimingGraph.from_circuit(c)
        host_host = [e for e in g.edges if e.u == 0 and e.v == 0]
        assert len(host_host) == 1
        assert host_host[0].w == 1

    def test_delays_from_library(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        assert g.delays[g.index["g1"]] == tiny_circuit.gate_delay("g1")

    def test_src_net_through_chain(self):
        c = Circuit("chain")
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("q1", "g")
        c.add_dff("q2", "q1")
        c.add_gate("h", "NOT", ["q2"])
        c.add_output("h")
        g = RetimingGraph.from_circuit(c)
        edge = next(e for e in g.edges
                    if e.tag == ("gate_in", "h", 0))
        assert edge.src_net == "g"
        assert edge.w == 2


class TestRetimingAlgebra:
    def test_zero_retiming_weights(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        assert list(g.retimed_weights(g.zero_retiming())) == \
            [e.w for e in g.edges]

    def test_validate_rejects_host_shift(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        r = g.zero_retiming()
        r[0] = 1
        with pytest.raises(RetimingError):
            g.validate_retiming(r)

    def test_validate_rejects_negative_edges(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        r = g.zero_retiming()
        r[g.index["g1"]] = -1  # pulls a register off a register-free edge
        assert not g.is_valid_retiming(r)

    def test_wrong_length(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        with pytest.raises(RetimingError):
            g.validate_retiming(np.zeros(2, dtype=np.int64))

    def test_register_count_shared_vs_edge(self):
        c = Circuit("share")
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("q", "g")
        c.add_gate("x", "NOT", ["q"])
        c.add_gate("y", "BUF", ["q"])
        c.add_output("x")
        c.add_output("y")
        g = RetimingGraph.from_circuit(c)
        assert g.register_count(shared=True) == 1
        assert g.register_count(shared=False) == 2

    def test_cycles_have_registers(self, feedback):
        g = RetimingGraph.from_circuit(feedback)
        assert g.cycles_have_registers()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), shifts=st.lists(
        st.integers(-2, 2), min_size=8, max_size=8))
    def test_cycle_weight_invariance(self, seed, shifts):
        """Register count around any cycle is retiming-invariant."""
        from repro.retime.verify import check_cycle_weights

        c = tiny_random(seed, n_gates=8, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        r = g.zero_retiming()
        r[1:1 + len(shifts[:g.n_vertices - 1])] = \
            shifts[:g.n_vertices - 1]
        assert check_cycle_weights(g, r)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_total_edge_weight_change_telescopes(self, seed):
        """sum w_r - sum w == sum over edges (r(v) - r(u))."""
        rng = np.random.default_rng(seed)
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        r = g.zero_retiming()
        r[1:] = rng.integers(-3, 4, size=g.n_vertices - 1)
        delta = g.retimed_weights(r) - np.array([e.w for e in g.edges])
        expected = sum(int(r[e.v]) - int(r[e.u]) for e in g.edges)
        assert int(delta.sum()) == expected
