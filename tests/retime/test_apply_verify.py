"""Tests for retiming application and equivalence verification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import RetimingError, SimulationError
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist import Circuit, validate_circuit
from repro.pipeline import rebuild_retimed
from repro.retime.apply import apply_retiming
from repro.retime.minperiod import min_period_retiming
from repro.retime.verify import (
    check_cycle_weights,
    check_sequential_equivalence,
    forward_initial_states,
)
from tests.conftest import tiny_random


class TestApply:
    def test_identity_rebuild_preserves_structure(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        rebuilt = apply_retiming(tiny_circuit, g, g.zero_retiming())
        assert rebuilt.n_gates == tiny_circuit.n_gates
        assert rebuilt.n_dffs == g.register_count()
        validate_circuit(rebuilt)

    def test_identity_rebuild_equivalent(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        inits = forward_initial_states(tiny_circuit, g, g.zero_retiming())
        rebuilt = apply_retiming(tiny_circuit, g, g.zero_retiming(),
                                 chain_inits=inits)
        equal, cycle = check_sequential_equivalence(
            tiny_circuit, rebuilt, cycles=24, n_patterns=64)
        assert equal, f"mismatch at cycle {cycle}"

    def test_invalid_retiming_rejected(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        r = g.zero_retiming()
        r[1] = -10
        with pytest.raises(RetimingError):
            apply_retiming(tiny_circuit, g, r)

    def test_register_count_matches_graph(self, medium_circuit):
        g = RetimingGraph.from_circuit(medium_circuit)
        phi, r = min_period_retiming(g)
        rebuilt = apply_retiming(medium_circuit, g, r)
        assert rebuilt.n_dffs == g.register_count(r)
        validate_circuit(rebuilt)

    def test_gates_keep_names_and_ops(self, medium_circuit):
        g = RetimingGraph.from_circuit(medium_circuit)
        phi, r = min_period_retiming(g)
        rebuilt = apply_retiming(medium_circuit, g, r)
        assert set(rebuilt.gates) == set(medium_circuit.gates)
        for name in medium_circuit.gates:
            assert rebuilt.gates[name].op == medium_circuit.gates[name].op


class TestForwardInitialStates:
    def test_backward_move_rejected(self, tiny_circuit):
        g = RetimingGraph.from_circuit(tiny_circuit)
        r = g.zero_retiming()
        r[g.index["g1"]] = 1
        if g.is_valid_retiming(r):
            with pytest.raises(RetimingError):
                forward_initial_states(tiny_circuit, g, r)

    def test_forward_move_computes_gate_function(self):
        # register(init a0) and register(init b0) merge through an AND.
        for a0, b0 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            c = Circuit("merge")
            c.add_input("x")
            c.add_input("y")
            c.add_gate("ga", "BUF", ["x"])
            c.add_gate("gb", "BUF", ["y"])
            c.add_dff("ra", "ga", init=a0)
            c.add_dff("rb", "gb", init=b0)
            c.add_gate("f", "AND", ["ra", "rb"])
            c.add_gate("out", "BUF", ["f"])
            c.add_output("out")
            g = RetimingGraph.from_circuit(c)
            r = g.zero_retiming()
            r[g.index["f"]] = -1
            inits = forward_initial_states(c, g, r)
            assert inits["f"] == [a0 & b0]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_forward_retiming_cycle_accurate(self, seed):
        """Forward retiming + forwarded initial states is cycle-accurate
        from power-up -- the strongest equivalence statement."""
        from repro.core.constraints import Problem, gains
        from repro.core.initialization import initialize
        from repro.core.minobswin import minobswin_retiming
        from repro.sim.odc import observability

        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        obs = observability(c, n_frames=3, n_patterns=64, seed=1).obs
        counts = {n: int(round(v * 64)) for n, v in obs.items()}
        init = initialize(g, 0.0, 2.0)
        if np.any(init.r0 > 0):
            return  # initial retiming includes backward moves
        problem = Problem(graph=g, phi=init.phi, setup=0.0, hold=2.0,
                          rmin=init.rmin, b=gains(g, counts))
        result = minobswin_retiming(problem, init.r0)
        inits = forward_initial_states(c, g, result.r)
        retimed = apply_retiming(c, g, result.r, chain_inits=inits)
        equal, cycle = check_sequential_equivalence(
            c, retimed, cycles=32, n_patterns=64, seed=seed)
        assert equal, f"divergence at cycle {cycle}"


class TestVerifyHelpers:
    def test_cycle_weights_ok(self, feedback):
        g = RetimingGraph.from_circuit(feedback)
        assert check_cycle_weights(g, g.zero_retiming())

    def test_equivalence_rejects_different_inputs(self, tiny_circuit,
                                                  correlator):
        with pytest.raises(SimulationError):
            check_sequential_equivalence(tiny_circuit, correlator)

    def test_equivalence_detects_difference(self, tiny_circuit):
        mutated = tiny_circuit.copy("mutated")
        mutated.gates["y"].op = "OR"
        equal, cycle = check_sequential_equivalence(
            tiny_circuit, mutated, cycles=8, n_patterns=64)
        assert not equal
        assert cycle >= 0


def enumerate_cycles(graph):
    """Every simple directed cycle of the non-host subgraph, as a list of
    edge indices (parallel edges give distinct cycles)."""
    cycles = []

    def extend(start, node, path, on_path):
        for eidx in graph.out_edges[node]:
            v = graph.edges[eidx].v
            if v == start:
                cycles.append(path + [eidx])
            elif v > start and v not in on_path:
                extend(start, v, path + [eidx], on_path | {v})

    for start in range(1, graph.n_vertices):
        extend(start, start, [], {start})
    return cycles


def oracle_conserves(graph, r):
    """sum w == sum w_r on every enumerated directed cycle."""
    weights = graph.retimed_weights(r)
    return all(sum(graph.edges[i].w for i in cycle)
               == sum(int(weights[i]) for i in cycle)
               for cycle in enumerate_cycles(graph))


def random_graph(rng):
    """A small multigraph with host edges, registered self-loops and
    parallel edges."""
    g = RetimingGraph()
    n = int(rng.integers(2, 8))
    for i in range(n):
        g.add_vertex(f"v{i}", float(rng.integers(1, 4)))
    for _ in range(int(rng.integers(n, 3 * n + 1))):
        u, v = (int(x) for x in rng.integers(0, n + 1, 2))
        w = int(rng.integers(0, 4))
        if u == v:
            w = max(w, 1)
        g.add_edge(u, v, w)
    return g


class TestCycleWeightOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_agrees_with_cycle_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        r = rng.integers(-2, 3, g.n_vertices)
        r[0] = 0
        assert oracle_conserves(g, r)
        assert check_cycle_weights(g, r)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_corrupted_cycle_edge_is_caught(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        cycles = enumerate_cycles(g)
        assume(cycles)
        cycle = cycles[int(rng.integers(0, len(cycles)))]
        bad_edge = cycle[int(rng.integers(0, len(cycle)))]
        r = rng.integers(-2, 3, g.n_vertices)
        r[0] = 0
        honest = RetimingGraph.retimed_weights

        def corrupted(self, r):
            weights = honest(self, r).copy()
            weights[bad_edge] += 1
            return weights

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RetimingGraph, "retimed_weights", corrupted)
            assert not oracle_conserves(g, r)
            assert not check_cycle_weights(g, r)
        assert check_cycle_weights(g, r)
