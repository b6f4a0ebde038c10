"""Cross-module invariant tests (property-style, whole-pipeline)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import random_sequential_circuit
from repro.core.constraints import Problem, check_constraints, gains
from repro.core.initialization import initialize
from repro.core.minobs import minobs_retiming
from repro.core.minobswin import minobswin_retiming
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import (achieved_period, arrival_times, label_lists,
                                min_register_path)
from repro.sim.odc import observability
from tests.conftest import tiny_random


def build(seed: int, n_gates: int = 24, n_dffs: int = 8):
    circuit = random_sequential_circuit(
        f"inv{seed}", n_gates=n_gates, n_dffs=n_dffs, n_inputs=4,
        n_outputs=4, seed=seed)
    graph = RetimingGraph.from_circuit(circuit)
    obs = observability(circuit, n_frames=4, n_patterns=64, seed=1).obs
    counts = {n: int(round(v * 64)) for n, v in obs.items()}
    init = initialize(graph, 0.0, circuit.library.hold_time)
    problem = Problem(graph=graph, phi=init.phi, setup=0.0,
                      hold=circuit.library.hold_time, rmin=init.rmin,
                      b=gains(graph, counts))
    return circuit, graph, problem, init


class TestSolverInvariants:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 80))
    def test_final_retiming_respects_every_constraint(self, seed):
        """P0 + P1' + P2' all hold at the solver's final answer -- in
        particular the minimal register-to-latch path never drops below
        R_min (the ELW guarantee of Theorem 1 + P2')."""
        circuit, graph, problem, init = build(seed)
        result = minobswin_retiming(problem, init.r0)
        assert check_constraints(problem, result.r) is None
        sp = min_register_path(graph, result.r, problem.phi, 0.0,
                               problem.hold)
        if math.isfinite(sp):
            assert sp >= problem.rmin - 1e-9
        assert achieved_period(graph, result.r) <= problem.phi + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 80))
    def test_minobswin_objective_sandwich(self, seed):
        """start <= MinObsWin <= MinObs (more constraints, same gains)."""
        _, _, problem, init = build(seed)
        win = minobswin_retiming(problem, init.r0)
        base = minobs_retiming(problem, init.r0)
        start = problem.objective(init.r0)
        assert start <= win.objective <= base.objective

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_register_observability_matches_objective(self, seed):
        """The objective delta equals K times the register-observability
        delta (eq. 5): the solver optimizes exactly what it reports."""
        from repro.core.constraints import register_observability

        circuit, graph, problem, init = build(seed)
        obs = observability(circuit, n_frames=4, n_patterns=64,
                            seed=1).obs
        result = minobswin_retiming(problem, init.r0)
        delta_obj = result.objective - problem.objective(init.r0)
        delta_obs = (register_observability(graph, init.r0, obs)
                     - register_observability(graph, result.r, obs))
        assert delta_obj == pytest.approx(64 * delta_obs, abs=1e-6)


class TestTimingViews:
    """Arrival times and boundary labels of one ``(graph, r, phi)``."""

    def test_caches_consistent_views(self):
        circuit = tiny_random(3, n_gates=12, n_dffs=4)
        graph = RetimingGraph.from_circuit(circuit)
        r = graph.zero_retiming()
        phi = achieved_period(graph, r) + 2.0
        weights = graph.retimed_weights(r)
        assert len(weights) == graph.n_edges
        assert arrival_times(graph, r).max() <= phi + 1e-9
        L, R, *_ = label_lists(graph, weights, phi, 0.0, 2.0, True)
        for v in range(1, graph.n_vertices):
            if math.isfinite(L[v]):
                assert R[v] - L[v] >= 0.0
            else:
                assert not math.isfinite(R[v])

    def test_elw_bound_contains_exact_measure(self):
        from repro.core.elw import graph_elws

        circuit = tiny_random(5, n_gates=12, n_dffs=4)
        graph = RetimingGraph.from_circuit(circuit)
        r = graph.zero_retiming()
        phi = achieved_period(graph, r) + 2.0
        L, R, *_ = label_lists(graph, graph.retimed_weights(r), phi, 0.0,
                               2.0, True)
        elws = graph_elws(graph, r, phi, 0.0, 2.0)
        for v in range(1, graph.n_vertices):
            bound = R[v] - L[v] if math.isfinite(L[v]) else 0.0
            assert bound >= elws[v].measure - 1e-9


class TestFormatInterchange:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_all_formats_agree(self, seed):
        """bench, BLIF and Verilog round trips all produce circuits that
        co-simulate identically with the original."""
        from repro.netlist import (
            dumps_bench, dumps_blif, dumps_verilog,
            loads_bench, loads_blif, loads_verilog,
        )
        from repro.retime.verify import check_sequential_equivalence

        circuit = tiny_random(seed, n_gates=12, n_dffs=4)
        for dumps, loads in ((dumps_bench, loads_bench),
                             (dumps_blif, loads_blif),
                             (dumps_verilog, loads_verilog)):
            again = loads(dumps(circuit))
            equal, cycle = check_sequential_equivalence(
                circuit, again, cycles=12, n_patterns=64, seed=seed)
            assert equal, (dumps.__name__, cycle)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_retime_then_export_then_reimport(self, seed):
        """Full flow: optimize, rebuild, export to bench, re-import,
        and the SER analysis of the re-import matches exactly."""
        from repro.netlist import dumps_bench, loads_bench
        from repro.pipeline import rebuild_retimed
        from repro.ser.analysis import analyze_ser

        circuit, graph, problem, init = build(seed)
        result = minobswin_retiming(problem, init.r0)
        retimed = rebuild_retimed(circuit, graph, result.r)
        again = loads_bench(dumps_bench(retimed))
        obs = observability(circuit, n_frames=4, n_patterns=64,
                            seed=1).obs
        a = analyze_ser(retimed, problem.phi, 0.0, problem.hold, obs=obs)
        b = analyze_ser(again, problem.phi, 0.0, problem.hold, obs=obs)
        assert a.total == pytest.approx(b.total)
