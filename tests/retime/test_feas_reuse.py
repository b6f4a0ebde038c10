"""FEAS reuses the zero-retiming arrival pass, and Sec. V searches
Phi_min once.

Every FEAS probe without a starting retiming begins at the zero
retiming, so :meth:`RetimingGraph.zero_arrivals` computes that arrival
pass once per graph.  The oracle here is the classical FEAS that
recomputes every round, run at every period the bisection probes and
around the optimum, on all 21 Table I rows and the 12 small-tier
circuits.
"""

import numpy as np
import pytest

from repro.circuits.suites import TABLE1_ROWS, table1_circuit
from repro.core import initialization
from repro.core.constraints import Problem, check_constraints
from repro.core.initialization import InitialRetiming, initialize
from repro.corpus.families import corpus_circuit, tier_specs
from repro.errors import InfeasibleError, RetimingError
from repro.graph import timing
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import arrival_times, min_register_path
from repro.retime import minperiod, setup_hold
from repro.retime.minperiod import feasible_retiming, min_period_retiming

TOL = 1e-6


def reference_feas(graph, phi, setup=0.0):
    """Leiserson-Saxe FEAS with a fresh arrival pass every round."""
    n = graph.n_vertices
    r = np.zeros(n, dtype=np.int64)
    target = phi - setup + 1e-9
    for _ in range(n + 1):
        try:
            delta = arrival_times(graph, r)
        except RetimingError:
            return None
        late = delta > target
        late[0] = False
        if not late.any():
            return r
        r[late] += 1
        if not graph.is_valid_retiming(r):
            return None
    return None


@pytest.fixture(scope="module")
def circuits():
    """``(name, circuit)`` of the Table I rows at scale 0.008 and of
    the small tier."""
    found = [(row.name, table1_circuit(row.name, scale=0.008, seed=0))
             for row in TABLE1_ROWS]
    found += [(spec.name, corpus_circuit("small", spec.name))
              for spec in tier_specs("small")]
    assert len(found) == 21 + 12
    return found


def probed_periods(graph, setup, monkeypatch):
    """``(phi_min, every period min_period_retiming probes)``."""
    periods: list[float] = []
    original = minperiod.feasible_retiming

    def recording(g, phi, *args, **kwargs):
        periods.append(phi)
        return original(g, phi, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(minperiod, "feasible_retiming", recording)
        phi_min, _ = min_period_retiming(graph, setup, TOL)
    return phi_min, periods


class TestFeasAgainstReference:
    def test_every_probe_matches(self, circuits, monkeypatch):
        compared = 0
        for name, circuit in circuits:
            setup = circuit.library.setup_time
            graph = RetimingGraph.from_circuit(circuit)
            phi_min, periods = probed_periods(graph, setup, monkeypatch)
            assert periods, name
            # The cache is warm now: every probe below reads it.
            for phi in [phi_min, phi_min - TOL, phi_min + TOL, *periods]:
                got = feasible_retiming(graph, phi, setup)
                want = reference_feas(graph, phi, setup)
                if want is None:
                    assert got is None, (name, phi)
                else:
                    assert got is not None, (name, phi)
                    assert got.tolist() == want.tolist(), (name, phi)
                compared += 1
            assert feasible_retiming(graph, phi_min, setup) is not None
        assert compared > 33 * 5

    def test_register_free_cycle_fails_every_probe(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge("__host__", "a", 0, src_net="pi")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        g.add_edge("b", "__host__", 0, tag=("po", 0))
        for phi in (0.5, 2.0, 100.0, 2.0):
            assert feasible_retiming(g, phi) is None
            with pytest.raises(RetimingError):
                g.zero_arrivals()
        with pytest.raises(InfeasibleError):
            min_period_retiming(g)


class TestZeroArrivalsCache:
    def test_one_zero_pass_per_graph(self, circuits, monkeypatch):
        zero_passes: list[RetimingGraph] = []
        original = timing.arrival_times

        def counting(graph, r):
            if not np.asarray(r).any():
                zero_passes.append(graph)
            return original(graph, r)

        monkeypatch.setattr(timing, "arrival_times", counting)
        monkeypatch.setattr(minperiod, "arrival_times", counting)
        for name, circuit in circuits:
            zero_passes.clear()
            graph = RetimingGraph.from_circuit(circuit)
            min_period_retiming(graph, circuit.library.setup_time)
            assert len(zero_passes) == 1, name
            # The setup+hold search reuses the same pass.
            try:
                setup_hold.min_period_setup_hold(
                    graph, circuit.library.setup_time,
                    circuit.library.hold_time)
            except InfeasibleError:
                pass
            assert len(zero_passes) == 1, name

    def test_edits_after_a_probe_give_fresh_arrivals(self):
        g = RetimingGraph()
        g.add_vertex("a", 3.0)
        g.add_vertex("b", 2.0)
        g.add_edge("__host__", "a", 0, src_net="pi")
        g.add_edge("a", "b", 1)
        g.add_edge("b", "__host__", 0, tag=("po", 0))
        assert feasible_retiming(g, 3.0) is not None
        assert g.zero_arrivals().tolist() == [0.0, 3.0, 2.0]
        # A vertex alone changes the vector's length.
        g.add_vertex("c", 4.0)
        assert g.zero_arrivals().tolist() == [0.0, 3.0, 2.0, 4.0]
        # An edge makes c's path register-free through b.
        g.add_edge("b", "c", 0)
        g.add_edge("c", "__host__", 0, tag=("po", 1))
        zero = g.zero_retiming()
        assert g.zero_arrivals().tolist() == \
            arrival_times(g, zero).tolist() == [0.0, 3.0, 2.0, 6.0]
        assert feasible_retiming(g, 3.0) is None
        assert feasible_retiming(g, 6.0).tolist() == \
            reference_feas(g, 6.0).tolist()
        # A register-free cycle added after a probe fails later probes.
        g.add_edge("c", "b", 0)
        assert feasible_retiming(g, 100.0) is None


def reference_initialize(graph, setup, hold, epsilon=0.10):
    """Sec. V as it was before Phi_min was shared: the fallback runs its
    own min-period search."""
    try:
        phi_base, r0 = setup_hold.min_period_setup_hold(graph, setup, hold)
        phi = phi_base * (1.0 + epsilon)
        used_fallback = False
    except InfeasibleError:
        used_fallback = True
        phi_base, r0 = min_period_retiming(graph, setup)
        phi = phi_base * (1.0 + epsilon)
        improved = setup_hold.best_effort_hold(graph, phi, setup, hold, r0)
        problem = Problem(graph=graph, phi=phi, setup=setup, hold=hold,
                          rmin=0.0,
                          b=np.zeros(graph.n_vertices, dtype=np.int64))
        if check_constraints(problem, improved) is None:
            r0 = improved
    rmin = min_register_path(graph, r0, phi, setup, hold)
    return InitialRetiming(r0=np.asarray(r0, dtype=np.int64), phi=phi,
                           rmin=rmin, phi_base=phi_base,
                           used_fallback=used_fallback)


class TestPhiMinSearchedOnce:
    @pytest.mark.parametrize("row", ["b14_1_opt", "b18_opt", "s13207"])
    def test_one_search_and_unchanged_result(self, row, monkeypatch):
        circuit = table1_circuit(row, scale=0.008, seed=0)
        setup = circuit.library.setup_time
        hold = circuit.library.hold_time
        want = reference_initialize(RetimingGraph.from_circuit(circuit),
                                    setup, hold)
        calls: list[float] = []
        original = minperiod.min_period_retiming

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result[0])
            return result

        for module in (minperiod, setup_hold, initialization):
            if hasattr(module, "min_period_retiming"):
                monkeypatch.setattr(module, "min_period_retiming", counting)
        got = initialize(RetimingGraph.from_circuit(circuit), setup, hold)
        assert got.used_fallback == want.used_fallback
        if row != "s13207":
            assert got.used_fallback
        assert len(calls) == 1
        assert got.r0.tolist() == want.r0.tolist()
        assert (got.phi, got.rmin, got.phi_base) == \
            (want.phi, want.rmin, want.phi_base)
