"""Tests for hand-built circuits and the Table I suite."""

import numpy as np
import pytest

from repro.circuits.small import (
    figure1_circuit,
    simple_feedback_circuit,
    toy_correlator,
)
from repro.circuits.suites import (
    TABLE1_ROWS,
    table1_circuit,
    table1_suite,
)
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist import validate_circuit


class TestSmallCircuits:
    def test_all_well_formed(self):
        for circuit in (figure1_circuit(), simple_feedback_circuit(),
                        toy_correlator()):
            validate_circuit(circuit)
            assert RetimingGraph.from_circuit(circuit).cycles_have_registers()

    def test_figure1_shape(self):
        c = figure1_circuit(depth=3)
        assert c.n_dffs == 2
        assert "F" in c.gates and c.gates["F"].op == "AND"
        # side observation paths exist
        assert "hA" in c.outputs and "hB" in c.outputs

    def test_figure1_reproduces_the_tradeoff(self):
        """The full Fig. 1 story: MinObs merges and SER worsens;
        MinObsWin's P2' refuses and SER is preserved."""
        from repro.core.constraints import Problem, gains
        from repro.graph.timing import min_register_path
        from repro.core.minobs import minobs_retiming
        from repro.core.minobswin import minobswin_retiming
        from repro.pipeline import rebuild_retimed
        from repro.ser.analysis import analyze_ser
        from repro.sim.odc import observability

        c = figure1_circuit()
        g = RetimingGraph.from_circuit(c)
        obs = observability(c, n_frames=6, n_patterns=256, seed=3).obs
        phi = 20.0
        r0 = g.zero_retiming()
        rmin = min_register_path(g, r0, phi, 0.0, 2.0)
        counts = {k: int(round(v * 256)) for k, v in obs.items()}
        problem = Problem(graph=g, phi=phi, setup=0.0, hold=2.0,
                          rmin=rmin, b=gains(g, counts))
        ser0 = analyze_ser(c, phi, 0.0, 2.0, obs=obs)

        res_obs = minobs_retiming(problem, r0)
        res_win = minobswin_retiming(problem, r0)
        # MinObs moves the register pair forward through F.
        assert res_obs.r[g.index["F"]] == -1
        # MinObsWin refuses: the merged register would sit R_min-close
        # to the latch behind G.
        assert np.all(res_win.r == 0)

        ser_obs = analyze_ser(rebuild_retimed(c, g, res_obs.r), phi,
                              0.0, 2.0, obs=obs)
        ser_win = analyze_ser(rebuild_retimed(c, g, res_win.r), phi,
                              0.0, 2.0, obs=obs)
        assert ser_obs.total > ser0.total    # logic-only retiming hurts
        assert ser_win.total == pytest.approx(ser0.total)

    def test_figure1_elw_grows_by_one(self):
        """The '+1' of Fig. 1: the move grows |ELW(A)| by d(NOT) = 1."""
        from repro.core.elw import circuit_elws
        from repro.pipeline import rebuild_retimed

        c = figure1_circuit()
        g = RetimingGraph.from_circuit(c)
        phi = 20.0
        before = circuit_elws(c, phi, 0.0, 2.0)
        r = g.zero_retiming()
        r[g.index["F"]] = -1
        after = circuit_elws(rebuild_retimed(c, g, r), phi, 0.0, 2.0)
        for side in ("A", "B"):
            assert after[side].measure == pytest.approx(
                before[side].measure + 1.0)


class TestTable1Suite:
    def test_rows_complete(self):
        assert len(TABLE1_ROWS) == 21
        names = [row.name for row in TABLE1_ROWS]
        assert "s38417" in names and "b19" in names
        assert all(row.edges > row.vertices for row in TABLE1_ROWS)

    def test_circuit_matches_row_ratios(self):
        row = next(r for r in TABLE1_ROWS if r.name == "s35932")
        c = table1_circuit("s35932", scale=0.02)
        target_gates = round(row.vertices * 0.02)
        assert abs(c.n_gates - target_gates) / target_gates < 0.25
        ff_ratio = row.registers / row.vertices
        assert c.n_dffs / c.n_gates == pytest.approx(ff_ratio, rel=0.3)
        validate_circuit(c)

    def test_suite_subset(self):
        suite = table1_suite(scale=0.005, names=("s13207", "b14_opt"))
        assert set(suite) == {"s13207", "b14_opt"}
        for circuit in suite.values():
            validate_circuit(circuit)

    def test_deterministic(self):
        a = table1_circuit("b15_opt", scale=0.005)
        b = table1_circuit("b15_opt", scale=0.005)
        assert a.stats() == b.stats()

    def test_distinct_rows_distinct_circuits(self):
        a = table1_circuit("b14_opt", scale=0.005)
        b = table1_circuit("b14_1_opt", scale=0.005)
        assert a.stats() != b.stats()
