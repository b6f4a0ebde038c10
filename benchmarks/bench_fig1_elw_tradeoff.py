"""Figure 1 reproduction: retiming's impact on ELWs and SER.

Regenerates the paper's Fig. 1 observation as measurable quantities: the
MinObs register merge reduces register observability but grows every
upstream ELW by d(NOT) = 1 and worsens total SER, while MinObsWin's P2'
rejects the move.  The benchmark times the two solvers on the Fig. 1
circuit and asserts the qualitative shape.
"""

import numpy as np
import pytest

from repro.circuits import figure1_circuit
from repro.core.constraints import Problem, gains, register_observability
from repro.core.elw import circuit_elws
from repro.core.minobs import minobs_retiming
from repro.core.minobswin import minobswin_retiming
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import min_register_path
from repro.pipeline import rebuild_retimed
from repro.ser.analysis import analyze_ser
from repro.sim.odc import observability

from .conftest import once

PHI, SETUP, HOLD = 20.0, 0.0, 2.0


@pytest.fixture(scope="module")
def fig1_instance():
    circuit = figure1_circuit(depth=4)
    graph = RetimingGraph.from_circuit(circuit)
    obs = observability(circuit, n_frames=6, n_patterns=256, seed=3).obs
    counts = {net: int(round(v * 256)) for net, v in obs.items()}
    rmin = min_register_path(graph, graph.zero_retiming(), PHI, SETUP,
                             HOLD)
    problem = Problem(graph=graph, phi=PHI, setup=SETUP, hold=HOLD,
                      rmin=rmin, b=gains(graph, counts))
    return circuit, graph, obs, problem


def test_fig1_minobs_merges_and_worsens_ser(benchmark, fig1_instance):
    circuit, graph, obs, problem = fig1_instance
    r0 = graph.zero_retiming()
    result = once(benchmark, minobs_retiming, problem, r0)

    assert result.r[graph.index["F"]] == -1, "MinObs must merge through F"
    assert register_observability(graph, result.r, obs) < \
        register_observability(graph, r0, obs)

    before = circuit_elws(circuit, PHI, SETUP, HOLD)
    retimed = rebuild_retimed(circuit, graph, result.r)
    after = circuit_elws(retimed, PHI, SETUP, HOLD)
    for side in ("A", "B"):
        grown = after[side].measure - before[side].measure
        assert grown == pytest.approx(1.0), \
            f"ELW({side}) must grow by exactly 1 (paper Fig. 1)"

    ser0 = analyze_ser(circuit, PHI, SETUP, HOLD, obs=obs).total
    ser1 = analyze_ser(retimed, PHI, SETUP, HOLD, obs=obs).total
    print(f"\n[fig1] SER original {ser0:.4e} -> MinObs {ser1:.4e} "
          f"({100 * (ser1 / ser0 - 1):+.1f}%)")
    assert ser1 > ser0, "the Fig. 1 move must worsen total SER"


def test_fig1_minobswin_refuses(benchmark, fig1_instance):
    circuit, graph, obs, problem = fig1_instance
    r0 = graph.zero_retiming()
    result = once(benchmark, minobswin_retiming, problem, r0)
    assert np.all(result.r == 0), \
        "P2' must reject the ELW-growing merge"
    retimed = rebuild_retimed(circuit, graph, result.r)
    ser0 = analyze_ser(circuit, PHI, SETUP, HOLD, obs=obs).total
    ser1 = analyze_ser(retimed, PHI, SETUP, HOLD, obs=obs).total
    assert ser1 == pytest.approx(ser0)
    print(f"\n[fig1] MinObsWin keeps SER at {ser1:.4e}")
