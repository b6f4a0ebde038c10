"""Sec. VI claim: the forest engine solves the MinObs problem of [17].

The paper argues its regular-forest MinObs is the same optimization the
LP of [17] solves, just faster and smaller.  This benchmark runs both on
the same random instances -- the incremental engine (from the
pointwise-maximal start, where an exact decrease-only descent is globally
optimal on the no-P2' relaxation; the solver's pins can stop it short on
some corpus circuits, docs/algorithm.md Sec. 5) and the W/D-matrix LP --
asserts the objectives agree exactly, and compares runtimes.
"""

import numpy as np
import pytest

from repro.circuits import random_sequential_circuit
from repro.core.constraints import Problem, gains
from repro.core.initialization import initialize, maximal_feasible_retiming
from repro.core.minobs import minobs_retiming
from repro.core.oracle import lp_minobs_optimum
from repro.graph.retiming_graph import RetimingGraph
from repro.sim.odc import observability

from .conftest import once


def _instance(seed: int, n_gates: int):
    circuit = random_sequential_circuit(
        f"lpcmp{seed}", n_gates=n_gates, n_dffs=max(8, n_gates // 3),
        n_inputs=8, n_outputs=8, seed=seed)
    graph = RetimingGraph.from_circuit(circuit)
    obs = observability(circuit, n_frames=5, n_patterns=128, seed=1).obs
    counts = {net: int(round(v * 128)) for net, v in obs.items()}
    init = initialize(graph, 0.0, 2.0)
    problem = Problem(graph=graph, phi=init.phi, setup=0.0, hold=2.0,
                      rmin=0.0, b=gains(graph, counts))
    r_max = maximal_feasible_retiming(problem)
    return problem, r_max


@pytest.fixture(scope="module", params=[3, 11, 27])
def instance(request):
    problem, r_max = _instance(request.param, n_gates=160)
    if r_max is None:
        pytest.skip("no maximal start on this instance")
    return problem, r_max


def test_forest_engine(benchmark, instance):
    problem, r_max = instance
    result = once(benchmark, minobs_retiming, problem, r_max)
    _, lp_best = lp_minobs_optimum(problem)
    assert result.objective == lp_best, \
        "forest engine must match the LP of [17] exactly"


def test_lp_reference(benchmark, instance):
    problem, r_max = instance
    r_lp, lp_best = once(benchmark, lp_minobs_optimum, problem)
    problem.graph.validate_retiming(r_lp)
    assert problem.objective(r_lp) == lp_best
