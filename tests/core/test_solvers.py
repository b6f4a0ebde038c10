"""End-to-end tests of the MinObs / MinObsWin solvers against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import Problem, check_constraints, gains
from repro.core.initialization import initialize
from repro.core.minobs import minobs_retiming
from repro.core.minobswin import minobswin_retiming
from repro.core.oracle import brute_force_optimum, lp_minobs_optimum
from repro.errors import InfeasibleError
from repro.graph.retiming_graph import RetimingGraph
from repro.sim.odc import observability
from tests.conftest import tiny_random


def make_problem(seed: int, n_gates: int = 6, n_dffs: int = 3,
                 maximal_start: bool = False):
    circuit = tiny_random(seed, n_gates=n_gates, n_dffs=n_dffs)
    graph = RetimingGraph.from_circuit(circuit)
    obs = observability(circuit, n_frames=4, n_patterns=64, seed=1).obs
    counts = {net: int(round(value * 64)) for net, value in obs.items()}
    init = initialize(graph, 0.0, 2.0, maximal_start=maximal_start)
    problem = Problem(graph=graph, phi=init.phi, setup=0.0, hold=2.0,
                      rmin=init.rmin, b=gains(graph, counts))
    return circuit, graph, problem, init


class TestBasicBehaviour:
    def test_result_is_feasible(self):
        _, graph, problem, init = make_problem(1)
        result = minobswin_retiming(problem, init.r0)
        graph.validate_retiming(result.r)
        assert check_constraints(problem, result.r) is None

    def test_never_worse_than_start(self):
        for seed in range(6):
            _, _, problem, init = make_problem(seed)
            result = minobswin_retiming(problem, init.r0)
            assert result.objective >= problem.objective(init.r0)

    def test_moves_only_forward(self):
        """Both solvers only decrease r (forward register motion)."""
        for seed in range(6):
            _, _, problem, init = make_problem(seed)
            result = minobswin_retiming(problem, init.r0)
            assert np.all(result.r <= init.r0)

    def test_infeasible_start_rejected(self):
        _, graph, problem, init = make_problem(1)
        bad = init.r0.copy()
        bad[1] -= 50
        with pytest.raises((InfeasibleError, Exception)):
            minobswin_retiming(problem, bad)

    def test_minobs_ignores_p2(self):
        """MinObs == MinObsWin with an impossible R_min disabled."""
        _, _, problem, init = make_problem(2)
        tight = Problem(graph=problem.graph, phi=problem.phi, setup=0.0,
                        hold=2.0, rmin=1e9, b=problem.b)
        res = minobs_retiming(tight, init.r0)
        # MinObs never even evaluates rmin; it must still run and match
        # the relaxed-problem result.
        relaxed = Problem(graph=problem.graph, phi=problem.phi, setup=0.0,
                          hold=2.0, rmin=0.0, b=problem.b)
        res2 = minobs_retiming(relaxed, init.r0)
        assert res.objective == res2.objective

    def test_trace_recorded(self):
        _, _, problem, init = make_problem(3)
        result = minobswin_retiming(problem, init.r0, keep_trace=True)
        assert result.iterations >= 1
        kinds = {t[0] for t in result.trace}
        assert kinds <= {"commit", "constraint"}

    def test_jump_and_unit_commits_agree(self):
        for seed in range(5):
            _, _, problem, init = make_problem(seed, n_gates=10, n_dffs=5)
            fast = minobswin_retiming(problem, init.r0, jump=True)
            slow = minobswin_retiming(problem, init.r0, jump=False)
            assert fast.objective == slow.objective

    def test_restart_never_hurts(self):
        for seed in range(5):
            _, _, problem, init = make_problem(seed, n_gates=10, n_dffs=5)
            with_restart = minobswin_retiming(problem, init.r0,
                                              restart=True)
            single = minobswin_retiming(problem, init.r0, restart=False)
            assert with_restart.objective >= single.objective


class TestAgainstBruteForce:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 40))
    def test_minobswin_matches_decrease_only_optimum(self, seed):
        """Theorem 2 (restricted to the solver's move set): the solver
        reaches the best retiming reachable by decreases from the start."""
        _, _, problem, init = make_problem(seed)
        result = minobswin_retiming(problem, init.r0)
        try:
            _, best = brute_force_optimum(problem, base=init.r0,
                                          radius=4, decreases_only=True)
        except (InfeasibleError, MemoryError):
            return
        assert result.objective == best

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 40))
    def test_minobs_matches_decrease_only_optimum(self, seed):
        _, _, problem, init = make_problem(seed)
        result = minobs_retiming(problem, init.r0)
        try:
            _, best = brute_force_optimum(problem, base=init.r0,
                                          radius=4, decreases_only=True,
                                          skip_p2=True)
        except (InfeasibleError, MemoryError):
            return
        assert result.objective == best


class TestAgainstLp:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 30))
    def test_minobs_from_maximal_start_matches_lp(self, seed):
        """On 8-gate random circuits, MinObs from the pointwise-maximal
        feasible start matches the LP of [17] on the no-P2' relaxation.

        The lattice argument makes an exact decrease-only descent
        optimal there; the solver's pins can stop it short on larger
        circuits (four small-tier corpus circuits miss the LP optimum,
        docs/algorithm.md Sec. 5), so this covers tiny circuits only."""
        from repro.core.initialization import maximal_feasible_retiming

        circuit = tiny_random(seed, n_gates=8, n_dffs=4)
        graph = RetimingGraph.from_circuit(circuit)
        obs = observability(circuit, n_frames=4, n_patterns=64, seed=1).obs
        counts = {n: int(round(v * 64)) for n, v in obs.items()}
        init = initialize(graph, 0.0, 2.0)
        # No-P2' instance: rmin 0 so P2 cannot bind.
        problem = Problem(graph=graph, phi=init.phi, setup=0.0, hold=2.0,
                          rmin=0.0, b=gains(graph, counts))
        r_max = maximal_feasible_retiming(problem)
        assert r_max is not None
        result = minobs_retiming(problem, r_max)
        _, lp_best = lp_minobs_optimum(problem)
        assert result.objective == lp_best
