"""Tests for the Sec. V initialization (Phi, R_min, feasible start)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import Problem, check_constraints
from repro.core.initialization import initialize, maximal_feasible_retiming
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import achieved_period, min_register_path
from tests.conftest import tiny_random


class TestInitialize:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_start_is_feasible(self, seed):
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        init = initialize(g, 0.0, 2.0)
        g.validate_retiming(init.r0)
        problem = Problem(graph=g, phi=init.phi, setup=0.0, hold=2.0,
                          rmin=init.rmin,
                          b=np.zeros(g.n_vertices, dtype=np.int64))
        assert check_constraints(problem, init.r0) is None

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_phi_is_relaxed_base(self, seed):
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        init = initialize(g, 0.0, 2.0, epsilon=0.10)
        assert init.phi == pytest.approx(init.phi_base * 1.10)
        # The start must meet the relaxed period.
        assert achieved_period(g, init.r0) <= init.phi + 1e-9

    def test_fallback_preserves_initial_minimum(self, feedback):
        # A register on a feedback loop cannot escape to the outputs, so
        # an absurd hold time forces the fallback path; R_min then
        # preserves the fallback initialization's own minimal
        # register-to-latch path (never below the minimal gate delay,
        # the paper's degenerate choice).
        g = RetimingGraph.from_circuit(feedback)
        init = initialize(g, 0.0, hold=1e6)
        assert init.used_fallback
        sp = min_register_path(g, init.r0, init.phi, 0.0, 1e6)
        assert init.rmin == pytest.approx(sp)
        delays = [d for d in g.delays[1:] if d > 0]
        assert init.rmin >= min(delays) - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 40))
    def test_rmin_matches_min_register_path(self, seed):
        c = tiny_random(seed, n_gates=10, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        init = initialize(g, 0.0, 2.0)
        if init.used_fallback:
            return
        sp = min_register_path(g, init.r0, init.phi, 0.0, 2.0)
        if math.isfinite(sp):
            assert init.rmin == pytest.approx(sp)

    def test_epsilon_zero(self, correlator):
        g = RetimingGraph.from_circuit(correlator)
        init = initialize(g, 0.0, 2.0, epsilon=0.0)
        assert init.phi == pytest.approx(init.phi_base)


class TestMaximalStart:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_maximal_start_feasible_and_dominant(self, seed):
        c = tiny_random(seed, n_gates=8, n_dffs=4)
        g = RetimingGraph.from_circuit(c)
        init = initialize(g, 0.0, 2.0)
        problem = Problem(graph=g, phi=init.phi, setup=0.0, hold=2.0,
                          rmin=0.0,
                          b=np.zeros(g.n_vertices, dtype=np.int64))
        r_max = maximal_feasible_retiming(problem)
        if r_max is None:
            return
        assert check_constraints(problem, r_max) is None
        # Dominates the Sec. V start pointwise (no-P2' lattice maximum).
        assert np.all(r_max >= init.r0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 40))
    def test_maximal_start_dominates_random_feasible(self, seed):
        """Pointwise domination over every feasible point we can find."""
        import itertools

        c = tiny_random(seed, n_gates=6, n_dffs=3)
        g = RetimingGraph.from_circuit(c)
        init = initialize(g, 0.0, 2.0)
        problem = Problem(graph=g, phi=init.phi, setup=0.0, hold=2.0,
                          rmin=0.0,
                          b=np.zeros(g.n_vertices, dtype=np.int64))
        r_max = maximal_feasible_retiming(problem)
        if r_max is None:
            return
        n = g.n_vertices
        r = np.zeros(n, dtype=np.int64)
        count = 0
        for combo in itertools.product(range(-2, 3), repeat=n - 1):
            r[1:] = combo
            if not g.is_valid_retiming(r):
                continue
            if check_constraints(problem, r) is not None:
                continue
            count += 1
            assert np.all(r_max >= r), (r_max, r.copy())
            if count > 500:
                break
