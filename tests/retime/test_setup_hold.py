"""Tests for setup+hold constrained min-period retiming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.retime.setup_hold as setup_hold
from repro import telemetry
from repro.core.constraints import Problem, find_violations
from repro.core.initialization import initialize
from repro.corpus.families import corpus_circuit
from repro.errors import InfeasibleError
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import achieved_period, min_register_path
from repro.retime.minperiod import feasible_retiming, min_period_retiming
from repro.retime.setup_hold import (_backward_fix, _Brent,
                                     min_period_setup_hold,
                                     repair_constraints)
from repro.telemetry.traceview import load_trace
from tests.conftest import tiny_random


def hold_slack(graph, r, hold, phi=10.0):
    """The Lin-Zhou hold check: shortest register-to-register path,
    primary outputs exempt, minus ``T_h`` (period-independent)."""
    return min_register_path(graph, r, phi, 0.0, hold,
                             hold_at_outputs=False) - hold


class TestHoldSlack:
    def test_direct_violation(self):
        g = RetimingGraph()
        g.add_vertex("fast", 1.0)
        g.add_vertex("sink", 3.0)
        g.add_edge("__host__", "fast", 1, src_net="pi")
        g.add_edge("fast", "sink", 1)
        g.add_edge("sink", "__host__", 0, tag=("po", 0))
        # register -> fast(d=1) -> register: path 1, hold 2 -> slack -1.
        assert hold_slack(g, g.zero_retiming(), hold=2.0) == \
            pytest.approx(-1.0)

    def test_po_paths_exempt(self):
        g = RetimingGraph()
        g.add_vertex("fast", 1.0)
        g.add_edge("__host__", "fast", 1, src_net="pi")
        g.add_edge("fast", "__host__", 0, tag=("po", 0))
        # register -> fast -> PO: not a hold-checked path.
        assert math.isinf(hold_slack(g, g.zero_retiming(), hold=2.0))

    def test_no_registers(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_edge("__host__", "a", 0, src_net="pi")
        g.add_edge("a", "__host__", 0, tag=("po", 0))
        assert math.isinf(hold_slack(g, g.zero_retiming(), hold=2.0))


class TestMinPeriodSetupHold:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_result_meets_both_constraints(self, seed):
        c = tiny_random(seed, n_gates=12, n_dffs=5)
        g = RetimingGraph.from_circuit(c)
        try:
            phi_sh, r = min_period_setup_hold(g, 0.0, 2.0)
        except InfeasibleError:
            return
        g.validate_retiming(r)
        assert achieved_period(g, r) <= phi_sh + 1e-6
        assert hold_slack(g, r, 2.0, phi_sh) >= -1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_phi_sh_at_least_phi_min(self, seed):
        c = tiny_random(seed, n_gates=12, n_dffs=5)
        g = RetimingGraph.from_circuit(c)
        phi_min, _ = min_period_retiming(g)
        try:
            phi_sh, _ = min_period_setup_hold(g, 0.0, 2.0)
        except InfeasibleError:
            return
        assert phi_sh >= phi_min - 1e-6

    def test_impossible_hold_raises(self, feedback):
        g = RetimingGraph.from_circuit(feedback)
        with pytest.raises(InfeasibleError):
            min_period_setup_hold(g, 0.0, hold=1e6)


# ----------------------------------------------------------------------
# The repair walk against the loop it replaced
# ----------------------------------------------------------------------

def reference_walk(problem, r, max_steps=None, allow_backward=False,
                   prefer_backward=False, rng=None, trail=None):
    """The repair loop with a full label pass per step and no cycle
    exit, kept as the specification.  ``trail`` receives every loop
    state ``(r, checkpoint, checkpoint edge)`` as bytes."""
    graph = problem.graph
    r = np.asarray(r, dtype=np.int64).copy()
    if max_steps is None:
        max_steps = 40 * graph.n_vertices + 200
    checkpoint = None
    checkpoint_violation = None
    for _ in range(max_steps):
        if trail is not None:
            trail.append((r.tobytes(), None if checkpoint is None
                          else checkpoint.tobytes(),
                          None if checkpoint_violation is None
                          else checkpoint_violation.edge))
        violations = find_violations(problem, r)
        if not violations:
            return r
        if rng is not None:
            pick = int(rng.integers(0, len(violations)))
            violations = [violations[pick]]
        unfixable = next((v for v in violations if not v.fixable), None)
        if unfixable is None:
            if allow_backward and violations[0].kind == "P2":
                go_backward = prefer_backward if rng is None \
                    else bool(rng.random() < 0.5)
                if go_backward and violations[0].edge is not None:
                    fixed = _backward_fix(graph, r, violations[0].edge)
                    if fixed is not None:
                        r = fixed
                        continue
                checkpoint = r.copy()
                checkpoint_violation = violations[0]
            needed = {}
            for violation in violations:
                needed[violation.q] = max(needed.get(violation.q, 0),
                                          violation.deficit)
            for q, deficit in needed.items():
                r[q] -= deficit
            continue
        if allow_backward and unfixable.kind == "P2" and \
                unfixable.edge is not None:
            fixed = _backward_fix(graph, r, unfixable.edge)
            if fixed is not None:
                r = fixed
                continue
        if allow_backward and checkpoint is not None:
            r = checkpoint
            checkpoint = None
            fixed = _backward_fix(graph, r, checkpoint_violation.edge)
            if fixed is not None:
                r = fixed
                checkpoint_violation = None
                continue
        return None
    return None


def hold_probe(graph, phi, setup=0.0, hold=2.0):
    """The hold problem and setup-feasible seed of one Phi_sh probe."""
    problem = Problem(graph=graph, phi=phi, setup=setup, hold=hold,
                      rmin=hold, b=np.zeros(graph.n_vertices,
                                            dtype=np.int64),
                      hold_at_outputs=False)
    return problem, feasible_retiming(graph, phi, setup)


@pytest.fixture(scope="module")
def pipe_b():
    """The small-tier pipeline whose Phi_min hold probe cycles."""
    circuit = corpus_circuit("small", "pipe_b")
    graph = RetimingGraph.from_circuit(circuit)
    phi, _ = min_period_retiming(graph, circuit.library.setup_time)
    return circuit, graph, phi


def count_checks(monkeypatch):
    """Counts the walk's checks: ``find_violations`` as the walk's own
    module resolves it."""
    calls = [0]
    inner = setup_hold.find_violations

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(setup_hold, "find_violations", counted)
    return calls


def assert_same_walk(problem, start, budget, allow_backward,
                     prefer_backward, rng_seed):
    """``repair_constraints`` returns what :func:`reference_walk` does,
    with equally seeded generators."""
    results = []
    for walk in (repair_constraints, reference_walk):
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        results.append(walk(problem, start, max_steps=budget,
                            allow_backward=allow_backward,
                            prefer_backward=prefer_backward, rng=rng))
    got, want = results
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tobytes() == want.tobytes()


class TestRepairWalk:
    def test_brent_reports_the_first_repeat_within_bound(self):
        """States ``0 .. mu-1`` then a cycle of length ``lam``: the
        detector fires at a repeated state, after at most 4 (mu + lam)
        states, and never on a run of distinct states."""
        for mu in range(12):
            for lam in range(1, 12):
                detector = _Brent()
                states = [i if i < mu else mu + (i - mu) % lam
                          for i in range(8 * (mu + lam))]
                fired = next(i for i, state in enumerate(states)
                             if detector.repeats(state))
                assert states[fired] in states[:fired]
                assert fired <= 4 * (mu + lam)
        detector = _Brent()
        assert not any(detector.repeats(i) for i in range(1000))

    def test_cycling_walk_stops_within_four_cycle_lengths(self, pipe_b,
                                                          monkeypatch):
        circuit, graph, phi = pipe_b
        problem, seed = hold_probe(graph, phi, circuit.library.setup_time,
                                   circuit.library.hold_time)
        budget = 6 * graph.n_vertices + 200
        trail = []
        assert reference_walk(problem, seed, max_steps=budget,
                              allow_backward=True, trail=trail) is None
        first_seen = {}
        for step, state in enumerate(trail):
            if state in first_seen:
                mu = first_seen[state]
                lam = step - mu
                break
            first_seen[state] = step
        else:
            pytest.fail("the reference walk never repeats a state")
        assert len(trail) == budget  # the parent loop spends it all
        calls = count_checks(monkeypatch)
        assert repair_constraints(problem, seed, max_steps=budget,
                                  allow_backward=True) is None
        assert 0 < calls[0] <= 4 * (mu + lam) < budget

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 200),
           hold=st.sampled_from((2.0, 3.0, 4.0)),
           phi_scale=st.sampled_from((1.0, 1.5)),
           allow_backward=st.booleans(), prefer_backward=st.booleans(),
           rng_seed=st.one_of(st.none(), st.integers(0, 3)),
           budget=st.sampled_from((None, 40)))
    def test_walk_equals_reference_loop(self, seed, hold, phi_scale,
                                        allow_backward, prefer_backward,
                                        rng_seed, budget):
        g = RetimingGraph.from_circuit(tiny_random(seed, n_gates=12,
                                                   n_dffs=5))
        phi_min, _ = min_period_retiming(g)
        problem, start = hold_probe(g, phi_min * phi_scale, hold=hold)
        if start is not None:
            assert_same_walk(problem, start, budget, allow_backward,
                             prefer_backward, rng_seed)

    def test_every_exit_equals_reference_loop(self, tmp_path):
        """A seeded sweep that reaches all four exits, deterministic and
        randomized walks alike."""
        path = tmp_path / "trace.jsonl"
        tracer = telemetry.Tracer(path)
        try:
            with telemetry.installed(tracer):
                for seed in range(8):
                    g = RetimingGraph.from_circuit(tiny_random(
                        seed, n_gates=16, n_dffs=8))
                    phi_min, _ = min_period_retiming(g)
                    problem, start = hold_probe(g, phi_min, hold=4.0)
                    for allow_backward in (False, True):
                        for prefer_backward in (False, True):
                            for rng_seed in (None, 0):
                                assert_same_walk(problem, start, None,
                                                 allow_backward,
                                                 prefer_backward, rng_seed)
        finally:
            tracer.close()
        exits = {(e["attrs"]["exit"], e["attrs"]["randomized"])
                 for e in load_trace(path).events}
        assert {("converged", False), ("unfixable", False),
                ("cycle", False), ("budget", True)} <= exits

    def test_traced_initialize_reports_walk_exits(self, pipe_b, tmp_path):
        circuit, graph, _ = pipe_b
        path = tmp_path / "trace.jsonl"
        tracer = telemetry.Tracer(path)
        try:
            with telemetry.installed(tracer):
                initialize(graph, circuit.library.setup_time,
                           circuit.library.hold_time)
        finally:
            tracer.close()
        walks = [e["attrs"] for e in load_trace(path).events
                 if e["name"] == "repair.walk"]
        assert walks
        assert {w["exit"] for w in walks} <= {"converged", "unfixable",
                                              "cycle", "budget"}
        assert any(w["exit"] == "cycle" and not w["randomized"]
                   for w in walks)
        assert all(w["steps"] >= 1 for w in walks)
