"""The incremental constraint checker against the full pass.

Every hold-repair walk and both solvers diagnose through one
:func:`repro.core.constraints.checker`; :func:`find_violations` without
it runs the full label pass and short-path scan, which is the oracle.
Here every diagnosis of every walk and solve on the 12 small-tier
circuits is repeated without the checker and compared field for field,
the rendered note included, together with the checker's short-path set
and critical-path terminals.
"""

from collections import Counter

import numpy as np
import pytest

import repro.core.constraints as constraints
import repro.core.minobswin as minobswin
import repro.retime.setup_hold as setup_hold
from repro.core.constraints import Problem, gains
from repro.core.initialization import initialize
from repro.core.minobs import minobs_retiming
from repro.core.minobswin import minobswin_retiming
from repro.corpus.families import corpus_circuit, tier_specs
from repro.errors import InfeasibleError
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import (IncrementalLabels, critical_path,
                                label_lists, short_register_paths)
from repro.sim.odc import observability

FULL_PASS = constraints.find_violations


def _diagnose(problem, r, delta, skip_p2, labels, limit):
    """The violations, or the :class:`InfeasibleError` raised."""
    try:
        return FULL_PASS(problem, r, delta=delta, skip_p2=skip_p2,
                         labels=labels, limit=limit)
    except InfeasibleError as exc:
        return exc


class Oracle:
    """Stands in for ``find_violations``: answers with the caller's
    checker and asserts that a full pass says the same.  ``mode`` names
    the walk or solver running; ``compared`` counts checked calls per
    mode and verdict."""

    def __init__(self):
        self.mode = None
        self.compared = Counter()

    def __call__(self, problem, r, delta=None, skip_p2=False, labels=None,
                 limit=None):
        got = _diagnose(problem, r, delta, skip_p2, labels, limit)
        if labels is not None:
            want = _diagnose(problem, r, delta, skip_p2, None, limit)
            if isinstance(want, list):
                assert [repr(v) for v in got] == [repr(v) for v in want]
            else:
                assert str(got) == str(want)
            self._check_labels(problem, r, labels)
            verdict = "infeasible" if not isinstance(got, list) \
                else got[0].kind if got else "none"
            self.compared[self.mode, verdict] += 1
        if not isinstance(got, list):
            raise got
        return got

    @staticmethod
    def _check_labels(problem, r, labels):
        graph = problem.graph
        weights = graph.retimed_weights(r)
        if weights.min() < 0:
            return  # P0: the checker did not see this state
        lists = labels.update(weights)  # no change since the diagnosis
        assert lists == label_lists(graph, weights, problem.phi,
                                    problem.setup, problem.hold,
                                    problem.hold_at_outputs)
        _, R, _, rt, _, rsucc = lists
        assert labels.short_paths() == list(short_register_paths(
            graph, weights, R, problem.phi, problem.hold, labels.bound))
        for v in range(1, graph.n_vertices):
            if rt[v] >= 0:
                assert rt[v] == critical_path(rsucc, v)[-1]


@pytest.fixture
def oracle(monkeypatch):
    """Routes every walk's and solver's diagnosis through an
    :class:`Oracle` that knows which walk is running."""
    spy = Oracle()
    for module in (constraints, setup_hold, minobswin):
        monkeypatch.setattr(module, "find_violations", spy)

    def labelled(fn, mode_of):
        def run(*args, **kwargs):
            outer, spy.mode = spy.mode, mode_of(kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                spy.mode = outer
        return run

    monkeypatch.setattr(setup_hold, "repair_constraints", labelled(
        setup_hold.repair_constraints,
        lambda kw: "randomized" if kw.get("rng") is not None
        else "backward" if kw.get("prefer_backward") else "forward"))
    monkeypatch.setattr(setup_hold, "best_effort_hold", labelled(
        setup_hold.best_effort_hold, lambda kw: "best_effort"))
    return spy


def test_every_walk_and_solve_step_equals_the_full_pass(oracle,
                                                        monkeypatch):
    full_passes = Counter()
    full_pass = IncrementalLabels._full_pass

    def counted(self, weights):
        full_passes[id(self)] += 1
        return full_pass(self, weights)

    monkeypatch.setattr(IncrementalLabels, "_full_pass", counted)
    specs = tier_specs("small")
    assert len(specs) == 12
    for spec in specs:
        circuit = corpus_circuit("small", spec.name)
        graph = RetimingGraph.from_circuit(circuit)
        library = circuit.library
        init = initialize(graph, library.setup_time, library.hold_time)
        obs = observability(circuit, n_frames=4, n_patterns=64,
                            seed=0).obs
        counts = {net: int(round(value * 64)) for net, value in obs.items()}
        problem = Problem(graph=graph, phi=init.phi,
                          setup=library.setup_time, hold=library.hold_time,
                          rmin=init.rmin, b=gains(graph, counts))
        for mode, solver in (("minobs", minobs_retiming),
                             ("minobswin", minobswin_retiming)):
            oracle.mode = mode
            assert solver(problem, init.r0).iterations > 0
    modes = {mode for mode, _ in oracle.compared}
    assert modes == {"forward", "backward", "randomized", "best_effort",
                     "minobs", "minobswin"}
    verdicts = {verdict for _, verdict in oracle.compared}
    assert {"P0", "P1", "P2", "none"} <= verdicts
    # Some update outgrew its budget and fell back to a full pass.
    assert any(count > 1 for count in full_passes.values())


def test_labels_built_for_another_bound_are_refused():
    circuit = corpus_circuit("small", "pipe_a")
    graph = RetimingGraph.from_circuit(circuit)
    problem = Problem(graph=graph, phi=100.0, setup=0.0, hold=2.0,
                      rmin=2.0, b=np.zeros(graph.n_vertices, dtype=np.int64))
    with pytest.raises(ValueError):
        constraints.find_violations(problem, graph.zero_retiming(),
                                    labels=constraints.checker(
                                        problem, skip_p2=True))
    assert constraints.find_violations(
        problem, graph.zero_retiming(), skip_p2=True,
        labels=constraints.checker(problem, skip_p2=True)) == []


class TestViolation:
    def test_note_renders_once_on_first_read(self):
        calls = []

        def render(violation):
            calls.append(violation)
            return f"rendered {violation.vertex}"

        lazy = constraints.Violation("P1", 3, 4, 1, vertex=4, note=render)
        assert not calls
        assert lazy.note == "rendered 4" and lazy.note == "rendered 4"
        assert calls == [lazy]

    def test_equality_compares_the_rendered_note(self):
        plain = constraints.Violation("P0", 1, 2, 1, edge=5, note="n")
        lazy = constraints.Violation("P0", 1, 2, 1, edge=5,
                                     note=lambda violation: "n")
        assert plain == lazy
        assert plain != constraints.Violation("P0", 1, 2, 1, edge=5,
                                              note="m")
        assert repr(plain) == repr(lazy)
        assert not hasattr(plain, "__dict__")
