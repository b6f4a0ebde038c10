"""Solver-iteration telemetry invariants (ISSUE 5 satellite).

With a tracer installed, :func:`minobswin_retiming` emits one
``solver.iteration`` span per counted main-loop iteration plus one
enclosing ``solve`` span.  The spans must agree with the solver's own
accounting: span count == ``result.iterations``, the per-iteration
``objective`` attribute is monotone (larger-is-better objective, and
only feasible gain-commits ever change it), and the committed-gain
reconstruction from ``keep_trace`` lands on the same final objective.
Each iteration's phase times (select / diagnose / update) fit inside its
span, and the ``solve`` span counts the forest DP's vertex evaluations,
the pinned trees by cause and the checker's updates and full passes.
"""

import json

import pytest

from repro.circuits import random_sequential_circuit
from repro.core.constraints import Problem, gains
from repro.core.initialization import initialize
from repro.core.minobswin import minobswin_retiming
from repro.graph.retiming_graph import RetimingGraph
from repro.sim.odc import observability
from repro.telemetry import Tracer
from repro.telemetry import spans as telemetry

CIRCUITS = ("tele-a", "tele-b", "tele-c")


def build(name):
    circuit = random_sequential_circuit(
        name, n_gates=50, n_dffs=15, n_inputs=5, n_outputs=5,
        seed=sum(map(ord, name)))
    graph = RetimingGraph.from_circuit(circuit)
    obs = observability(circuit, n_frames=4, n_patterns=64, seed=1).obs
    counts = {n: int(round(v * 64)) for n, v in obs.items()}
    init = initialize(graph, 0.0, circuit.library.hold_time)
    problem = Problem(graph=graph, phi=init.phi, setup=0.0,
                      hold=circuit.library.hold_time, rmin=init.rmin,
                      b=gains(graph, counts))
    return problem, init


def traced_solve(tmp_path, name, **kwargs):
    path = tmp_path / f"{name}.jsonl"
    problem, init = build(name)
    tracer = Tracer(path)
    with telemetry.installed(tracer):
        result = minobswin_retiming(problem, init.r0, keep_trace=True,
                                    **kwargs)
    tracer.close()
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    return problem, init, result, records


@pytest.mark.parametrize("name", CIRCUITS)
class TestSolverIterationSpans:
    def test_span_count_matches_iteration_count(self, tmp_path, name):
        _, _, result, records = traced_solve(tmp_path, name)
        iteration_spans = [r for r in records if r["type"] == "span"
                           and r["name"] == "solver.iteration"]
        assert result.iterations > 0
        assert len(iteration_spans) == result.iterations
        # The i attribute counts 1..iterations in emission order.
        assert [s["attrs"]["i"] for s in iteration_spans] == \
            list(range(1, result.iterations + 1))

    def test_objective_sequence_is_monotone_and_lands_on_result(
            self, tmp_path, name):
        problem, init, result, records = traced_solve(tmp_path, name)
        objectives = [r["attrs"]["objective"] for r in records
                      if r["type"] == "span"
                      and r["name"] == "solver.iteration"]
        start = int(problem.objective(init.r0))
        # objective is larger-is-better; only feasible commits change it.
        assert all(b >= a for a, b in zip(objectives, objectives[1:]))
        assert objectives[0] >= start
        assert objectives[-1] == int(result.objective)

    def test_objective_matches_commit_gain_reconstruction(self, tmp_path,
                                                          name):
        problem, init, result, records = traced_solve(tmp_path, name)
        commit_spans = [r for r in records if r["type"] == "span"
                        and r["name"] == "solver.iteration"
                        and r["attrs"]["action"] == "commit"]
        commit_trace = [e for e in result.trace if e[0] == "commit"]
        assert len(commit_spans) == len(commit_trace)
        running = int(problem.objective(init.r0))
        for span, event in zip(commit_spans, commit_trace):
            running += int(event[1])
            assert span["attrs"]["objective"] == running
        assert running == int(result.objective)

    def test_iteration_phases_fit_in_the_span(self, tmp_path, name):
        _, _, _, records = traced_solve(tmp_path, name)
        iteration_spans = [r for r in records if r["type"] == "span"
                           and r["name"] == "solver.iteration"]
        for span in iteration_spans:
            phases = [span["attrs"][key]
                      for key in ("select_s", "diagnose_s", "update_s")]
            assert min(phases) >= 0.0
            assert sum(phases) <= span["dur"] + 1e-9
        # Only a diagnosing or committing iteration runs the timing pass.
        for span in iteration_spans:
            if span["attrs"]["action"] == "exhausted":
                assert span["attrs"]["diagnose_s"] == 0.0

    def test_solve_span_carries_final_counters(self, tmp_path, name):
        problem, _, result, records = traced_solve(tmp_path, name)
        (solve,) = [r for r in records if r["type"] == "span"
                    and r["name"] == "solve"]
        assert solve["attrs"]["algorithm"] == "minobswin"
        assert solve["attrs"]["iterations"] == result.iterations
        assert solve["attrs"]["commits"] == result.commits
        assert solve["attrs"]["objective"] == int(result.objective)
        # Each pass starts from a fresh forest, whose first selection
        # evaluates every vertex.
        assert solve["attrs"]["forest_evals"] >= \
            result.passes * problem.graph.n_vertices > 0
        # Pinned trees are counted by cause, and the causes sum to the
        # result's blocked count.
        pins = {key: value for key, value in solve["attrs"].items()
                if key.startswith("pins_")}
        assert set(pins) == {"pins_unfixable", "pins_no_mover",
                             "pins_repeat", "pins_implied"}
        assert all(isinstance(n, int) and n >= 0 for n in pins.values())
        assert sum(pins.values()) == result.blocked > 0
        # The checker's updates and the full passes among them (the
        # first update is one).
        updates = solve["attrs"]["checker_updates"]
        full_passes = solve["attrs"]["checker_full_passes"]
        assert isinstance(updates, int) and isinstance(full_passes, int)
        assert 1 <= full_passes <= updates
        # Every iteration span is parented under the solve span.
        for record in records:
            if record["type"] == "span" and \
                    record["name"] == "solver.iteration":
                assert record["parent"] == solve["id"]


class TestTracingOffIdentity:
    def test_traced_and_untraced_solves_agree(self, tmp_path):
        name = CIRCUITS[0]
        problem, init = build(name)
        telemetry.uninstall()
        plain = minobswin_retiming(problem, init.r0)
        _, _, traced, _ = traced_solve(tmp_path, name)
        assert plain.objective == traced.objective
        assert plain.iterations == traced.iterations
        assert plain.commits == traced.commits
        assert (plain.r == traced.r).all()
