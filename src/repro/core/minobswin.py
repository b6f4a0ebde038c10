"""The MinObsWin algorithm (Algorithm 1 of the paper).

Incremental, optimal-in-practice solver for Problem 1: starting from a
feasible retiming, repeatedly select the candidate set ``I = V_P(F)`` from
the weighted regular forest, tentatively decrease ``r`` on ``I`` by the
per-vertex weights, and either

* commit the move (no constraint violated) -- committed updates are the
  paper's iteration count ``#J``; an exponential *jump* multiplier lets a
  single commit move registers as far as feasibility allows, or
* diagnose the first violation into an active constraint (Fig. 2) and
  update the forest (with BreakTree weight updates, Sec. IV-C), or
* pin the moving tree to the host when the violation is unfixable
  (registers would have to cross a primary output -- the paper's
  immediate-exit cases).

A pass ends when no positive tree remains.  Because the forest stores at
most ``|V| - 1`` constraints, a stale constraint could end a pass early;
the solver therefore restarts with a fresh forest until a whole pass
commits nothing (``restart=False`` reproduces the single-pass behaviour).
Optimality is cross-checked against brute force and an LP oracle in the
test suite.

The MinObs baseline of [17] is this same engine with the P2' machinery
disabled -- the paper's own construction ("commenting out Line 9-12 and
19-21"); see :mod:`repro.core.minobs`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeadlineExceeded, InfeasibleError, RetimingError
from ..faultplane.hooks import fault_point, filter_labels
from ..telemetry import REGISTRY, spans as telemetry
from .constraints import (Problem, Violation, check_constraints, checker,
                          find_violations)
from .regular_forest import RegularForest


#: Why a tree was pinned to the host instead of getting a constraint:
#: an unfixable violation, no identified mover, a diagnosis repeated
#: more than three times in a pass, or a constraint the forest already
#: implies.
PIN_CAUSES = ("unfixable", "no_mover", "repeat", "implied")


@dataclass
class RetimingResult:
    """Outcome of a MinObs / MinObsWin run.

    Attributes
    ----------
    r:
        The final retiming labels (host first, ``r[0] == 0``).
    objective:
        Final value of ``sum_v -b(v) r(v)`` (larger is better).
    commits:
        Number of committed retiming updates -- reported as the paper's
        ``#J`` column.
    iterations:
        Total main-loop iterations (tentative checks).
    passes:
        Number of fresh-forest passes run (1 when the first pass finds no
        improvement to make).
    constraints_added:
        Active constraints recorded across all passes.
    blocked:
        Trees pinned to the host instead of getting a constraint, for
        any of the :data:`PIN_CAUSES` (the traced ``solve`` span counts
        each cause).
    runtime:
        Wall-clock seconds.
    trace:
        Optional per-event log (``keep_trace=True``): ``("commit", gain)``
        and ``("constraint", kind, p, q, deficit, outcome)`` tuples,
        ``outcome`` being ``"constraint"`` or the pin cause.
    """

    r: np.ndarray
    objective: int
    commits: int
    iterations: int
    passes: int
    constraints_added: int
    blocked: int
    runtime: float
    trace: list[tuple] = field(default_factory=list)


def minobswin_retiming(problem: Problem, r0: np.ndarray,
                       skip_p2: bool = False, restart: bool = True,
                       jump: bool = True, max_iterations: int | None = None,
                       keep_trace: bool = False,
                       deadline: float | None = None,
                       should_stop: Callable[[], bool] | None = None,
                       ) -> RetimingResult:
    """Solve Problem 1 starting from the feasible retiming ``r0``.

    Parameters
    ----------
    problem:
        The Problem 1 instance (graph, clock, R_min, gains).
    r0:
        A feasible starting retiming (see
        :mod:`repro.core.initialization`); validated before solving.
    skip_p2:
        Disable the P2' (ELW) machinery -- yields the Efficient MinObs
        baseline of [17].
    restart:
        Re-run with a fresh forest until a pass commits nothing.
    jump:
        Use exponential commit multipliers (the committed-update count
        ``#J`` stays logarithmic in the registers moved).
    max_iterations:
        Safety cap; defaults to ``200 |V| + 10000``.
    keep_trace:
        Record the event trace in the result.
    deadline:
        Wall-clock budget in seconds for this call.  Checked once per
        main-loop iteration; on expiry the solver raises
        :class:`~repro.errors.DeadlineExceeded` carrying the best
        feasible retiming found so far (``best_r``) and a partial
        :class:`RetimingResult` (``partial``) -- only feasible moves are
        ever committed, so both are always usable.
    should_stop:
        Cooperative cancellation hook, polled once per iteration; when
        it returns True the solver raises ``DeadlineExceeded`` exactly
        as for an expired ``deadline``.
    """
    graph = problem.graph
    start = time.perf_counter()
    deadline_at = None if deadline is None else start + float(deadline)
    stage = "minobs" if skip_p2 else "minobswin"
    if not skip_p2:
        # The baseline announces itself at its own site (repro.core.minobs).
        fault_point("solve.minobswin", stage=stage)
    r = np.asarray(r0, dtype=np.int64).copy()
    graph.validate_retiming(r)
    # One checker for the whole solve: each diagnosis pays only for the
    # weights that changed since the last valid tentative retiming.
    labels = checker(problem, skip_p2)
    first_violation = check_constraints(problem, r, skip_p2=skip_p2,
                                        labels=labels)
    if first_violation is not None:
        raise InfeasibleError(
            f"initial retiming violates {first_violation.kind}: "
            f"{first_violation.note}")

    if max_iterations is None:
        max_iterations = 200 * graph.n_vertices + 10_000

    forest = RegularForest(problem.b, pinned=0)
    trace: list[tuple] = []
    iterations = commits = passes = constraints_added = blocked = 0
    # Pinned trees by cause (see _apply_violations); they sum to blocked.
    pins = dict.fromkeys(PIN_CAUSES, 0)

    # Solver introspection: one "solve" span around the whole run and a
    # per-iteration span at each of the main loop's exits (exhausted /
    # commit / backoff / diagnose), carrying the objective and counters
    # at that moment and the iteration's phase times: select (the forest
    # DP), diagnose (the timing pass) and update (forest update or
    # commit).  ``tracer`` is bound once; with tracing off each
    # instrumentation point pays a single ``is not None`` test.
    tracer = telemetry.active()

    def _trace_iteration(t0: float, action: str, t_selected: float,
                         t_diagnosed: float) -> None:
        t_end = tracer.now()
        tracer.emit_span("solver.iteration", t0, {
            "i": iterations, "pass": passes, "action": action,
            "objective": int(problem.objective(r)), "commits": commits,
            "constraints": constraints_added, "blocked": blocked,
            "stage": stage, "select_s": t_selected - t0,
            "diagnose_s": t_diagnosed - t_selected,
            "update_s": t_end - t_diagnosed})

    with telemetry.span("solve", algorithm=stage):
        while True:
            passes += 1
            fault_point("solve.pass", stage=stage, passes=passes)
            pass_commits = 0
            forest.reset()
            multiplier = 1
            seen_diagnoses: dict[tuple, int] = {}

            while True:
                iterations += 1
                iter_t0 = tracer.now() if tracer is not None else 0.0
                if iterations > max_iterations:
                    raise RetimingError(
                        f"solver exceeded {max_iterations} iterations; "
                        "this indicates a diagnosis loop (please report)")
                now = time.perf_counter()
                cancelled = should_stop is not None and should_stop()
                if cancelled or (deadline_at is not None
                                 and now > deadline_at):
                    elapsed = now - start
                    partial = RetimingResult(
                        r=r.copy(), objective=problem.objective(r),
                        commits=commits, iterations=iterations,
                        passes=passes,
                        constraints_added=constraints_added,
                        blocked=blocked, runtime=elapsed, trace=trace)
                    reason = "cancelled by should_stop" if cancelled else \
                        f"exceeded its {deadline:g}s deadline"
                    raise DeadlineExceeded(
                        f"{stage} solve {reason} after {elapsed:.3f}s "
                        f"({commits} commits so far)", stage=stage,
                        elapsed=elapsed, best_r=r.copy(), partial=partial)
                delta = forest.positive_delta()
                t_selected = tracer.now() if tracer is not None else 0.0
                if not delta.any():
                    if tracer is not None:
                        _trace_iteration(iter_t0, "exhausted", t_selected,
                                         t_selected)
                    break  # pass exhausted

                move = delta * multiplier
                tentative = r - move
                violations = find_violations(problem, tentative, move,
                                             skip_p2=skip_p2, labels=labels)
                t_diagnosed = tracer.now() if tracer is not None else 0.0
                if not violations:
                    r = tentative
                    commits += 1
                    pass_commits += 1
                    if keep_trace:
                        trace.append(
                            ("commit", int((problem.b * move).sum())))
                    if jump:
                        multiplier *= 2
                    if tracer is not None:
                        _trace_iteration(iter_t0, "commit", t_selected,
                                         t_diagnosed)
                    continue

                if multiplier > 1:
                    # Diagnose at unit step for exact active constraints.
                    multiplier = 1
                    if tracer is not None:
                        _trace_iteration(iter_t0, "backoff", t_selected,
                                         t_diagnosed)
                    continue

                # The whole batch shares one timing pass: every diagnosis
                # is a sound implication for the same tentative move.
                constraints_added += _apply_violations(
                    forest, violations, delta.tolist(), seen_diagnoses,
                    pins, trace if keep_trace else None)
                blocked = sum(pins.values())
                if tracer is not None:
                    _trace_iteration(iter_t0, "diagnose", t_selected,
                                     t_diagnosed)

            if pass_commits == 0 or not restart:
                break

        r = filter_labels("solve.result.labels", r)
        objective = problem.objective(r)
        if tracer is not None:
            tracer.add_attrs(iterations=iterations, commits=commits,
                             passes=passes, objective=int(objective),
                             forest_evals=forest.evaluations,
                             checker_updates=labels.updates,
                             checker_full_passes=labels.full_passes,
                             **{f"pins_{cause}": count
                                for cause, count in pins.items()})
    REGISTRY.counter(
        "solver.iterations",
        help="MinObs/MinObsWin main-loop iterations").inc(iterations)
    REGISTRY.counter(
        "solver.commits",
        help="Committed retiming updates (#J)").inc(commits)
    return RetimingResult(
        r=r, objective=objective, commits=commits, iterations=iterations,
        passes=passes, constraints_added=constraints_added, blocked=blocked,
        runtime=time.perf_counter() - start, trace=trace)


def _apply_violations(forest: RegularForest, violations: list[Violation],
                      moves: list[int], seen: dict[tuple, int],
                      pins: dict[str, int], trace: list[tuple] | None,
                      ) -> int:
    """Update the forest for one batch of diagnosed violations.

    ``moves`` is the tentative move (the forest's selection) as a list.
    Each violation either records an active constraint -- its mover
    ``p`` drags ``q`` by ``deficit`` more than ``moves[q]`` -- or, for a
    move that has to be withdrawn, pins the responsible tree(s) to the
    host and counts the :data:`PIN_CAUSES` entry in ``pins`` (the pin
    guarantees forward progress in all of them).  ``seen`` counts each
    diagnosis over the pass; ``trace``, when given, gets one
    ``("constraint", kind, p, q, deficit, outcome)`` event each.
    Returns the number of constraints recorded.

    Weights are monotone within a pass (``max`` of the stored and newly
    required amounts): BreakTree severs constraints, so oscillating
    weights could otherwise replay the same diagnosis forever.
    """
    weight = forest.weight
    added = 0
    for violation in violations:
        kind = violation.kind
        p = violation.p
        q = violation.q
        deficit = violation.deficit
        key = (kind, p, q, deficit)
        repeat = seen[key] = seen.get(key, 0) + 1
        if not violation.fixable:
            outcome = "unfixable"
        elif p < 0:
            outcome = "no_mover"
        elif repeat > 3:
            outcome = "repeat"
        else:
            required = max(moves[q] + deficit, weight[q])
            if forest.add_constraint(p, q, required):
                outcome = "constraint"
            else:
                # Already implied yet the violation persists: withdraw
                # the move to guarantee progress.
                outcome = "implied"
        if outcome == "constraint":
            added += 1
        else:
            pins[outcome] += 1
            if p >= 0:
                forest.pin_tree(p)
            else:
                for v, move in enumerate(moves):
                    if move:
                        forest.pin_tree(v)
        if trace is not None:
            trace.append(("constraint", kind, p, q, deficit, outcome))
    return added
