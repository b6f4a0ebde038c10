"""Min-period retiming under setup and hold constraints (Phi_sh, Sec. V).

The paper initializes from a circuit "retimed so that it has the minimal
clock period Phi_sh under setup and hold time constraints by using the
method proposed in [23]" (Lin-Zhou DAC'06) and falls back to plain
min-period retiming when no hold-feasible retiming exists (reconvergent
paths).  This module reimplements that capability:

* the hold condition: every register-to-register combinational path is at
  least ``T_h`` long (independent of the clock period), i.e.
  ``min_register_path(..., hold_at_outputs=False) >= T_h``;
* a constraint-repair loop shared with the Problem 1 checker turns
  setup-feasible retimings into setup+hold-feasible ones by forced
  register motion;
* a binary search over the period yields Phi_sh.

This is a conservative reimplementation, not Lin-Zhou's exact algorithm:
it may report infeasibility where a cleverer search would succeed, which
only makes us take the paper's own documented fallback path (Phi_min with
``R_min = `` minimal gate delay) more often.
"""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleError
from ..core.constraints import Problem, checker, find_violations
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import min_register_path
from ..telemetry import spans as telemetry
from .minperiod import feasible_retiming, min_period_retiming


def repair_constraints(problem: Problem, r: np.ndarray,
                       max_steps: int | None = None,
                       allow_backward: bool = False,
                       prefer_backward: bool = False,
                       rng: np.random.Generator | None = None,
                       ) -> np.ndarray | None:
    """Greedy feasibility restoration by forced register motion.

    Repeatedly takes the first violated constraint of ``problem`` under
    ``r`` and applies its prescribed fix (the dragged vertex moves
    forward by the deficit).

    With ``allow_backward=True`` (used by the Lin-Zhou style hold
    search, *not* by the maximal-start computation, whose optimality
    argument needs pure decreases), a forward-fix chain that dead-ends at
    the primary inputs is rolled back and the offending shortest-path
    violation is fixed the other way: the launching register moves
    backward (possibly onto a primary-input edge, which is legal).

    A walk ends in one of four ways, reported as the ``exit`` of one
    ``repair.walk`` trace event:

    * ``converged``: no violation is left; the feasible retiming is
      returned;
    * ``unfixable``: a violation would push registers past a primary
      output and no backward fix or rollback applies; None;
    * ``cycle``: a deterministic walk (``rng`` None) is back at a loop
      state ``(r, checkpoint, checkpoint edge)`` it has been in before;
      None;
    * ``budget``: ``max_steps`` violation checks ran out; None.

    The cycle exit is exact.  Without ``rng`` the next loop state is a
    function of the current one, so a repeated state means the walk
    repeats the same steps forever and would return None at the budget.
    Brent's algorithm compares states byte for byte against one saved
    state, which finds the repeat within a few cycle lengths in O(|V|)
    memory.  A randomized walk draws from ``rng`` at every step, so a
    repeated ``r`` proves nothing there and only the budget ends it.
    """
    graph = problem.graph
    r = np.asarray(r, dtype=np.int64).copy()
    if max_steps is None:
        max_steps = 40 * graph.n_vertices + 200
    labels = checker(problem)
    cycle = _Brent() if rng is None else None
    checkpoint: np.ndarray | None = None
    checkpoint_edge: int | None = None
    result, exit_, steps = None, "budget", 0
    while steps < max_steps:
        if cycle is not None and cycle.repeats(
                (r.tobytes(), None if checkpoint is None
                 else checkpoint.tobytes(), checkpoint_edge)):
            exit_ = "cycle"
            break
        steps += 1
        violations = find_violations(problem, r, labels=labels)
        if not violations:
            result, exit_ = r, "converged"
            break
        if rng is not None:
            pick = int(rng.integers(0, len(violations)))
            violations = [violations[pick]]

        unfixable = next((v for v in violations if not v.fixable), None)
        if unfixable is None:
            # Whole batch shares one timing pass; P0/P2 batches apply
            # together (deduped per dragged vertex, largest deficit).
            if allow_backward and violations[0].kind == "P2":
                go_backward = prefer_backward if rng is None \
                    else bool(rng.random() < 0.5)
                if go_backward and violations[0].edge is not None:
                    fixed = _backward_fix(graph, r, violations[0].edge)
                    if fixed is not None:
                        r = fixed
                        continue
                checkpoint = r.copy()
                checkpoint_edge = violations[0].edge
            needed: dict[int, int] = {}
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
            # The forward chain of the last shortest-path fix dead-ended
            # (typically at a register-less primary-input cone); retry
            # that fix backward from the checkpoint.
            r = checkpoint
            checkpoint = None
            fixed = _backward_fix(graph, r, checkpoint_edge)
            if fixed is not None:
                r = fixed
                checkpoint_edge = None
                continue
        exit_ = "unfixable"
        break
    telemetry.event("repair.walk", exit=exit_, steps=steps,
                    randomized=rng is not None)
    return result


class _Brent:
    """Brent's cycle detection over a stream of states: each state is
    compared exactly with one saved state, which is replaced after 2, 4,
    8, ... further states."""

    def __init__(self) -> None:
        self._saved: object = None
        self._power = 1
        self._length = 1

    def repeats(self, state: object) -> bool:
        """True when ``state`` equals the saved state."""
        if state == self._saved:
            return True
        if self._length == self._power:
            self._saved = state
            self._power *= 2
            self._length = 0
        self._length += 1
        return False


def _backward_fix(graph, r: np.ndarray, edge_index: int,
                  max_cascade: int | None = None) -> np.ndarray | None:
    """Move the register launching into ``edge_index`` one gate backward.

    Increases ``r`` at the edge's source and cascades further increases
    through fanout cones as P0 requires; returns None when the cascade
    would need a register from a primary-output edge that has none.
    """
    source = graph.edges[edge_index].u
    if source == 0:
        return None
    out = np.asarray(r, dtype=np.int64).copy()
    if max_cascade is None:
        max_cascade = 4 * graph.n_vertices + 16
    queue = [source]
    steps = 0
    while queue:
        steps += 1
        if steps > max_cascade:
            return None
        x = queue.pop()
        out[x] += 1
        for eidx in graph.out_edges[x]:
            e = graph.edges[eidx]
            w_r = e.w + int(out[e.v]) - int(out[e.u])
            if w_r < 0:
                if e.v == 0 or e.v == x:
                    return None  # would pull a register past an output
                queue.extend([e.v] * (-w_r))
    if not graph.is_valid_retiming(out):
        return None
    return out


def min_period_setup_hold(graph: RetimingGraph, setup: float = 0.0,
                          hold: float = 2.0, tol: float = 1e-6,
                          phi_min: float | None = None,
                          ) -> tuple[float, np.ndarray]:
    """Minimal period with both setup and hold satisfied.

    Returns ``(phi_sh, r)``.  Raises :class:`InfeasibleError` when no
    hold-feasible retiming is found (the paper's reconvergent-path case).
    ``phi_min`` is the setup-only minimum of :func:`min_period_retiming`
    at ``tol``; it is searched here when not given.
    """
    if phi_min is None:
        phi_min, _ = min_period_retiming(graph, setup, tol)

    def probe(phi: float) -> np.ndarray | None:
        seed = feasible_retiming(graph, phi, setup)
        if seed is None:
            return None
        problem = Problem(graph=graph, phi=phi, setup=setup, hold=hold,
                          rmin=hold, b=np.zeros(graph.n_vertices,
                                                dtype=np.int64),
                          hold_at_outputs=False)
        budget = 6 * graph.n_vertices + 200
        repaired = repair_constraints(problem, seed, allow_backward=True,
                                      max_steps=budget)
        if repaired is None:
            # Second strategy: prefer moving launch registers backward
            # (covers circuits whose forward chains dead-end at the
            # register-free primary-input cones).
            repaired = repair_constraints(problem, seed,
                                          allow_backward=True,
                                          prefer_backward=True,
                                          max_steps=budget)
        for attempt in range(3):
            if repaired is not None:
                break
            # Randomized repairs: different violation orders and fix
            # directions explore different move chains; greedy repair is
            # incomplete, so a few diversified retries recover most
            # hold-feasible circuits.  Tight step budget: a wandering
            # random repair is almost never going to converge late.
            repaired = repair_constraints(
                problem, seed, allow_backward=True,
                max_steps=3 * graph.n_vertices + 100,
                rng=np.random.default_rng(attempt))
        return repaired

    low = phi_min
    high = float(np.asarray(graph.delays).sum()) + setup
    r_best = probe(high)
    if r_best is None:
        raise InfeasibleError(
            f"no setup+hold-feasible retiming found (hold={hold}); "
            "fall back to plain min-period initialization")
    best_phi = high
    # Try the tight end first: many circuits are hold-repairable at phi_min.
    tight = probe(phi_min)
    if tight is not None:
        return phi_min, tight
    # Hold feasibility is a coarse property of the period; a 2% bracket
    # is ample for choosing Phi_sh (the caller relaxes by epsilon anyway)
    # and keeps the number of repair probes small.
    while best_phi - low > max(tol, 2e-2 * best_phi):
        mid = (low + best_phi) / 2.0
        candidate = probe(mid)
        if candidate is None:
            low = mid
        else:
            r_best = candidate
            best_phi = mid
    return best_phi, r_best


def best_effort_hold(graph, phi: float, setup: float, hold: float,
                     seed: np.ndarray,
                     max_steps: int | None = None) -> np.ndarray:
    """Maximize the minimal register-to-register path, best effort.

    Used by the Sec. V fallback: when no fully hold-feasible retiming is
    found, walk the same repair moves but keep the best *setup-feasible*
    point visited (largest minimal register-to-latch path).  The result
    is always P0/P1-feasible at ``phi``; its own minimal path then
    becomes R_min, giving P2' as much bite as the circuit allows.
    """
    problem = Problem(graph=graph, phi=phi, setup=setup, hold=hold,
                      rmin=hold, b=np.zeros(graph.n_vertices,
                                            dtype=np.int64),
                      hold_at_outputs=False)
    r = np.asarray(seed, dtype=np.int64).copy()
    best = r.copy()
    best_sp = min_register_path(graph, r, phi, setup, hold)
    if max_steps is None:
        max_steps = 10 * graph.n_vertices + 100
    labels = checker(problem)
    for _ in range(max_steps):
        violations = find_violations(problem, r, labels=labels)
        if not violations:
            return r  # fully hold-feasible (caller re-checks anyway)
        kinds = {v.kind for v in violations}
        if kinds == {"P2"}:
            # Setup-feasible point: candidate for the best-so-far.
            sp = min_register_path(graph, r, phi, setup, hold)
            if sp > best_sp:
                best_sp = sp
                best = r.copy()
        unfixable = next((v for v in violations if not v.fixable), None)
        if unfixable is not None:
            if unfixable.kind == "P2" and unfixable.edge is not None:
                fixed = _backward_fix(graph, r, unfixable.edge)
                if fixed is not None:
                    r = fixed
                    continue
            break
        needed: dict[int, int] = {}
        for violation in violations:
            needed[violation.q] = max(needed.get(violation.q, 0),
                                      violation.deficit)
        for q, deficit in needed.items():
            r[q] -= deficit
    return best
