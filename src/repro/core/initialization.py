"""Initialization of Problem 1: choosing Phi, R_min and a feasible start.

Implements Sec. V of the paper:

1. Retime for the minimal clock period Phi_sh under setup *and* hold
   constraints (Lin-Zhou [23] reimplementation in
   :mod:`repro.retime.setup_hold`); relax the period by a small factor
   ``epsilon`` (10% in the paper) and pick R_min as the minimal
   register-to-register path length of the retimed circuit.
2. When no setup+hold-feasible retiming exists (reconvergent paths),
   fall back to plain min-period retiming [24] -- the paper's s15850.1
   case, in which its R_min degenerates to the minimal gate delay and
   "P2' will not be violated".  This implementation instead runs a
   best-effort register-spreading pass and sets R_min to the achieved
   minimal register-to-latch path (never weaker than the paper's
   choice; documented in DESIGN.md).

An optional *maximal start* pushes the initial retiming to the pointwise
maximum of the feasibility region (Bellman-Ford on the P0 difference
constraints followed by forced repair of P1'/P2').  An exact
decrease-only descent from a pointwise-maximal start is globally optimal
on the no-P2' relaxation (lattice argument), but the solver's pins can
stop short of it: the tests match the LP oracle on 8-gate random
circuits only, and MinObs misses the LP optimum on four small-tier
corpus circuits (docs/algorithm.md Sec. 5).  The paper-faithful default
starts from the Sec. V retiming instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasibleError
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import min_register_path
from .constraints import Problem, check_constraints


@dataclass
class InitialRetiming:
    """The (Phi, R_min, r0) configuration produced by Sec. V.

    Attributes
    ----------
    r0:
        Feasible starting retiming for Problem 1.
    phi:
        Relaxed clock period constraint ``(1 + epsilon) * Phi_base``.
    rmin:
        Shortest-path bound for P2'.
    phi_base:
        The tight period before relaxation (Phi_sh, or Phi_min on the
        fallback path).
    used_fallback:
        True when setup+hold retiming was infeasible and the plain
        min-period path with degenerate R_min was taken.
    """

    r0: np.ndarray
    phi: float
    rmin: float
    phi_base: float
    used_fallback: bool


def initialize(graph: RetimingGraph, setup: float = 0.0, hold: float = 2.0,
               epsilon: float = 0.10,
               maximal_start: bool = False) -> InitialRetiming:
    """Compute (Phi, R_min, r0) per Sec. V.

    Parameters
    ----------
    epsilon:
        Relative relaxation of the tight period (paper: 10%).
    maximal_start:
        Push ``r0`` to the pointwise-maximal feasible retiming before
        solving (see module docstring).
    """
    from ..retime.minperiod import min_period_retiming
    from ..retime.setup_hold import min_period_setup_hold, repair_constraints

    # Phi_min bounds the setup+hold search and is the fallback's period.
    phi_min, r_min = min_period_retiming(graph, setup)
    used_fallback = False
    try:
        phi_base, r0 = min_period_setup_hold(graph, setup, hold,
                                             phi_min=phi_min)
        phi = phi_base * (1.0 + epsilon)
    except InfeasibleError:
        used_fallback = True
        phi_base, r0 = phi_min, r_min
        phi = phi_base * (1.0 + epsilon)
        # Best effort: even without full hold feasibility, spread the
        # registers to maximize the minimal register-to-latch path at
        # the relaxed period -- R_min (below) then keeps P2' as tight as
        # this circuit allows instead of degenerating.
        from ..retime.setup_hold import best_effort_hold

        improved = best_effort_hold(graph, phi, setup, hold, r0)
        problem = Problem(graph=graph, phi=phi, setup=setup, hold=hold,
                          rmin=0.0,
                          b=np.zeros(graph.n_vertices, dtype=np.int64))
        if check_constraints(problem, improved) is None:
            r0 = improved

    # R_min preserves the initial circuit's minimal register-to-latch
    # path (Sec. V).  On the fallback path the paper degrades R_min to
    # the minimal gate delay; we instead keep the same
    # preserve-the-initial-minimum rule (never weaker than the paper's
    # choice, since every path is at least one gate long) so that P2'
    # stays meaningful on hold-infeasible circuits -- see DESIGN.md.
    rmin = min_register_path(graph, r0, phi, setup, hold)
    if not math.isfinite(rmin):
        delays = [d for d in graph.delays[1:] if d > 0]
        rmin = min(delays) if delays else 0.0

    if maximal_start:
        problem = Problem(graph=graph, phi=phi, setup=setup, hold=hold,
                          rmin=rmin,
                          b=np.zeros(graph.n_vertices, dtype=np.int64))
        r_max = maximal_feasible_retiming(problem)
        if r_max is not None:
            r0 = r_max

    return InitialRetiming(r0=np.asarray(r0, dtype=np.int64), phi=phi,
                           rmin=rmin, phi_base=phi_base,
                           used_fallback=used_fallback)


def maximal_feasible_retiming(problem: Problem) -> np.ndarray | None:
    """Pointwise-maximal feasible retiming of ``problem``, or None.

    Upper-bounds each label with Bellman-Ford over the P0 difference
    constraints (``r(u) <= r(v) + w(u, v)``, ``r(host) = 0``), then
    repairs P1'/P2' with forced minimal decreases.  Chaotic relaxation
    from an upper bound converges to the maximal element of a difference
    system (P0 and P1' are difference constraints via the W/D view), so
    the result dominates every feasible retiming pointwise -- the
    property that makes decrease-only descent globally optimal on the
    no-P2' relaxation.  P2' is disjunctive, so when R_min binds the
    result is only heuristically maximal.
    """
    from ..retime.setup_hold import repair_constraints

    graph = problem.graph
    n = graph.n_vertices
    bound = int(sum(e.w for e in graph.edges)) + n
    r = np.full(n, bound, dtype=np.int64)
    r[0] = 0
    changed = False
    for _ in range(n):
        changed = False
        for e in graph.edges:
            limit = r[e.v] + e.w
            if r[e.u] > limit:
                r[e.u] = limit
                changed = True
        if not changed:
            break
    if changed:  # negative cycle cannot happen with w >= 0
        return None
    # Vertices with no path to the host stay at the artificial bound;
    # clamp them so they do not explode the register count.
    r = np.minimum(r, bound)
    return repair_constraints(problem, r)
