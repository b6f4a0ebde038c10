"""Optimality oracles for the incremental solvers.

Two independent references:

* :func:`brute_force_optimum` -- exhaustive enumeration of retiming labels
  in a box around a base point, checking the full Problem 1 constraint
  system.  Exponential; tiny graphs only (tests of Theorem 2).
* :func:`lp_minobs_optimum` -- the LP of [17] for the no-P2' relaxation
  (MinObs): minimize ``sum b(v) r(v)`` over the P0 difference constraints
  and the W/D-matrix period constraints.  The constraint matrix is a
  difference system (totally unimodular), so the LP relaxation solved with
  scipy/HiGHS has an integral optimum.  Quadratic memory -- exactly the
  cost the paper's regular forest avoids -- which is also why it doubles
  as the baseline for the memory benchmark.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import InfeasibleError
from ..graph.paths import wd_matrices
from .constraints import Problem, check_constraints


def brute_force_optimum(problem: Problem, base: np.ndarray | None = None,
                        radius: int = 2, decreases_only: bool = False,
                        skip_p2: bool = False,
                        max_points: int = 2_000_000,
                        ) -> tuple[np.ndarray, int]:
    """Exhaustively maximize ``sum -b(v) r(v)`` near ``base``.

    Parameters
    ----------
    base:
        Center of the search box (default: the zero retiming).
    radius:
        Each non-host label ranges over ``base[v] - radius ..
        base[v] + radius`` (or ``.. base[v]`` with ``decreases_only``).
    decreases_only:
        Restrict to ``r <= base`` -- the reachable set of the
        decrease-only incremental solvers.
    skip_p2:
        Check only P0 and P1' (the MinObs relaxation).

    Returns ``(r_opt, objective)``; raises :class:`InfeasibleError` when
    no point in the box is feasible.
    """
    graph = problem.graph
    n = graph.n_vertices
    if base is None:
        base = graph.zero_retiming()
    base = np.asarray(base, dtype=np.int64)

    highs = base[1:] + (0 if decreases_only else radius)
    lows = base[1:] - radius
    total = int(np.prod((highs - lows + 1).astype(float)))
    if total > max_points:
        raise MemoryError(
            f"brute force would enumerate {total} points (> {max_points})")

    best_r: np.ndarray | None = None
    best_obj = -math.inf
    r = np.zeros(n, dtype=np.int64)
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(lows, highs)]
    for combo in itertools.product(*ranges):
        r[1:] = combo
        if not graph.is_valid_retiming(r):
            continue
        if check_constraints(problem, r, skip_p2=skip_p2) is not None:
            continue
        obj = problem.objective(r)
        if obj > best_obj:
            best_obj = obj
            best_r = r.copy()
    if best_r is None:
        raise InfeasibleError("no feasible retiming in the search box")
    return best_r, int(best_obj)


def lp_minobs_optimum(problem: Problem,
                      integral_check: bool = True,
                      ) -> tuple[np.ndarray, int]:
    """Globally optimal MinObs retiming via the LP of [17].

    Solves ``min sum b(v) r(v)`` subject to ``r(host) = 0``, the P0 edge
    constraints ``r(u) - r(v) <= w(u, v)`` and the period constraints
    ``r(u) - r(v) <= W(u, v) - 1`` for every pair with
    ``D(u, v) > phi - T_s``.  Uses the W/D matrices (quadratic memory) and
    scipy's HiGHS; rounds the integral vertex solution.

    Note this is the *global* optimum of the relaxation, independent of
    any starting retiming -- the spec the decrease-only solver is tested
    against when started from the pointwise-maximal feasible point.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    graph = problem.graph
    n = graph.n_vertices
    W, D = wd_matrices(graph)
    target = problem.phi - problem.setup

    data: list[float] = []
    row_idx: list[int] = []
    col_idx: list[int] = []
    rhs: list[float] = []

    def add(u: int, v: int, c: float) -> None:
        if u == 0 and v == 0:
            return
        row = len(rhs)
        if u != 0:
            data.append(1.0)
            row_idx.append(row)
            col_idx.append(u - 1)
        if v != 0:
            data.append(-1.0)
            row_idx.append(row)
            col_idx.append(v - 1)
        rhs.append(c)

    for e in graph.edges:
        add(e.u, e.v, float(e.w))
    late = (D > target + 1e-9) & np.isfinite(W)
    for u, v in zip(*np.nonzero(late)):
        add(int(u), int(v), float(W[u, v]) - 1.0)

    c = problem.b[1:].astype(float)
    bound = float(sum(e.w for e in graph.edges)) + n
    a_ub = csr_matrix((data, (row_idx, col_idx)), shape=(len(rhs), n - 1))
    result = linprog(c, A_ub=a_ub, b_ub=np.array(rhs),
                     bounds=[(-bound, bound)] * (n - 1), method="highs")
    if not result.success:
        raise InfeasibleError(f"MinObs LP failed: {result.message}")
    r = np.zeros(n, dtype=np.int64)
    rounded = np.round(result.x).astype(np.int64)
    if integral_check and np.max(np.abs(result.x - rounded)) > 1e-6:
        raise InfeasibleError(
            "LP solution is not integral (unexpected for a difference "
            "system); largest deviation "
            f"{float(np.max(np.abs(result.x - rounded))):.2e}")
    r[1:] = rounded
    return r, problem.objective(r)
