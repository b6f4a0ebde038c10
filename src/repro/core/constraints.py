"""Problem 1: the P0 / P1' / P2' constraint system and its diagnosis.

The ELW-constrained minimum-observability retiming problem (Sec. III-C)::

    max   sum_v -b(v) r(v)
    s.t.  P0:  w_r(u, v) >= 0                      (valid retiming)
          P1': every combinational path meets setup at clock phi
               (via the longest-path labels L: L(v) >= d(v))
          P2': every register-to-register path is at least R_min long
               (via the shortest-path labels R: for registered (u, v),
               d(v) + (phi + T_h - R(v)) >= R_min)

This module provides the *checker* used by both solvers: given a tentative
retiming it finds the first violated constraint and converts it into an
*active constraint* ``(p, q, deficit)`` per Fig. 2 -- "if p moves, q must
move by (at least) deficit more".  The three diagnosis rules:

* ``P0`` (Fig. 2a): edge ``(u, v)`` driven negative by ``v``'s move; ``u``
  must follow by the deficit.
* ``P1'`` (Fig. 2b): a too-long path ``u ~> z = lt(u)`` created by ``z``'s
  move; a register must be moved out of ``u`` (deficit 1).
* ``P2'`` (Fig. 2c): a too-short register-to-register path through ``v``
  terminating at the registered edge ``(z, y)``, ``z = rt(v)``; *all*
  registers must be moved off ``(z, y)`` by dragging ``y``.

When the needed register motion would push registers into the host (past
primary outputs), the violation is *unfixable*: the solver then pins the
moving tree to the host, which is how the paper's algorithm "exits
immediately" on such circuits (Sec. VI discussion of b18/b14 rows).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasibleError
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import BoundaryLabels, critical_path, label_lists


@dataclass(frozen=True)
class Problem:
    """An instance of Problem 1 on a retiming graph.

    Attributes
    ----------
    graph:
        The retiming graph.
    phi:
        Clock period constraint.
    setup, hold:
        Register setup and hold times (``T_s``, ``T_h``).
    rmin:
        Lower bound on register-to-register combinational path length
        (the ELW constraint knob; see :mod:`repro.core.initialization`).
    b:
        Integer gain per vertex: the register-observability reduction per
        unit decrease of ``r(v)`` (scaled by K patterns, Sec. III-C); the
        host entry is ignored (the host is pinned).
    """

    graph: RetimingGraph
    phi: float
    setup: float
    hold: float
    rmin: float
    b: np.ndarray
    eps: float = 1e-9
    #: Whether primary outputs capture for shortest-path (P2'/hold)
    #: analysis.  The paper's P2' treats POs as latch points (True); the
    #: hold-only repair used by the Sec. V initialization sets False.
    hold_at_outputs: bool = True

    def objective(self, r: Sequence[int] | np.ndarray) -> int:
        """The paper's objective ``sum_v -b(v) r(v)`` (larger is better)."""
        r = np.asarray(r, dtype=np.int64)
        return int(-(self.b.astype(np.int64) * r).sum())


@dataclass
class Violation:
    """A diagnosed constraint violation -> active constraint ``(p, q)``.

    Attributes
    ----------
    kind:
        ``"P0"``, ``"P1"`` or ``"P2"``.
    p:
        The *mover*: a vertex of the tentative move set whose decrease
        caused the violation (``-1`` when no mover could be identified).
    q:
        The vertex that must be dragged along.  ``q == 0`` (the host)
        marks an unfixable violation: registers would have to move past a
        primary output.
    deficit:
        Additional units of decrease ``q`` needs beyond its tentative move.
    edge:
        Offending edge index (P0 / the registered edge of P2), else None.
    vertex:
        Violating vertex (P1's path head / P2's register-fanout gate).
    note:
        Human-readable description for logs and tests.
    """

    kind: str
    p: int
    q: int
    deficit: int
    edge: int | None = None
    vertex: int | None = None
    note: str = ""

    @property
    def fixable(self) -> bool:
        """False when fixing would push registers into the host."""
        return self.q != 0


def gains(graph: RetimingGraph, obs_counts: Mapping[str, int]) -> np.ndarray:
    """Per-vertex gains ``b(v)`` from integer observability counts.

    ``b(v) = sum_{(u,v) in E} obs_count(src(u,v))
           - outdeg(v) * obs_count(v)`` -- the reduction in total register
    observability (in pattern counts) when one register moves from ``v``'s
    inputs to its outputs (Sec. III-C; see DESIGN.md for the erratum in the
    printed formula).  The host entry is 0.
    """
    b = np.zeros(graph.n_vertices, dtype=np.int64)
    for e in graph.edges:
        if e.v != 0:
            b[e.v] += int(obs_counts[e.src_net])
        if e.u != 0:
            b[e.u] -= int(obs_counts[graph.names[e.u]])
    b[0] = 0
    return b


def register_observability(graph: RetimingGraph,
                           r: Sequence[int] | np.ndarray,
                           obs: Mapping[str, float]) -> float:
    """Total register observability ``sum_e obs(src(e)) * w_r(e)`` (eq. 5)."""
    weights = graph.retimed_weights(r)
    return float(sum(obs[e.src_net] * int(w)
                     for e, w in zip(graph.edges, weights)))


def _first_mover(delta: np.ndarray | None,
                 candidates: Sequence[int]) -> int:
    """First vertex in ``candidates`` that is part of the tentative move."""
    if delta is None:
        return -1
    for v in candidates:
        if v >= 0 and delta[v] > 0:
            return int(v)
    return -1


def check_constraints(problem: Problem, r: Sequence[int] | np.ndarray,
                      delta: np.ndarray | None = None,
                      skip_p2: bool = False,
                      labels: BoundaryLabels | None = None,
                      ) -> Violation | None:
    """Find the first violated constraint of Problem 1 under ``r``.

    Checks P0 first (the labels of P1'/P2' are only meaningful for valid
    retimings), then P2', then P1' -- the paper's precedence among the
    label constraints (Algorithm 1 lines 9-16).

    Parameters
    ----------
    delta:
        Per-vertex tentative decrease (0 for non-movers); used only to
        identify the mover ``p`` of the diagnosed active constraint.
    labels:
        Pre-computed boundary labels for ``r`` (recomputed when omitted).

    Returns None when ``r`` satisfies all constraints.
    """
    found = find_violations(problem, r, delta=delta, skip_p2=skip_p2,
                            labels=labels, limit=1)
    return found[0] if found else None


def find_violations(problem: Problem, r: Sequence[int] | np.ndarray,
                    delta: np.ndarray | None = None,
                    skip_p2: bool = False,
                    labels: BoundaryLabels | None = None,
                    limit: int | None = None) -> list[Violation]:
    """Diagnose violated constraints of Problem 1 under ``r``.

    Returns violations of the *first* violated constraint class only
    (P0, else P2', else P1') -- every returned diagnosis is sound
    simultaneously, which lets the solver record a whole batch of active
    constraints per timing pass instead of one.

    ``limit`` caps the number of diagnoses (1 recovers the classic
    one-at-a-time behaviour of Algorithm 1).
    """
    graph = problem.graph
    weights = graph.retimed_weights(r)

    # ---- P0: valid retiming (vectorized scan) ------------------------
    negative = np.nonzero(weights < 0)[0]
    if negative.size:
        out: list[Violation] = []
        for eidx in negative[:limit]:
            e = graph.edges[int(eidx)]
            deficit = int(-weights[eidx])
            out.append(Violation(
                kind="P0", p=e.v, q=e.u, deficit=deficit, edge=int(eidx),
                note=(f"edge {graph.names[e.u]} -> {graph.names[e.v]} "
                      f"has {int(weights[eidx])} registers; "
                      f"{graph.names[e.u]} must move {deficit} more")))
        return out

    if labels is None:
        L, R, _, _, lsucc, rsucc = label_lists(
            graph, weights, problem.phi, problem.setup, problem.hold,
            problem.hold_at_outputs)
    else:
        L, R = labels.L.tolist(), labels.R.tolist()
        lsucc, rsucc = labels.lsucc.tolist(), labels.rsucc.tolist()

    # ---- P2': shortest register-to-register paths --------------------
    if not skip_p2:
        found = _check_p2(problem, weights, R, rsucc, delta, limit)
        if found:
            return found

    # ---- P1': setup / longest paths ----------------------------------
    violation = _check_p1(problem, L, lsucc, delta)
    return [violation] if violation is not None else []


def _check_p2(problem: Problem, weights: np.ndarray, R: list[float],
              rsucc: list[int], delta: np.ndarray | None,
              limit: int | None) -> list[Violation]:
    graph = problem.graph
    u_arr, v_arr, _ = graph.edge_arrays()
    registered = np.flatnonzero((weights > 0) & (v_arr != 0))
    if not registered.size:
        return []
    out_edges = graph.out_edges
    delays = graph.delays
    names = graph.names
    isfinite = math.isfinite
    window = problem.phi + problem.hold
    bound = problem.rmin - problem.eps
    w_list: list[int] | None = None

    out: list[Violation] = []
    seen_targets: set[tuple[int, int]] = set()
    for eidx, u, v in zip(registered.tolist(), u_arr[registered].tolist(),
                          v_arr[registered].tolist()):
        if not isfinite(R[v]):
            continue
        sp_v = delays[v] + (window - R[v])
        if not sp_v < bound:
            continue
        if w_list is None:
            w_list = weights.tolist()
        # Critical shortest path v -> ... -> z; its terminal register
        # sits on some registered out-edge (z, y).
        path = critical_path(rsucc, v)
        z = path[-1]
        y_edge = next((i for i in out_edges[z] if w_list[i] > 0), None)
        mover = _first_mover(delta, [u, z, *path])
        if y_edge is None or graph.edges[y_edge].v == 0:
            # Terminal is a primary output (or a register guarding one):
            # registers cannot be pushed into the host -- unfixable
            # (paper Sec. VI, b14/b18 cases).
            key = (mover, 0)
            if key in seen_targets:
                continue
            seen_targets.add(key)
            out.append(Violation(
                kind="P2", p=mover, q=0, deficit=0, edge=eidx,
                vertex=v,
                note=(f"short path {sp_v:.3f} < R_min "
                      f"{problem.rmin:.3f} from {names[v]} ends "
                      f"at a primary output")))
        else:
            y = graph.edges[y_edge].v
            deficit = w_list[y_edge]
            key = (mover, y)
            if key in seen_targets:
                continue
            seen_targets.add(key)
            out.append(Violation(
                kind="P2", p=mover, q=y, deficit=deficit, edge=eidx,
                vertex=v,
                note=(f"short path {sp_v:.3f} < R_min "
                      f"{problem.rmin:.3f} from {names[v]}; clear "
                      f"{deficit} registers off {names[z]} -> "
                      f"{names[y]}")))
        if limit is not None and len(out) >= limit:
            break
    return out


def _check_p1(problem: Problem, L: list[float], lsucc: list[int],
              delta: np.ndarray | None) -> Violation | None:
    graph = problem.graph
    delays = graph.delays
    isfinite = math.isfinite
    # First vertex of minimal setup slack L(v) - d(v); unobservable
    # vertices and the host have slack 0.
    worst, worst_slack = 0, 0.0
    for v in range(1, graph.n_vertices):
        if isfinite(L[v]):
            slack = L[v] - delays[v]
            if slack < worst_slack:
                worst, worst_slack = v, slack
    if worst_slack >= -problem.eps:
        return None

    path = critical_path(lsucc, worst)
    z = path[-1]
    if z == worst and len(path) == 1:
        raise InfeasibleError(
            f"gate {graph.names[worst]} alone exceeds the clock period "
            f"(d={graph.delays[worst]} > phi - T_s = "
            f"{problem.phi - problem.setup})")
    # Prefer the path terminal as the mover (Fig. 2b), else any mover on
    # the critical path.
    mover = _first_mover(delta, [z, *reversed(path[1:])])
    return Violation(
        kind="P1", p=mover, q=worst, deficit=1, vertex=worst,
        note=(f"longest path from {graph.names[worst]} to "
              f"{graph.names[z]} violates setup by {-worst_slack:.3f}; "
              f"move a register out of {graph.names[worst]}"))
