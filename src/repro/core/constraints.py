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
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import InfeasibleError
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import (IncrementalLabels, critical_path, label_lists,
                            short_register_paths)


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
        Human-readable description for logs and tests.  The checker
        passes a callable of the violation, rendered on first read:
        walks diagnose thousands of violations and read almost no note,
        and one callable serves a whole batch of P0 diagnoses.

    Two violations are equal when every attribute, the rendered note
    included, is.
    """

    __slots__ = ("kind", "p", "q", "deficit", "edge", "vertex", "_note")

    def __init__(self, kind: str, p: int, q: int, deficit: int,
                 edge: int | None = None, vertex: int | None = None,
                 note: str | Callable[[Violation], str] = ""):
        self.kind = kind
        self.p = p
        self.q = q
        self.deficit = deficit
        self.edge = edge
        self.vertex = vertex
        self._note = note

    @property
    def note(self) -> str:
        note = self._note
        if not isinstance(note, str):
            note = self._note = note(self)
        return note

    @property
    def fixable(self) -> bool:
        """False when fixing would push registers into the host."""
        return self.q != 0

    def _fields(self) -> tuple:
        return (self.kind, self.p, self.q, self.deficit, self.edge,
                self.vertex, self.note)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return ("Violation(kind={!r}, p={!r}, q={!r}, deficit={!r}, "
                "edge={!r}, vertex={!r}, note={!r})".format(*self._fields()))


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


def checker(problem: Problem, skip_p2: bool = False) -> IncrementalLabels:
    """The incremental checker one walk or solve owns: pass it as
    :func:`find_violations`' ``labels`` at every step.  It keeps the
    boundary labels and, unless ``skip_p2``, P2's short-path set."""
    bound = -math.inf if skip_p2 else problem.rmin - problem.eps
    return IncrementalLabels(problem.graph, problem.phi, problem.setup,
                             problem.hold, problem.hold_at_outputs, bound)


def check_constraints(problem: Problem, r: Sequence[int] | np.ndarray,
                      delta: np.ndarray | None = None,
                      skip_p2: bool = False,
                      labels: IncrementalLabels | None = None,
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
        The caller's :func:`checker`, brought up to date with ``r``
        instead of a full timing pass (see :func:`find_violations`).

    Returns None when ``r`` satisfies all constraints.
    """
    found = find_violations(problem, r, delta=delta, skip_p2=skip_p2,
                            labels=labels, limit=1)
    return found[0] if found else None


def find_violations(problem: Problem, r: Sequence[int] | np.ndarray,
                    delta: np.ndarray | None = None,
                    skip_p2: bool = False,
                    labels: IncrementalLabels | None = None,
                    limit: int | None = None) -> list[Violation]:
    """Diagnose violated constraints of Problem 1 under ``r``.

    Returns violations of the *first* violated constraint class only
    (P0, else P2', else P1') -- every returned diagnosis is sound
    simultaneously, which lets the solver record a whole batch of active
    constraints per timing pass instead of one.

    ``limit`` caps the number of diagnoses (1 recovers the classic
    one-at-a-time behaviour of Algorithm 1).  ``labels``, the
    :func:`checker` of ``problem``, stands in for the full label pass
    and the full scan for short register paths; it sees ``w_r`` only
    when ``r`` passes P0.  Without it one full pass runs: the oracle the
    checker is tested against.
    """
    graph = problem.graph
    weights = graph.retimed_weights(r)

    # ---- P0: valid retiming (vectorized scan) ------------------------
    negative = np.nonzero(weights < 0)[0]
    if negative.size:
        negative = negative[:limit]
        tails, heads, _ = graph.edge_arrays()
        note = partial(_p0_note, graph.names)
        return [Violation("P0", v, u, deficit, eidx, None, note)
                for eidx, u, v, deficit in zip(
                    negative.tolist(), tails[negative].tolist(),
                    heads[negative].tolist(),
                    (-weights[negative]).tolist())]

    if labels is None:
        L, R, _, rt, lsucc, rsucc = label_lists(
            graph, weights, problem.phi, problem.setup, problem.hold,
            problem.hold_at_outputs)
    else:
        L, R, _, rt, lsucc, rsucc = labels.update(weights)

    # ---- P2': shortest register-to-register paths --------------------
    if not skip_p2:
        if labels is None:
            short: Iterable[tuple[int, int, int, float]] = \
                short_register_paths(graph, weights, R, problem.phi,
                                     problem.hold,
                                     problem.rmin - problem.eps)
        elif labels.bound != problem.rmin - problem.eps:
            raise ValueError("labels were not built by checker(problem)")
        else:
            short = labels.short_paths()
        found = _check_p2(problem, weights, short, rt, rsucc, delta, limit)
        if found:
            return found

    # ---- P1': setup / longest paths ----------------------------------
    violation = _check_p1(problem, L, lsucc, delta)
    return [violation] if violation is not None else []


def _p0_note(names: list[str], violation: Violation) -> str:
    u, v, deficit = violation.q, violation.p, violation.deficit
    return (f"edge {names[u]} -> {names[v]} has {-deficit} registers; "
            f"{names[u]} must move {deficit} more")


def _p2_note(problem: Problem, length: float, z: int,
             violation: Violation) -> str:
    names = problem.graph.names
    v, y, deficit = violation.vertex, violation.q, violation.deficit
    head = (f"short path {length:.3f} < R_min {problem.rmin:.3f} "
            f"from {names[v]}")
    if y == 0:
        return f"{head} ends at a primary output"
    return f"{head}; clear {deficit} registers off {names[z]} -> {names[y]}"


def _p1_note(names: list[str], z: int, slack: float,
             violation: Violation) -> str:
    worst = violation.vertex
    return (f"longest path from {names[worst]} to {names[z]} violates "
            f"setup by {-slack:.3f}; move a register out of {names[worst]}")


def _check_p2(problem: Problem, weights: np.ndarray,
              short: Iterable[tuple[int, int, int, float]], rt: list[int],
              rsucc: list[int], delta: np.ndarray | None,
              limit: int | None) -> list[Violation]:
    graph = problem.graph
    out_edges = graph.out_edges
    edges = graph.edges
    w_list: list[int] | None = None
    # Terminal z -> (y, deficit): the first registered out-edge (z, y)
    # and its register count; (0, 0), unfixable, when that edge feeds a
    # primary output or z has none: registers cannot be pushed into the
    # host (paper Sec. VI, b14/b18 cases).
    terminals: dict[int, tuple[int, int]] = {}

    out: list[Violation] = []
    seen_targets: set[tuple[int, int]] = set()
    for eidx, u, v, length in short:
        # The critical shortest path v -> ... -> z ends at z = rt(v).
        z = rt[v]
        target = terminals.get(z)
        if target is None:
            if w_list is None:
                w_list = weights.tolist()
            target = (0, 0)
            for i in out_edges[z]:
                if w_list[i] > 0:
                    if edges[i].v:
                        target = (edges[i].v, w_list[i])
                    break
            terminals[z] = target
        y, deficit = target
        mover = -1 if delta is None else \
            _first_mover(delta, [u, z, *critical_path(rsucc, v)])
        key = (mover, y)
        if key in seen_targets:
            continue
        seen_targets.add(key)
        out.append(Violation("P2", mover, y, deficit, eidx, v,
                             partial(_p2_note, problem, length, z)))
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
        note=partial(_p1_note, graph.names, z, worst_slack))
