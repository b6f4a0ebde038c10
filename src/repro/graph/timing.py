"""Static timing on the retiming graph.

Provides the two label systems the paper's formulation is built on:

* forward *arrival times* ``delta(v)`` -- the longest register-free path
  delay ending at (and including) vertex ``v``; the clock-period / setup
  check is ``max_v delta(v) <= phi - T_s``;
* backward *boundary labels* ``L(v)``, ``R(v)`` of eq. (6) -- the outer
  boundaries of the error-latching window at the output of ``v``
  (Theorem 1), computed by longest- and shortest-path propagation.

Alongside ``L``/``R`` the critical-path terminals ``lt(v)``/``rt(v)`` of
Sec. IV-A are recorded: the last gate on the critical longest / shortest
path starting at ``v``, needed to diagnose P1'/P2' violations into active
constraints.

The shortest-path labels also give the minimal register-to-register path
(:func:`min_register_path`), the one quantity behind P2', R_min (Sec. V)
and the Lin-Zhou hold check.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .retiming_graph import RetimingGraph


def arrival_times(graph: RetimingGraph,
                  r: Sequence[int] | np.ndarray) -> np.ndarray:
    """Longest register-free path delay ending at each vertex.

    ``delta(v) = d(v) + max(0, max over zero-weight in-edges delta(u))``.
    Register outputs and primary inputs launch at time 0.  The host entry
    (index 0) is 0.  Raises :class:`~repro.errors.RetimingError` when the
    retiming leaves a register-free cycle.
    """
    weights = graph.retimed_weights(r)
    order = graph.zero_weight_order(weights)
    # Source of every zero-weight edge out of a gate, 0 for the others.
    pred = np.where(weights == 0, graph.edge_arrays()[0], 0).tolist()
    in_edges = graph.in_edges
    delays = graph.delays
    delta = [0.0] * graph.n_vertices
    for v in order:
        best = 0.0
        for eidx in in_edges[v]:
            u = pred[eidx]
            if u and delta[u] > best:
                best = delta[u]
        delta[v] = delays[v] + best
    return np.array(delta, dtype=float)


def achieved_period(graph: RetimingGraph, r: Sequence[int] | np.ndarray,
                    setup: float = 0.0) -> float:
    """Smallest clock period satisfying setup under retiming ``r``.

    Equals ``max_v delta(v) + T_s`` (0 for a gate-free graph).
    """
    delta = arrival_times(graph, r)
    return float(delta.max()) + setup if len(delta) else setup


def critical_path(succ: Sequence[int] | np.ndarray, v: int) -> list[int]:
    """The path ``v -> succ[v] -> ...`` up to the vertex whose successor
    is ``-1``: a critical path when ``succ`` is ``lsucc`` or ``rsucc``."""
    path = [v]
    while succ[v] >= 0:
        v = int(succ[v])
        path.append(v)
    return path


def label_lists(graph: RetimingGraph, weights: np.ndarray, phi: float,
                setup: float, hold: float, hold_at_outputs: bool,
                ) -> tuple[list[float], list[float], list[int], list[int],
                           list[int], list[int]]:
    """Eq. (6)'s boundary labels ``(L, R, lt, rt, lsucc, rsucc)`` under
    the retimed edge weights ``w_r``, as plain lists.

    Contributions per fanout edge ``(u, v)``:

    * registered edge or edge into the host (primary output): the latching
      window boundary ``(phi - setup, phi + hold)`` — the paper's
      ``g in RO`` case;
    * register-free edge to gate ``v``: ``(L(v) - d(v), R(v) - d(v))``.

    ``L(u)`` is the minimum and ``R(u)`` the maximum over contributions,
    i.e. the tight outer boundaries asserted by Theorem 1.  Unobservable
    vertices (no path to a register or primary output) get ``L = +inf``
    and ``R = -inf`` (an empty window).  ``lt``/``rt`` hold the last gate
    on the critical longest / shortest path starting at each vertex
    (``-1`` when unobservable; ``lt(v) == v`` for a direct latch), and
    ``lsucc``/``rsucc`` the next gate on it (``-1`` at the terminal), so
    :func:`critical_path` walks it.

    ``hold_at_outputs=False`` removes the *R-side* contribution of
    register-free edges into the host: primary outputs then count as
    latch points for setup (L) and ELWs but not as capture points for
    shortest-path / hold analysis (the Lin-Zhou style initialization,
    where hold constrains register-to-register paths only; the paper's
    P2' keeps True).

    One O(|V| + |E|) pass in reverse topological order over the
    zero-weight subgraph.
    """
    return _labels_along(graph, weights, graph.zero_weight_order(weights),
                         phi, setup, hold, hold_at_outputs)


def _labels_along(graph: RetimingGraph, weights: np.ndarray,
                  order: list[int], phi: float, setup: float, hold: float,
                  hold_at_outputs: bool,
                  ) -> tuple[list[float], list[float], list[int], list[int],
                             list[int], list[int]]:
    """:func:`label_lists` given the zero-weight topological ``order``."""
    # Per edge: -1 when registered, else its sink (0 = primary output).
    fanout = np.where(weights > 0, -1, graph.edge_arrays()[1]).tolist()
    out_edges = graph.out_edges
    delays = graph.delays
    isfinite = math.isfinite
    n = graph.n_vertices
    L = [math.inf] * n
    R = [-math.inf] * n
    lt = [-1] * n
    rt = [-1] * n
    lsucc = [-1] * n
    rsucc = [-1] * n
    window_left = phi - setup
    window_right = phi + hold

    for u in reversed(order):
        for eidx in out_edges[u]:
            v = fanout[eidx]
            if v <= 0:  # latched: registered edge or primary output
                if window_left < L[u]:
                    L[u] = window_left
                    lt[u] = u
                    lsucc[u] = -1
                if (v < 0 or hold_at_outputs) and window_right > R[u]:
                    R[u] = window_right
                    rt[u] = u
                    rsucc[u] = -1
            elif isfinite(L[v]):  # else the fanout is unobservable
                left = L[v] - delays[v]
                right = R[v] - delays[v]
                if left < L[u]:
                    L[u] = left
                    lt[u] = lt[v]
                    lsucc[u] = v
                if right > R[u]:
                    R[u] = right
                    rt[u] = rt[v]
                    rsucc[u] = v
    return L, R, lt, rt, lsucc, rsucc


class IncrementalLabels:
    """The :func:`label_lists` lists kept current across edits of ``w_r``,
    with the registered edges whose path is shorter than ``bound``.

    A walk or solve owns one instance and calls :meth:`update` with each
    new valid weight vector.  The first update is one full
    :func:`label_lists` pass.  Later updates diff the weights against the
    previous update's and recompute only the tails of the changed edges,
    with :func:`label_lists`' own rule per vertex (same edge order, same
    strict comparisons, same terminal and successor updates).  A vertex
    whose ``L``/``R``/``lt``/``rt`` moved queues its zero-weight fan-in
    in turn, fanout first by rank in the last full pass's topological
    order.  An update that would recompute more vertices than the graph
    has runs a full pass instead, so no update costs more than about two.

    :meth:`short_paths` is :func:`short_register_paths` at ``bound``:
    an edge's path length depends only on its own weight and its head's
    ``R``, so an update re-evaluates the changed edges and the registered
    in-edges of the vertices whose ``R`` moved.  The default bound keeps
    no edge (for callers that never check P2').

    Exact: the labels are the unique solution of the per-vertex rule
    over the zero-weight subgraph, a DAG under every valid retiming, so
    the recompute order cannot change the result.  Only valid weights
    (``w_r >= 0``) may be passed; skipping invalid states is fine, as the
    next update diffs against the last one it saw.  The lists are owned
    by the instance and are valid until the next update.

    ``updates`` counts the :meth:`update` calls and ``full_passes`` the
    full passes they ran, the first update's included.
    """

    def __init__(self, graph: RetimingGraph, phi: float, setup: float,
                 hold: float, hold_at_outputs: bool,
                 bound: float = -math.inf):
        self.graph = graph
        self.phi = phi
        self.setup = setup
        self.hold = hold
        self.hold_at_outputs = hold_at_outputs
        self.bound = bound
        self._tails = graph.edge_arrays()[0].tolist()
        self._weights: np.ndarray | None = None
        self._fanout: list[int] = []
        # Recompute priority: a vertex's position in a zero-weight
        # topological order, lowered on the fly where a retiming made
        # a fan-in rank at or above its fanout.
        self._rank: list[int] = []
        self._lists: tuple[list[float], list[float], list[int], list[int],
                           list[int], list[int]] | None = None
        # Edge index -> (eidx, u, v, length) of every short registered
        # edge (u, v).
        self._short: dict[int, tuple[int, int, int, float]] = {}
        self.updates = 0
        self.full_passes = 0

    def update(self, weights: np.ndarray,
               ) -> tuple[list[float], list[float], list[int], list[int],
                          list[int], list[int]]:
        """``label_lists(graph, weights, ...)``, paying only for what
        changed since the previous update."""
        self.updates += 1
        previous, self._weights = self._weights, weights
        if previous is not None:
            changed = np.flatnonzero(weights != previous)
            if not changed.size:
                return self._lists
            edges = changed.tolist()
            fanout = self._fanout
            heads = self.graph.edge_arrays()[1]
            for eidx, w, v in zip(edges, weights[changed].tolist(),
                                  heads[changed].tolist()):
                fanout[eidx] = -1 if w > 0 else v
            tails = self._tails
            moved = self._relabel({tails[eidx] for eidx in edges} - {0})
            if moved is not None:
                if self.bound > -math.inf:
                    self._reshort(edges, moved)
                return self._lists
        self._full_pass(weights)
        return self._lists

    def _full_pass(self, weights: np.ndarray) -> None:
        """Everything from scratch: the labels, a fresh rank, the fanout
        and the short-path set."""
        self.full_passes += 1
        graph = self.graph
        order = graph.zero_weight_order(weights)
        self._lists = _labels_along(graph, weights, order, self.phi,
                                    self.setup, self.hold,
                                    self.hold_at_outputs)
        rank = self._rank = [0] * graph.n_vertices
        for position, v in enumerate(order):
            rank[v] = position
        self._fanout = np.where(weights > 0, -1,
                                graph.edge_arrays()[1]).tolist()
        self._short = {path[0]: path for path in short_register_paths(
            graph, weights, self._lists[1], self.phi, self.hold,
            self.bound)}

    def short_paths(self) -> list[tuple[int, int, int, float]]:
        """``short_register_paths`` at the last update's weights and
        this instance's bound: ``(eidx, u, v, length)`` in edge order."""
        short = self._short
        return [short[eidx] for eidx in sorted(short)]

    def _reshort(self, edges: list[int], moved: list[int]) -> None:
        """Re-evaluate the short-path test of ``edges`` and of the
        registered in-edges of the ``moved`` vertices."""
        fanout = self._fanout
        graph_edges = self.graph.edges
        in_edges = self.graph.in_edges
        delays = self.graph.delays
        R = self._lists[1]
        short = self._short
        window = self.phi + self.hold
        bound = self.bound
        candidates = set(edges)
        for v in moved:
            candidates.update(in_edges[v])
        for eidx in candidates:
            if fanout[eidx] < 0:
                edge = graph_edges[eidx]
                v = edge.v
                if v != 0 and math.isfinite(R[v]):
                    length = delays[v] + (window - R[v])
                    if length < bound:
                        short[eidx] = (eidx, edge.u, v, length)
                        continue
            short.pop(eidx, None)

    def _relabel(self, pending: set[int]) -> list[int] | None:
        """Recompute ``pending`` vertices until no label moves; the
        vertices whose ``R`` moved, or None once the recomputes outnumber
        the vertices (the caller then runs a full pass, which also
        refreshes the rank).

        Vertices are recomputed fanout first (highest rank first), so a
        vertex is normally recomputed once, after every fanout whose
        label moved.  A stale rank can still recompute a vertex several
        times; the cutoff bounds an update at about two full passes.
        """
        graph = self.graph
        out_edges = graph.out_edges
        in_edges = graph.in_edges
        delays = graph.delays
        tails = self._tails
        fanout = self._fanout
        rank = self._rank
        isfinite = math.isfinite
        hold_at_outputs = self.hold_at_outputs
        window_left = self.phi - self.setup
        window_right = self.phi + self.hold
        L, R, lt, rt, lsucc, rsucc = self._lists
        moved: list[int] = []
        heap = [(-rank[u], u) for u in pending]
        heapq.heapify(heap)
        budget = graph.n_vertices
        while heap:
            budget -= 1
            if budget < 0:
                return None
            u = heapq.heappop(heap)[1]
            pending.discard(u)
            Lu, Ru, ltu, rtu, lsu, rsu = math.inf, -math.inf, -1, -1, -1, -1
            for eidx in out_edges[u]:
                v = fanout[eidx]
                if v <= 0:  # latched: registered edge or primary output
                    if window_left < Lu:
                        Lu, ltu, lsu = window_left, u, -1
                    if (v < 0 or hold_at_outputs) and window_right > Ru:
                        Ru, rtu, rsu = window_right, u, -1
                elif isfinite(L[v]):  # else the fanout is unobservable
                    left = L[v] - delays[v]
                    right = R[v] - delays[v]
                    if left < Lu:
                        Lu, ltu, lsu = left, lt[v], v
                    if right > Ru:
                        Ru, rtu, rsu = right, rt[v], v
            lsucc[u] = lsu
            rsucc[u] = rsu
            if Lu == L[u] and Ru == R[u] and ltu == lt[u] and rtu == rt[u]:
                continue
            if Ru != R[u]:
                moved.append(u)
            L[u], R[u], lt[u], rt[u] = Lu, Ru, ltu, rtu
            for eidx in in_edges[u]:
                if fanout[eidx] == u:  # register-free edge into u
                    p = tails[eidx]
                    if p and p not in pending:
                        if rank[p] >= rank[u]:
                            rank[p] = rank[u] - 1
                        pending.add(p)
                        heapq.heappush(heap, (-rank[p], p))
        return moved


def short_register_paths(graph: RetimingGraph, weights: np.ndarray,
                         R: Sequence[float], phi: float, hold: float,
                         bound: float,
                         ) -> Iterator[tuple[int, int, int, float]]:
    """Register-to-register paths shorter than ``bound``, one per
    registered internal edge.

    Yields ``(eidx, u, v, length)`` in edge order for each edge
    ``(u, v)`` with ``w_r > 0`` and ``v`` a gate whose shortest path
    ``d(v) + (phi + T_h - R(v))`` (Sec. III-C) is below ``bound``.
    ``R`` must come from :func:`label_lists` at the same ``weights``,
    ``phi`` and ``hold``; see :func:`min_register_path` for the model.
    """
    u_arr, v_arr, _ = graph.edge_arrays()
    registered = np.flatnonzero((weights > 0) & (v_arr != 0))
    delays = graph.delays
    isfinite = math.isfinite
    window = phi + hold
    for eidx, u, v in zip(registered.tolist(), u_arr[registered].tolist(),
                          v_arr[registered].tolist()):
        if isfinite(R[v]):
            length = delays[v] + (window - R[v])
            if length < bound:
                yield eidx, u, v, length


def min_register_path(graph: RetimingGraph, r: Sequence[int] | np.ndarray,
                      phi: float, setup: float, hold: float,
                      hold_at_outputs: bool = True) -> float:
    """Minimal register-to-register path length under retiming ``r``.

    The quantity P2' bounds from below by R_min (Sec. III-C), Sec. V
    picks R_min from, and the Lin-Zhou hold condition requires to be at
    least ``T_h``.  The model:

    * a path is launched by a registered edge ``(u, v)`` into a gate
      ``v`` -- registered primary-input edges (``u`` the host) count --
      and runs through ``v`` along register-free edges to the next latch
      point; its length is the summed gate delay, ``v`` included;
    * a registered edge is a latch point, and so is a register-free edge
      into a primary output when ``hold_at_outputs`` is set (the paper's
      P2'); without it primary outputs capture for setup only;
    * a chain of ``w_r >= 2`` registers on one internal edge is a
      zero-delay register-to-register path, but is *not* counted: every
      path is measured through a fanout gate.

    ``+inf`` when no registered edge reaches a latch point.
    """
    weights = graph.retimed_weights(r)
    R = label_lists(graph, weights, phi, setup, hold, hold_at_outputs)[1]
    return min((length for _, _, _, length in short_register_paths(
        graph, weights, R, phi, hold, math.inf)), default=math.inf)
