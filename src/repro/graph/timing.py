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
    order = graph.zero_weight_order(weights)
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
    """The :func:`label_lists` lists kept current across edits of ``w_r``.

    A walk that changes a few registers per step owns one instance and
    calls :meth:`update` with each new valid weight vector.  The first
    update is one full :func:`label_lists` pass.  Later updates diff the
    weights against the previous update's and recompute only the tails
    of the changed edges, with :func:`label_lists`' own rule per vertex
    (same edge order, same strict comparisons, same terminal and
    successor updates).  A vertex whose ``L``/``R``/``lt``/``rt`` moved
    queues its zero-weight fan-in in turn.

    Exact: the labels are the unique solution of the per-vertex rule
    over the zero-weight subgraph, a DAG under every valid retiming, so
    the recompute order cannot change the result.  Only valid weights
    (``w_r >= 0``) may be passed; skipping invalid states is fine, as the
    next update diffs against the last one it saw.  The lists are owned
    by the instance and change in place on the next update.
    """

    def __init__(self, graph: RetimingGraph, phi: float, setup: float,
                 hold: float, hold_at_outputs: bool):
        self.graph = graph
        self.phi = phi
        self.setup = setup
        self.hold = hold
        self.hold_at_outputs = hold_at_outputs
        self._tails = graph.edge_arrays()[0].tolist()
        self._weights: np.ndarray | None = None
        self._fanout: list[int] = []
        self._lists: tuple[list[float], list[float], list[int], list[int],
                           list[int], list[int]] | None = None

    def update(self, weights: np.ndarray,
               ) -> tuple[list[float], list[float], list[int], list[int],
                          list[int], list[int]]:
        """``label_lists(graph, weights, ...)``, paying only for what
        changed since the previous update."""
        graph = self.graph
        previous, self._weights = self._weights, weights
        if previous is None:
            self._lists = label_lists(graph, weights, self.phi, self.setup,
                                      self.hold, self.hold_at_outputs)
            self._fanout = np.where(weights > 0, -1,
                                    graph.edge_arrays()[1]).tolist()
            return self._lists
        changed = np.flatnonzero(weights != previous)
        if changed.size:
            tails, heads, _ = graph.edge_arrays()
            fanout = self._fanout
            for eidx, w, v in zip(changed.tolist(),
                                  weights[changed].tolist(),
                                  heads[changed].tolist()):
                fanout[eidx] = -1 if w > 0 else v
            self._relabel(set(tails[changed].tolist()) - {0})
        return self._lists

    def _relabel(self, pending: set[int]) -> None:
        """Recompute ``pending`` vertices until no label moves."""
        graph = self.graph
        out_edges = graph.out_edges
        in_edges = graph.in_edges
        delays = graph.delays
        tails = self._tails
        fanout = self._fanout
        isfinite = math.isfinite
        hold_at_outputs = self.hold_at_outputs
        window_left = self.phi - self.setup
        window_right = self.phi + self.hold
        L, R, lt, rt, lsucc, rsucc = self._lists
        queue = list(pending)
        while queue:
            u = queue.pop()
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
            L[u], R[u], lt[u], rt[u] = Lu, Ru, ltu, rtu
            for eidx in in_edges[u]:
                if fanout[eidx] == u:  # register-free edge into u
                    p = tails[eidx]
                    if p and p not in pending:
                        pending.add(p)
                        queue.append(p)


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
