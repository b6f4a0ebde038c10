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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

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


@dataclass
class BoundaryLabels:
    """The L/R boundary labels of eq. (6) plus critical-path terminals.

    Attributes
    ----------
    L, R:
        Outer ELW boundaries at each vertex output.  Unobservable vertices
        (no path to a register or primary output) get ``L = +inf`` and
        ``R = -inf`` (an empty window).
    lt, rt:
        Index of the last gate on the critical longest (resp. shortest)
        path starting at each vertex; ``-1`` for unobservable vertices.
        ``lt(v) == v`` when the critical path is the direct latch at ``v``'s
        own registered fanout edge.
    lsucc, rsucc:
        Next gate on the critical longest (resp. shortest) path from each
        vertex; ``-1`` when the vertex is itself the terminal (or
        unobservable).  Following ``rsucc`` from ``v`` walks the critical
        shortest path ``v -> ... -> rt(v)``.
    phi, setup, hold:
        The clock parameters the labels were computed with.
    """

    L: np.ndarray
    R: np.ndarray
    lt: np.ndarray
    rt: np.ndarray
    lsucc: np.ndarray
    rsucc: np.ndarray
    phi: float
    setup: float
    hold: float

    def shortest_path_vertices(self, v: int) -> list[int]:
        """Vertices of the critical shortest path ``v -> ... -> rt(v)``."""
        return critical_path(self.rsucc, v)

    def longest_path_vertices(self, v: int) -> list[int]:
        """Vertices of the critical longest path ``v -> ... -> lt(v)``."""
        return critical_path(self.lsucc, v)

    def observable(self) -> np.ndarray:
        """Boolean mask of vertices with a non-empty latching window."""
        return np.isfinite(self.L)


def critical_path(succ: Sequence[int] | np.ndarray, v: int) -> list[int]:
    """The path ``v -> succ[v] -> ...`` up to the vertex whose successor
    is ``-1``: a critical path when ``succ`` is ``lsucc`` or ``rsucc``."""
    path = [v]
    while succ[v] >= 0:
        v = int(succ[v])
        path.append(v)
    return path


def boundary_labels(graph: RetimingGraph, r: Sequence[int] | np.ndarray,
                    phi: float, setup: float = 0.0,
                    hold: float = 2.0,
                    hold_at_outputs: bool = True) -> BoundaryLabels:
    """Compute eq. (6)'s ``L``/``R`` labels under retiming ``r``.

    Contributions per fanout edge ``(u, v)``:

    * registered edge or edge into the host (primary output): the latching
      window boundary ``(phi - setup, phi + hold)`` — the paper's
      ``g in RO`` case;
    * register-free edge to gate ``v``: ``(L(v) - d(v), R(v) - d(v))``.

    ``L(u)`` is the minimum and ``R(u)`` the maximum over contributions,
    i.e. the tight outer boundaries asserted by Theorem 1.

    ``hold_at_outputs=False`` removes the *R-side* contribution of
    register-free edges into the host: primary outputs then count as
    latch points for setup (L) and ELWs but not as capture points for
    shortest-path / hold analysis (used by the Lin-Zhou style
    initialization, where hold constrains register-to-register paths
    only; the paper's P2' keeps the default True).
    """
    L, R, lt, rt, lsucc, rsucc = label_lists(
        graph, graph.retimed_weights(r), phi, setup, hold, hold_at_outputs)
    return BoundaryLabels(
        L=np.array(L, dtype=float), R=np.array(R, dtype=float),
        lt=np.array(lt, dtype=np.int64), rt=np.array(rt, dtype=np.int64),
        lsucc=np.array(lsucc, dtype=np.int64),
        rsucc=np.array(rsucc, dtype=np.int64),
        phi=phi, setup=setup, hold=hold)


def label_lists(graph: RetimingGraph, weights: np.ndarray, phi: float,
                setup: float, hold: float, hold_at_outputs: bool,
                ) -> tuple[list[float], list[float], list[int], list[int],
                           list[int], list[int]]:
    """:func:`boundary_labels` as plain lists ``(L, R, lt, rt, lsucc,
    rsucc)``, from the retimed edge weights ``w_r``.

    One O(|V| + |E|) pass in reverse topological order over the
    zero-weight subgraph; the constraint checker consumes the lists
    directly.
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


def shortest_path_through(graph: RetimingGraph, labels: BoundaryLabels,
                          v: int) -> float:
    """Shortest register-to-register path through register-fanout gate ``v``.

    For a registered edge ``(u, v)`` the data launched by the register
    travels through ``v`` and reaches the next latching point after at
    least ``d(v) + (phi + T_h - R(v))`` time (Sec. III-C).  This is the
    quantity constrained by P2'; ``+inf`` when ``v`` is unobservable.
    """
    if not math.isfinite(labels.R[v]):
        return math.inf
    return graph.delays[v] + (labels.phi + labels.hold - float(labels.R[v]))


class TimingAnalysis:
    """Cached timing view of ``(graph, r)`` for one clock configuration.

    Bundles arrival times and boundary labels; used by the constraint
    checker and the SER engine so each algorithm iteration runs exactly one
    O(|E|) timing pass.
    """

    def __init__(self, graph: RetimingGraph, r: Sequence[int] | np.ndarray,
                 phi: float, setup: float = 0.0, hold: float = 2.0):
        self.graph = graph
        self.r = np.asarray(r, dtype=np.int64).copy()
        self.phi = phi
        self.setup = setup
        self.hold = hold
        self.weights = graph.retimed_weights(self.r)
        self.delta = arrival_times(graph, self.r)
        self.labels = boundary_labels(graph, self.r, phi, setup, hold)

    def setup_ok(self) -> bool:
        """True when every combinational path meets setup at ``phi``."""
        return bool(self.delta.max() <= self.phi - self.setup + 1e-9) \
            if len(self.delta) else True

    def elw_bound(self, v: int) -> float:
        """``R(v) - L(v)``: the paper's upper bound on ``|ELW(v)|``."""
        L, R = self.labels.L[v], self.labels.R[v]
        if not math.isfinite(L):
            return 0.0
        return float(R - L)
