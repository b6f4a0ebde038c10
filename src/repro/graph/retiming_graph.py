"""The Leiserson-Saxe retiming graph.

A sequential circuit is modeled as a directed graph ``G = (V, E)`` whose
vertices are the combinational gates plus a distinguished *host* vertex
representing the environment (Sec. III-A of the paper).  Each vertex carries
a delay ``d(v) >= 0``; each edge carries a register count ``w(e) >= 0``.  A
retiming is an integer vertex label ``r`` with ``r(host) = 0``; the retimed
register count of edge ``(u, v)`` is ``w_r(u, v) = w(u, v) + r(v) - r(u)``.

Every edge also records *provenance* (which gate input port or primary
output it came from) and its *source net* name, so that a retimed graph can
be rebuilt into a circuit and so the observability of the registers sitting
on the edge (= the observability of the source net, Sec. III-B) can be
looked up.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .._util import nogc, topological_order
from ..errors import NetlistError, RetimingError
from ..netlist.circuit import Circuit

#: Name of the host vertex (always index 0).
HOST = "__host__"


@dataclass(slots=True)
class Edge:
    """A retiming-graph edge.

    Attributes
    ----------
    u, v:
        Source and sink vertex indices.
    w:
        Register count in the reference (un-retimed) circuit.
    src_net:
        Name of the net driven by the source (gate output or primary-input
        name); registers on this edge take this net's observability.
    tag:
        Provenance: ``("gate_in", gate_name, port)`` for a gate input
        connection, ``("po", output_index)`` for a primary output.
    """

    u: int
    v: int
    w: int
    src_net: str
    tag: tuple


class RetimingGraph:
    """Retiming graph with vertex delays, edge weights and retiming algebra.

    Vertex 0 is always the host.  Construct with
    :meth:`RetimingGraph.from_circuit` or programmatically via
    :meth:`add_vertex` / :meth:`add_edge` (useful in tests).
    """

    def __init__(self) -> None:
        self.names: list[str] = [HOST]
        self.index: dict[str, int] = {HOST: 0}
        self.delays: list[float] = [0.0]
        self.edges: list[Edge] = []
        self.out_edges: list[list[int]] = [[]]
        self.in_edges: list[list[int]] = [[]]
        self._edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | \
            None = None
        # zero_arrivals() result: the vector, or the message of the
        # register-free cycle that has none.
        self._zero_arrivals: np.ndarray | str | None = None
        #: FEAS probes run on this graph (a statistic for the trace).
        self.feas_probes = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, name: str, delay: float) -> int:
        """Add a combinational vertex; returns its index."""
        if name in self.index:
            raise NetlistError(f"duplicate vertex {name!r}")
        if delay < 0:
            raise NetlistError(f"vertex {name!r} has negative delay")
        idx = len(self.names)
        self.names.append(name)
        self.index[name] = idx
        self.delays.append(float(delay))
        self.out_edges.append([])
        self.in_edges.append([])
        self._zero_arrivals = None
        return idx

    def add_edge(self, u: int | str, v: int | str, w: int,
                 src_net: str | None = None, tag: tuple = ()) -> int:
        """Add an edge with ``w`` registers; returns the edge index."""
        ui = self.index[u] if isinstance(u, str) else u
        vi = self.index[v] if isinstance(v, str) else v
        if w < 0:
            raise NetlistError("edge weight must be non-negative")
        if src_net is None:
            src_net = self.names[ui]
        eidx = len(self.edges)
        self.edges.append(Edge(ui, vi, int(w), src_net, tag))
        self.out_edges[ui].append(eidx)
        self.in_edges[vi].append(eidx)
        self._edge_arrays = None
        self._zero_arrivals = None
        return eidx

    @classmethod
    @nogc
    def from_circuit(cls, circuit: Circuit) -> "RetimingGraph":
        """Build the retiming graph of ``circuit``.

        Register chains between combinational endpoints become edge
        weights; primary inputs and outputs connect to the host vertex.
        A primary output fed (possibly through registers) by a primary
        input becomes a fixed host-to-host edge.

        Builds exactly what :meth:`add_vertex` per gate and
        :meth:`add_edge` per connection would, without their per-call
        checks: gate names are distinct and every edge weight is a
        register count.
        """
        graph = cls()
        if HOST in circuit.gates:
            raise NetlistError(f"duplicate vertex {HOST!r}")
        names, index, delays = graph.names, graph.index, graph.delays
        edges, out_edges, in_edges = graph.edges, graph.out_edges, \
            graph.in_edges
        for gate_name in circuit.gates:
            delay = circuit.gate_delay(gate_name)
            if delay < 0:
                raise NetlistError(
                    f"vertex {gate_name!r} has negative delay")
            index[gate_name] = len(names)
            names.append(gate_name)
            delays.append(float(delay))
            out_edges.append([])
            in_edges.append([])

        # Chain of each register; anything else is its own source with
        # no register on the way.  A source that is not a gate is a
        # primary input (constants are gates): the host, vertex 0.
        sources = circuit.register_sources()

        def connect(net: str, vi: int, tag: tuple) -> None:
            source, w = sources.get(net) or (net, 0)
            ui = index.get(source, 0)
            eidx = len(edges)
            edges.append(Edge(ui, vi, w, source, tag))
            out_edges[ui].append(eidx)
            in_edges[vi].append(eidx)

        for vi, gate in enumerate(circuit.gates.values(), start=1):
            name = gate.name
            for port, net in enumerate(gate.inputs):
                connect(net, vi, ("gate_in", name, port))
        for po_index, net in enumerate(circuit.outputs):
            connect(net, 0, ("po", po_index))
        return graph

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices including the host."""
        return len(self.names)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def zero_retiming(self) -> np.ndarray:
        """The identity retiming (all zeros)."""
        return np.zeros(self.n_vertices, dtype=np.int64)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(u, v, w)`` vectors over all edges (do not mutate)."""
        if self._edge_arrays is None:
            n = self.n_edges
            u = np.fromiter((e.u for e in self.edges), dtype=np.int64,
                            count=n)
            v = np.fromiter((e.v for e in self.edges), dtype=np.int64,
                            count=n)
            w = np.fromiter((e.w for e in self.edges), dtype=np.int64,
                            count=n)
            self._edge_arrays = (u, v, w)
        return self._edge_arrays

    def zero_arrivals(self) -> np.ndarray:
        """Cached :func:`~repro.graph.timing.arrival_times` under the
        zero retiming (do not mutate).

        Raises :class:`RetimingError` on every call when the unretimed
        graph has a register-free cycle.
        """
        if self._zero_arrivals is None:
            from .timing import arrival_times

            try:
                self._zero_arrivals = arrival_times(self,
                                                    self.zero_retiming())
            except RetimingError as exc:
                self._zero_arrivals = str(exc)
        if isinstance(self._zero_arrivals, str):
            raise RetimingError(self._zero_arrivals)
        return self._zero_arrivals

    def retimed_weights(self, r: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vector of ``w_r(e)`` for all edges under retiming ``r``."""
        r = np.asarray(r, dtype=np.int64)
        u, v, w = self.edge_arrays()
        return w + r[v] - r[u]

    def validate_retiming(self, r: Sequence[int] | np.ndarray) -> None:
        """Raise :class:`RetimingError` unless ``r`` is a valid retiming.

        Validity (the paper's P0): ``r(host) = 0`` and ``w_r(e) >= 0`` for
        every edge.
        """
        r = np.asarray(r, dtype=np.int64)
        if len(r) != self.n_vertices:
            raise RetimingError(
                f"retiming has {len(r)} labels, graph has {self.n_vertices}")
        if r[0] != 0:
            raise RetimingError("retiming must fix r(host) = 0")
        weights = self.retimed_weights(r)
        bad = np.nonzero(weights < 0)[0]
        if bad.size:
            e = self.edges[int(bad[0])]
            raise RetimingError(
                f"negative register count on edge "
                f"{self.names[e.u]} -> {self.names[e.v]}: "
                f"{e.w} + {int(r[e.v])} - {int(r[e.u])}")

    def is_valid_retiming(self, r: Sequence[int] | np.ndarray) -> bool:
        """True when ``r`` satisfies P0 (see :meth:`validate_retiming`)."""
        try:
            self.validate_retiming(r)
        except RetimingError:
            return False
        return True

    # ------------------------------------------------------------------
    # Register counting
    # ------------------------------------------------------------------

    def register_count(self, r: Sequence[int] | np.ndarray | None = None,
                       *, shared: bool = True) -> int:
        """Total number of registers under retiming ``r``.

        With ``shared=True`` (the physically accurate count used for the
        Table-I ``#FF`` columns), registers on the fanout edges of the same
        source net share a chain: the cost per source net is the *maximum*
        ``w_r`` over its fanout edges.  With ``shared=False`` the plain sum
        of edge weights is returned (the Leiserson-Saxe edge-count model).
        """
        if r is None:
            weights: np.ndarray | list[int] = [e.w for e in self.edges]
        else:
            weights = self.retimed_weights(r)
        if not shared:
            return int(sum(weights))
        per_net: dict[str, int] = {}
        for e, w in zip(self.edges, weights):
            w = int(w)
            if w > per_net.get(e.src_net, 0):
                per_net[e.src_net] = w
        return int(sum(per_net.values()))

    # ------------------------------------------------------------------
    # Structural checks and orders
    # ------------------------------------------------------------------

    def cycles_have_registers(self) -> bool:
        """True when every directed cycle carries at least one register.

        Equivalent to the zero-weight subgraph (under ``w``) being acyclic
        once the host is removed; host-through paths are not cycles of the
        sequential circuit.
        """
        try:
            self.zero_weight_topo(self.zero_retiming())
        except RetimingError:
            return False
        return True

    def zero_weight_topo(self, r: Sequence[int] | np.ndarray) -> list[int]:
        """Topological order of non-host vertices over zero-weight edges.

        Edges touching the host are ignored: combinational paths through
        the environment are not circuit paths.  Raises
        :class:`RetimingError` when the zero-weight subgraph is cyclic
        (i.e. ``r`` leaves a register-free loop, which no clock period can
        accommodate).
        """
        return self.zero_weight_order(self.retimed_weights(r))

    def zero_weight_order(self, weights: np.ndarray) -> list[int]:
        """:meth:`zero_weight_topo` from precomputed ``w_r`` edge weights."""
        u, v, _ = self.edge_arrays()
        n = self.n_vertices
        mask = (weights == 0) & (u != 0) & (v != 0)
        indegree = np.bincount(v[mask], minlength=n).tolist()
        # Sink of every zero-weight gate-to-gate edge, 0 for the others.
        succ = np.where(mask, v, 0).tolist()
        out_edges = self.out_edges
        stack = [x for x in range(1, n) if indegree[x] == 0]
        order: list[int] = []
        while stack:
            node = stack.pop()
            order.append(node)
            for eidx in out_edges[node]:
                s = succ[eidx]
                if s:
                    indegree[s] -= 1
                    if indegree[s] == 0:
                        stack.append(s)
        if len(order) != n - 1:
            # Slow path only to produce a helpful cycle message.
            preds: list[list[int]] = [[] for _ in range(n)]
            for uu, vv in zip(u[mask].tolist(), v[mask].tolist()):
                preds[vv].append(uu)
            try:
                topological_order(range(1, n), lambda x: preds[x])
            except Exception as exc:
                raise RetimingError(
                    f"retiming leaves a register-free cycle: {exc}"
                ) from exc
            raise RetimingError(
                "retiming leaves a register-free cycle")  # pragma: no cover
        return order

    def __repr__(self) -> str:
        return (f"RetimingGraph(|V|={self.n_vertices}, |E|={self.n_edges}, "
                f"registers={self.register_count()})")
