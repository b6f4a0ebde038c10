"""Retiming verification: invariants, initial states, and equivalence.

Three layers of assurance:

* :func:`check_cycle_weights` -- the algebraic invariant of retiming: the
  register count of every directed cycle is unchanged (checked by one
  linear potential pass, no cycle enumeration).
* :func:`forward_initial_states` -- exact equivalent initial states for
  *forward* retimings (every ``r(v) <= 0``): replaying the retiming as
  atomic forward moves, each move consumes one register per gate input
  and emits one register at the output initialized with the gate function
  of the consumed values.  Both solvers only move registers forward, so
  this covers the whole pipeline.
* :func:`check_sequential_equivalence` -- cycle-accurate bit-parallel
  co-simulation of two circuits on a shared random input trace.
"""

from __future__ import annotations

import numpy as np

from ..errors import RetimingError, SimulationError
from ..graph.retiming_graph import RetimingGraph
from ..netlist.cell_library import evaluate_op
from ..netlist.circuit import Circuit
from ..sim.bitvec import popcount, random_patterns
from ..sim.sequential import SequentialSimulator


def check_cycle_weights(graph: RetimingGraph, r: np.ndarray) -> bool:
    """Verify register conservation on every directed cycle.

    ``sum_e w(e) == sum_e w_r(e)`` holds on every cycle of the non-host
    subgraph when the per-edge change ``w_r(e) - w(e)`` is a potential
    difference ``p(v) - p(u)``: the changes then telescope to 0 around
    any closed walk.  One O(|V| + |E|) traversal builds ``p`` from the
    changes over each connected component of the non-host edges,
    ignoring directions, and fails on the first edge that contradicts
    it; ``p`` is never read from ``r``.  False therefore means that some
    cycle of the undirected non-host graph changed its register count.

    Always true algebraically for a label with ``r(host) = 0`` -- this
    guards the *implementation* (edge bookkeeping), not the algebra.
    """
    u, v, w = graph.edge_arrays()
    change = (graph.retimed_weights(r) - w).tolist()
    sources, sinks = u.tolist(), v.tolist()
    potential: list[int | None] = [None] * graph.n_vertices
    for root in range(1, graph.n_vertices):
        if potential[root] is not None:
            continue
        potential[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            p_x = potential[x]
            # Out-edge (x, y) fixes p(y) = p(x) + change; in-edge (y, x)
            # fixes p(y) = p(x) - change.
            for eidx in graph.out_edges[x]:
                y = sinks[eidx]
                if y != 0:
                    expected = p_x + change[eidx]
                    if potential[y] is None:
                        potential[y] = expected
                        stack.append(y)
                    elif potential[y] != expected:
                        return False
            for eidx in graph.in_edges[x]:
                y = sources[eidx]
                if y != 0:
                    expected = p_x - change[eidx]
                    if potential[y] is None:
                        potential[y] = expected
                        stack.append(y)
                    elif potential[y] != expected:
                        return False
    return True


def _edge_register_inits(circuit: Circuit,
                         graph: RetimingGraph) -> list[list[int]]:
    """Initial values of the registers on every graph edge, source-first."""
    inits: list[list[int]] = []
    for e in graph.edges:
        if e.tag and e.tag[0] == "gate_in":
            net = circuit.gates[e.tag[1]].inputs[e.tag[2]]
        elif e.tag and e.tag[0] == "po":
            net = circuit.outputs[e.tag[1]]
        else:
            inits.append([])
            continue
        chain: list[int] = []
        while net in circuit.dffs:
            chain.append(circuit.dffs[net].init)
            net = circuit.dffs[net].d
        chain.reverse()  # nearest-source first
        if len(chain) != e.w:
            raise RetimingError(
                f"edge bookkeeping mismatch on {e.tag}: traced "
                f"{len(chain)} registers, graph says {e.w}")
        inits.append(chain)
    return inits


def forward_initial_states(circuit: Circuit, graph: RetimingGraph,
                           r: np.ndarray) -> dict[str, list[int]]:
    """Equivalent initial states for a forward retiming (``r <= 0``).

    Returns ``chain_inits`` suitable for
    :func:`repro.retime.apply.apply_retiming`: per source net the initial
    values of its new register chain, nearest-source first.

    Raises
    ------
    RetimingError
        If some ``r(v) > 0`` (backward moves have no forward state
        computation), if move replay deadlocks, or if fanout edges of one
        source disagree on an initial value (unshareable chains).
    """
    r = np.asarray(r, dtype=np.int64)
    graph.validate_retiming(r)
    if (r[1:] > 0).any():
        bad = graph.names[1 + int(np.argmax(r[1:] > 0))]
        raise RetimingError(
            f"retiming moves registers backward through {bad!r}; "
            "initial states cannot be forwarded")

    edge_regs = _edge_register_inits(circuit, graph)
    remaining = (-r).astype(np.int64)
    remaining[0] = 0

    in_edges_sorted: dict[int, list[int]] = {}
    for v in range(1, graph.n_vertices):
        ordered = sorted(
            graph.in_edges[v],
            key=lambda i: graph.edges[i].tag[2] if graph.edges[i].tag else 0)
        in_edges_sorted[v] = ordered

    pending = [v for v in range(1, graph.n_vertices) if remaining[v] > 0]
    guard = int(remaining.sum()) + graph.n_vertices + 1
    while pending:
        guard -= 1
        if guard < 0:
            raise RetimingError(
                "forward-move replay deadlocked (invalid retiming?)")
        progressed = False
        next_round: list[int] = []
        for v in pending:
            moved_any = False
            while remaining[v] > 0 and all(
                    edge_regs[i] for i in in_edges_sorted[v]):
                values = [edge_regs[i].pop() for i in in_edges_sorted[v]]
                gate = circuit.gates[graph.names[v]]
                init = evaluate_op(gate.op, values)
                for out_idx in graph.out_edges[v]:
                    edge_regs[out_idx].insert(0, init)
                remaining[v] -= 1
                moved_any = True
            if remaining[v] > 0:
                next_round.append(v)
            if moved_any:
                progressed = True
                guard = int(remaining.sum()) + graph.n_vertices + 1
        if next_round and not progressed:
            raise RetimingError(
                "forward-move replay deadlocked (invalid retiming?)")
        pending = next_round

    weights = graph.retimed_weights(r)
    chain_inits: dict[str, list[int]] = {}
    for eidx, e in enumerate(graph.edges):
        regs = edge_regs[eidx]
        if len(regs) != int(weights[eidx]):
            raise RetimingError(
                f"replay produced {len(regs)} registers on edge "
                f"{graph.names[e.u]} -> {graph.names[e.v]}, expected "
                f"{int(weights[eidx])}")
        known = chain_inits.setdefault(e.src_net, [])
        for pos, val in enumerate(regs):
            if pos < len(known):
                if known[pos] != val:
                    raise RetimingError(
                        f"fanout edges of {e.src_net!r} disagree on the "
                        f"initial value at chain depth {pos + 1}; chains "
                        "cannot be shared")
            else:
                known.append(val)
    return chain_inits


def check_sequential_equivalence(first: Circuit, second: Circuit,
                                 cycles: int = 32, n_patterns: int = 128,
                                 seed: int = 0) -> tuple[bool, int]:
    """Co-simulate two circuits on one random input trace.

    The circuits must have identical primary-input names and equally many
    primary outputs (compared positionally).  Returns ``(equal,
    first_bad_cycle)`` with ``first_bad_cycle == -1`` when equal.
    """
    if set(first.inputs) != set(second.inputs):
        raise SimulationError("circuits have different primary inputs")
    if len(first.outputs) != len(second.outputs):
        raise SimulationError("circuits have different output counts")
    rng = np.random.default_rng(seed)
    sim1 = SequentialSimulator(first, n_patterns)
    sim2 = SequentialSimulator(second, n_patterns)
    for cycle in range(cycles):
        pis = {net: random_patterns(n_patterns, rng) for net in first.inputs}
        nets1 = sim1.step(pis)
        nets2 = sim2.step(pis)
        for po1, po2 in zip(first.outputs, second.outputs):
            if popcount(nets1[po1] ^ nets2[po2]):
                return False, cycle
    return True, -1
