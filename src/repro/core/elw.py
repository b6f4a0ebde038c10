"""Exact error-latching windows (eq. 3).

The ELW of a gate is the set of glitch birth times that get latched
somewhere downstream: ``[phi - T_s, phi + T_h]`` at register inputs and
primary outputs, and ``union over fanouts f of (ELW(f) - d(f))`` through
combinational fanout (eq. 3).  Unlike the L/R boundary labels used inside
the optimization (eq. 6), these are exact interval unions -- the paper's
SER numbers are computed with "the real size of the ELW" (Sec. VI), and so
are ours.

Two views are provided:

* :func:`graph_elws` -- per retiming-graph vertex, under an arbitrary
  retiming label (used by analyses that stay in graph space);
* :func:`circuit_elws` -- per netlist net, covering gates *and* registers
  (a register is a zero-delay wire through the register boundary:
  its window comes from its readers; a register feeding another register
  is latched directly).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..cache import cached, timing_digest
from ..graph.retiming_graph import RetimingGraph
from ..netlist.circuit import Circuit
from ..telemetry import REGISTRY, spans as telemetry
from .intervals import IntervalSet


def latching_window(phi: float, setup: float, hold: float) -> IntervalSet:
    """The register latching window ``[phi - T_s, phi + T_h]``."""
    return IntervalSet.single(phi - setup, phi + hold)


def graph_elws(graph: RetimingGraph, r: Sequence[int] | np.ndarray,
               phi: float, setup: float = 0.0,
               hold: float = 2.0) -> list[IntervalSet]:
    """Exact ELW of every retiming-graph vertex under retiming ``r``.

    Registered fanout edges and edges into the host (primary outputs)
    contribute the latching window; register-free edges contribute the
    fanout's ELW shifted by the fanout's delay.  The host entry (index 0)
    is the empty set.
    """
    weights = graph.retimed_weights(r)
    order = graph.zero_weight_topo(r)
    window = latching_window(phi, setup, hold)
    elws: list[IntervalSet] = [IntervalSet.empty()] * graph.n_vertices
    for u in reversed(order):
        parts: list[IntervalSet] = []
        for eidx in graph.out_edges[u]:
            edge = graph.edges[eidx]
            if edge.v == 0 or weights[eidx] > 0:
                parts.append(window)
            else:
                parts.append(elws[edge.v] - graph.delays[edge.v])
        if parts:
            elws[u] = parts[0].union(*parts[1:])
    return elws


def _encode_elws(elws: Mapping[str, IntervalSet]) -> dict:
    """Cache encoding: interval endpoint pairs per net.

    Endpoints are Python floats (exact JSON round-trip); the
    :class:`IntervalSet` constructor is the identity on already-disjoint
    sorted pairs, so a decoded set compares ``==`` to the original.
    """
    return {net: [[left, right] for left, right in elw.intervals]
            for net, elw in elws.items()}


def _decode_elws(payload: Mapping[str, list]) -> dict[str, IntervalSet]:
    return {net: IntervalSet(pairs) for net, pairs in payload.items()}


def circuit_elws(circuit: Circuit, phi: float, setup: float = 0.0,
                 hold: float = 2.0) -> dict[str, IntervalSet]:
    """Exact ELW of every net of ``circuit`` (gates, registers and inputs).

    Per net, readers contribute:

    * a register (flip-flop data input): the latching window;
    * a primary output: the latching window (the paper treats POs as
      latch points, ``g in RO``);
    * a gate ``f``: ``ELW(f) - d(f)``.

    Cached under analysis kind ``"elw"`` when an analysis cache is
    active; ELWs depend on gate delays and register timing, so the key
    uses :func:`repro.cache.timing_digest`, not the purely functional
    fingerprint.
    """
    with telemetry.span("elw", circuit=circuit.name):
        params = {"phi": float(phi), "setup": float(setup),
                  "hold": float(hold)}
        return cached("elw", timing_digest(circuit), params,
                      compute=lambda: _circuit_elws_impl(circuit, phi,
                                                         setup, hold),
                      encode=_encode_elws, decode=_decode_elws)


def _circuit_elws_impl(circuit: Circuit, phi: float, setup: float,
                       hold: float) -> dict[str, IntervalSet]:
    window = latching_window(phi, setup, hold)

    from ..flatcore import arena

    flat = arena.flat_for(circuit)
    if flat is not None:
        from ..flatcore.kernels import circuit_elws_flat

        return circuit_elws_flat(flat, window)

    po_nets = set(circuit.outputs)

    # Readers per net.
    gate_readers: dict[str, list[str]] = {n: [] for n in circuit.nets}
    dff_read: dict[str, bool] = {n: False for n in circuit.nets}
    for gate in circuit.gates.values():
        for net in set(gate.inputs):
            gate_readers[net].append(gate.name)
    for dff in circuit.dffs.values():
        dff_read[dff.d] = True

    elws: dict[str, IntervalSet] = {}

    def net_elw(net: str) -> IntervalSet:
        parts: list[IntervalSet] = []
        if net in po_nets or dff_read[net]:
            parts.append(window)
        for reader in gate_readers[net]:
            parts.append(elws[reader] - circuit.gate_delay(reader))
        if not parts:
            return IntervalSet.empty()
        return parts[0].union(*parts[1:])

    for gate_name in reversed(circuit.topo_gates()):
        elws[gate_name] = net_elw(gate_name)
    for net in list(circuit.inputs) + list(circuit.dffs):
        elws[net] = net_elw(net)
    return elws


def _reader_maps(circuit: Circuit) -> tuple[set, dict, dict]:
    """(po_nets, gate_readers, dff_read) of a circuit."""
    po_nets = set(circuit.outputs)
    gate_readers: dict[str, list[str]] = {n: [] for n in circuit.nets}
    dff_read: dict[str, bool] = {n: False for n in circuit.nets}
    for gate in circuit.gates.values():
        for net in set(gate.inputs):
            gate_readers[net].append(gate.name)
    for dff in circuit.dffs.values():
        dff_read[dff.d] = True
    return po_nets, gate_readers, dff_read


def incremental_circuit_elws(circuit: Circuit, base_circuit: Circuit,
                             base_elws: Mapping[str, IntervalSet],
                             phi: float, setup: float = 0.0,
                             hold: float = 2.0,
                             ) -> tuple[dict[str, IntervalSet],
                                        dict[str, int | bool]]:
    """ELWs of ``circuit``, reusing ``base_elws`` where provably valid.

    ``base_elws`` must be :func:`circuit_elws` of ``base_circuit`` at the
    *same* ``(phi, setup, hold)``.  The intended pair is an original
    circuit and a retimed rebuild of it: retiming relocates registers but
    keeps every gate (name, op, delay) and every primary output, so a
    register move perturbs ELWs only along the cones whose
    latch-point structure it touches.

    A net's ELW is a pure function of its *reader signature* -- the
    (is-PO, is-register-read, sorted (gate reader, delay)) triple -- and
    of its gate readers' ELWs.  Walking ``circuit`` in reverse
    topological order, a net whose signature matches the base and whose
    readers' ELWs all proved equal to the base reuses ``base_elws[net]``
    outright; anything else is recomputed locally, and a recomputed net
    whose result still equals the base stops the invalidation from
    propagating further up its fanin cone (exact-equality pruning).

    Whenever the reuse precondition is ambiguous -- the two circuits do
    not share an identical gate set -- the whole function falls back to
    a plain full recompute (correctness over cleverness).

    Returns ``(elws, stats)`` with
    ``stats = {"reused": ..., "recomputed": ..., "fallback": ...}``;
    the result is always element-wise equal to
    ``circuit_elws(circuit, phi, setup, hold)``.
    """
    with telemetry.span("elw.incremental", circuit=circuit.name):
        elws, stats = _incremental_circuit_elws(
            circuit, base_circuit, base_elws, phi, setup, hold)
        telemetry.add_attrs(reused=stats["reused"],
                            recomputed=stats["recomputed"],
                            fallback=bool(stats["fallback"]))
    REGISTRY.counter("elw.incremental.reused",
                     help="Nets whose base ELW was reused").inc(
        stats["reused"])
    REGISTRY.counter("elw.incremental.recomputed",
                     help="Nets whose ELW was recomputed").inc(
        stats["recomputed"])
    if stats["fallback"]:
        REGISTRY.counter(
            "elw.incremental.fallbacks",
            help="Incremental ELW runs that fell back to a full "
                 "recompute").inc()
    return elws, stats


def _incremental_circuit_elws(circuit: Circuit, base_circuit: Circuit,
                              base_elws: Mapping[str, IntervalSet],
                              phi: float, setup: float = 0.0,
                              hold: float = 2.0,
                              ) -> tuple[dict[str, IntervalSet],
                                         dict[str, int | bool]]:
    # Retiming rewires gate *input nets* (register chains are spliced in
    # and out of wires) but preserves every gate's name, op and arity --
    # and with them its delay.  That is all the reuse rule needs: the
    # reader signatures below capture the rewiring itself.
    same_gates = (
        circuit.library is base_circuit.library
        and circuit.gates.keys() == base_circuit.gates.keys()
        and all(g.op == base_circuit.gates[name].op
                and len(g.inputs) == len(base_circuit.gates[name].inputs)
                for name, g in circuit.gates.items()))
    if not same_gates:
        elws = circuit_elws(circuit, phi, setup, hold)
        return elws, {"reused": 0, "recomputed": len(elws),
                      "fallback": True}

    window = latching_window(phi, setup, hold)
    po_nets, gate_readers, dff_read = _reader_maps(circuit)
    base_po, base_readers, base_dff_read = _reader_maps(base_circuit)

    def signature(net: str, po, readers, dffr):
        return (net in po, dffr[net],
                tuple(sorted((r, circuit.gate_delay(r))
                             for r in readers[net])))

    elws: dict[str, IntervalSet] = {}
    changed: set[str] = set()
    reused = recomputed = 0

    def net_elw(net: str) -> IntervalSet:
        parts: list[IntervalSet] = []
        if net in po_nets or dff_read[net]:
            parts.append(window)
        for reader in gate_readers[net]:
            parts.append(elws[reader] - circuit.gate_delay(reader))
        if not parts:
            return IntervalSet.empty()
        return parts[0].union(*parts[1:])

    def visit(net: str) -> None:
        nonlocal reused, recomputed
        base_value = base_elws.get(net)
        if base_value is not None and net in base_readers \
                and signature(net, po_nets, gate_readers, dff_read) == \
                signature(net, base_po, base_readers, base_dff_read) \
                and not any(r in changed for r in gate_readers[net]):
            elws[net] = base_value
            reused += 1
            return
        value = net_elw(net)
        elws[net] = value
        recomputed += 1
        if value != base_value:
            changed.add(net)

    for gate_name in reversed(circuit.topo_gates()):
        visit(gate_name)
    for net in list(circuit.inputs) + list(circuit.dffs):
        visit(net)
    return elws, {"reused": reused, "recomputed": recomputed,
                  "fallback": False}


def register_elws(circuit: Circuit, phi: float, setup: float = 0.0,
                  hold: float = 2.0,
                  elws: Mapping[str, IntervalSet] | None = None,
                  ) -> dict[str, IntervalSet]:
    """ELW of every flip-flop output net (subset view of
    :func:`circuit_elws`)."""
    if elws is None:
        elws = circuit_elws(circuit, phi, setup, hold)
    return {name: elws[name] for name in circuit.dffs}
