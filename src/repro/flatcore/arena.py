"""Flat arena representation of a sequential circuit (ROADMAP item 1).

A :class:`FlatCircuit` is the dict/object :class:`~repro.netlist.circuit.
Circuit` lowered to contiguous numpy buffers:

* every net is an integer *node id* -- primary inputs first, then gates
  in declaration order, then flip-flop outputs (the order of
  ``Circuit.nets``);
* per-gate attributes (op code, arity, delay, raw SER) live in flat
  arrays indexed by *gate ordinal* (``node_id - n_inputs``);
* connectivity is CSR: ``fanin`` in port order with duplicates (a net
  feeding two ports appears twice), ``fanout`` as its exact transpose
  plus register data inputs, and ``reader`` holding the *distinct*
  gate readers of each net (the edge set the observability and ELW
  sweeps walk);
* gates are grouped into per-topological-level ``(op, arity)`` plans so
  the kernels in :mod:`repro.flatcore.kernels` evaluate a whole group
  with one vectorized numpy expression.

Lowering is pure and deterministic: the same circuit always produces the
same arrays, and :attr:`FlatCircuit.digest` (sha256 over the source
:func:`~repro.cache.timing_digest` and every buffer) is the
content-address of the lowered form.  :func:`validate_flat` re-derives
each invariant and raises a *located* :class:`~repro.errors.FlatCoreError`
on any deviation, so a corrupted arena can never return a silently wrong
result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import FlatCoreError
from ..netlist.cell_library import SUPPORTED_OPS
from ..netlist.circuit import Circuit

#: Op name -> integer op code (index into ``SUPPORTED_OPS``).
OP_CODES: dict[str, int] = {op: i for i, op in enumerate(SUPPORTED_OPS)}

#: Format tag mixed into every arena digest; bump on layout changes.
DIGEST_TAG = "flat-v1"


@dataclass
class GatePlan:
    """One vectorizable gate group: same level, op and arity.

    Attributes
    ----------
    op, code, arity:
        Shared op name / op code / fanin count of every gate in the group.
    gates:
        Node ids of the grouped gates (ascending).
    fanin:
        ``[len(gates), arity]`` node-id matrix, port order preserved.
    """

    op: str
    code: int
    arity: int
    gates: np.ndarray
    fanin: np.ndarray


@dataclass
class LevelPlan:
    """All gate groups of one topological level."""

    level: int
    groups: list[GatePlan]


@dataclass
class FlatCircuit:
    """The lowered arena.  See the module docstring for the layout."""

    source_name: str
    source_digest: str
    names: list[str]
    index: dict[str, int]
    n_inputs: int
    n_gates: int
    n_dffs: int
    outputs: list[str]
    # Per-gate arrays, indexed by gate ordinal (node id - n_inputs).
    op_code: np.ndarray
    arity: np.ndarray
    gate_delay: np.ndarray
    gate_raw_ser: np.ndarray
    # CSR connectivity.
    fanin_indptr: np.ndarray
    fanin: np.ndarray
    fanout_indptr: np.ndarray
    fanout: np.ndarray
    reader_indptr: np.ndarray
    reader: np.ndarray
    # Distinct (gate, source) sensitization edges, gate-major order.
    edge_gate: np.ndarray
    edge_src: np.ndarray
    # Registers.
    dff_d: np.ndarray
    dff_init: np.ndarray
    # Per-node flags.
    is_po: np.ndarray
    dff_read: np.ndarray
    # Topology.
    level: np.ndarray
    topo: np.ndarray
    plans: list[LevelPlan]
    # Kernel-private memos (sensitization plans, ELW reader lists).
    _memo: dict = field(default_factory=dict, repr=False)
    _digest: str | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.n_inputs + self.n_gates + self.n_dffs

    @property
    def n_edges(self) -> int:
        return len(self.edge_gate)

    def gate_node(self, ordinal: int) -> int:
        """Node id of gate ordinal ``ordinal``."""
        return self.n_inputs + ordinal

    @property
    def digest(self) -> str:
        """sha256 content-address of the arena (layout ``flat-v1``).

        Ties into the existing cache-key scheme: the source circuit's
        :func:`~repro.cache.timing_digest` is the first hashed field, so
        two arenas agree only when their circuits would share analysis
        cache keys *and* every lowered buffer matches bit for bit.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(DIGEST_TAG.encode("utf-8") + b"\0")
            h.update(self.source_digest.encode("utf-8") + b"\0")
            h.update("\0".join(self.names).encode("utf-8") + b"\0\0")
            h.update("\0".join(self.outputs).encode("utf-8") + b"\0\0")
            for tag, arr in (
                    ("op_code", self.op_code), ("arity", self.arity),
                    ("gate_delay", self.gate_delay),
                    ("gate_raw_ser", self.gate_raw_ser),
                    ("fanin_indptr", self.fanin_indptr),
                    ("fanin", self.fanin),
                    ("fanout_indptr", self.fanout_indptr),
                    ("fanout", self.fanout),
                    ("reader_indptr", self.reader_indptr),
                    ("reader", self.reader),
                    ("edge_gate", self.edge_gate),
                    ("edge_src", self.edge_src),
                    ("dff_d", self.dff_d), ("dff_init", self.dff_init),
                    ("is_po", self.is_po), ("dff_read", self.dff_read),
                    ("level", self.level), ("topo", self.topo)):
                h.update(tag.encode("utf-8") + b"\0")
                h.update(np.ascontiguousarray(arr).tobytes())
            self._digest = h.hexdigest()
        return self._digest


def lower(circuit: Circuit) -> FlatCircuit:
    """Lower ``circuit`` to a :class:`FlatCircuit`.

    Raises :class:`~repro.errors.FlatCoreError` when the circuit cannot
    be represented (a gate or register reads an undefined net).  A
    combinational cycle raises
    :class:`~repro.errors.CombinationalCycleError` exactly as the object
    engines would -- that is a property of the circuit, not of the
    lowering.
    """
    from ..cache import timing_digest

    names = circuit.nets
    index = {name: i for i, name in enumerate(names)}
    n_inputs = len(circuit.inputs)
    n_gates = len(circuit.gates)
    n_dffs = len(circuit.dffs)
    n_nodes = n_inputs + n_gates + n_dffs
    if len(index) != n_nodes:
        raise FlatCoreError(
            f"circuit {circuit.name!r}: duplicate net names prevent "
            f"lowering ({n_nodes} nets, {len(index)} distinct)")

    # Topological order first: raises CombinationalCycleError eagerly.
    topo_names = circuit.topo_gates()

    op_code = np.zeros(n_gates, dtype=np.int32)
    arity = np.zeros(n_gates, dtype=np.int32)
    gate_delay = np.zeros(n_gates, dtype=np.float64)
    gate_raw_ser = np.zeros(n_gates, dtype=np.float64)
    fanin_counts = np.zeros(n_gates, dtype=np.int64)

    gates = list(circuit.gates.values())
    # Library rates memoized per (op, arity): the library re-validates
    # arity on every call, which is pure overhead across 10^5 gates
    # drawn from a handful of cell types.
    rates: dict[tuple[str, int], tuple[float, float]] = {}
    for g, gate in enumerate(gates):
        code = OP_CODES.get(gate.op)
        if code is None:
            raise FlatCoreError(
                f"gate {g} ({gate.name!r}): unsupported op {gate.op!r}")
        n_ins = len(gate.inputs)
        op_code[g] = code
        arity[g] = n_ins
        fanin_counts[g] = n_ins
        key = (gate.op, n_ins)
        rate = rates.get(key)
        if rate is None:
            rate = (circuit.library.delay(gate.op, n_ins),
                    circuit.library.raw_ser(gate.op, n_ins))
            rates[key] = rate
        gate_delay[g] = rate[0]
        gate_raw_ser[g] = rate[1]

    fanin_indptr = np.zeros(n_gates + 1, dtype=np.int64)
    np.cumsum(fanin_counts, out=fanin_indptr[1:])
    try:
        fanin_list = [index[src_name]
                      for gate in gates for src_name in gate.inputs]
    except KeyError:
        # Slow diagnostic pass: locate the offending gate by ordinal.
        for g, gate in enumerate(gates):
            for src_name in gate.inputs:
                if src_name not in index:
                    raise FlatCoreError(
                        f"gate {g} ({gate.name!r}): input net "
                        f"{src_name!r} is undefined") from None
        raise  # pragma: no cover - unreachable
    fanin = np.asarray(fanin_list, dtype=np.int64) \
        if fanin_list else np.zeros(0, dtype=np.int64)
    edge_gate_list: list[int] = []
    edge_src_list: list[int] = []
    for g, gate in enumerate(gates):
        node = n_inputs + g
        srcs = gate.inputs if len(gate.inputs) == 1 \
            else dict.fromkeys(gate.inputs)
        for src_name in srcs:
            edge_gate_list.append(node)
            edge_src_list.append(index[src_name])
    edge_gate = np.asarray(edge_gate_list, dtype=np.int64)
    edge_src = np.asarray(edge_src_list, dtype=np.int64)

    dff_d = np.zeros(n_dffs, dtype=np.int64)
    dff_init = np.zeros(n_dffs, dtype=np.int8)
    for k, dff in enumerate(circuit.dffs.values()):
        d = index.get(dff.d)
        if d is None:
            raise FlatCoreError(
                f"dff {k} ({dff.name!r}): data net {dff.d!r} is undefined")
        dff_d[k] = d
        dff_init[k] = dff.init

    # Fanout CSR: the exact transpose of fanin plus register data reads,
    # matching Circuit.fanouts (per connection, gates before dffs).
    # One stable argsort over the concatenated connection list produces
    # exactly what a cursor scatter in (gate, port, dff) order would:
    # per source, readers keep that traversal order.
    dff_base = n_inputs + n_gates
    conn_src = np.concatenate([fanin, dff_d])
    conn_reader = np.concatenate([
        np.repeat(np.arange(n_inputs, dff_base, dtype=np.int64),
                  fanin_counts),
        np.arange(dff_base, dff_base + n_dffs, dtype=np.int64)])
    fanout_counts = np.bincount(conn_src, minlength=n_nodes) \
        if len(conn_src) else np.zeros(n_nodes, dtype=np.int64)
    fanout_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(fanout_counts, out=fanout_indptr[1:])
    fanout = conn_reader[np.argsort(conn_src, kind="stable")]

    # Distinct-reader CSR: sensitization edges regrouped by source net.
    # A stable sort keeps each net's readers in gate declaration order.
    if len(edge_src):
        order = np.argsort(edge_src, kind="stable")
        reader_counts = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(reader_counts, edge_src, 1)
        reader_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(reader_counts, out=reader_indptr[1:])
        reader = edge_gate[order]
    else:
        reader_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        reader = np.zeros(0, dtype=np.int64)

    is_po = np.zeros(n_nodes, dtype=bool)
    for net in circuit.outputs:
        node = index.get(net)
        if node is None:
            raise FlatCoreError(f"primary output {net!r} is undefined")
        is_po[node] = True
    dff_read = np.zeros(n_nodes, dtype=bool)
    dff_read[dff_d] = True

    # Topological levels: sources are level 0, a gate one past its
    # deepest gate fanin.  Plain-list arithmetic: per-gate numpy calls
    # on 2-3-element slices cost more than the whole sweep.
    level_list = [0] * n_gates
    node_level = [0] * n_nodes
    topo_list = [0] * n_gates
    indptr_list = fanin_indptr.tolist()
    for t, gate_name in enumerate(topo_names):
        node = index[gate_name]
        g = node - n_inputs
        lo, hi = indptr_list[g], indptr_list[g + 1]
        deepest = max((node_level[s] for s in fanin_list[lo:hi]), default=0)
        level_list[g] = deepest + 1
        node_level[node] = deepest + 1
        topo_list[t] = node
    level = np.asarray(level_list, dtype=np.int32) \
        if n_gates else np.zeros(0, dtype=np.int32)
    topo = np.asarray(topo_list, dtype=np.int64) \
        if n_gates else np.zeros(0, dtype=np.int64)

    plans = _build_plans(op_code, arity, fanin_indptr, fanin, level,
                         n_inputs, n_gates)

    return FlatCircuit(
        source_name=circuit.name, source_digest=timing_digest(circuit),
        names=names, index=index, n_inputs=n_inputs, n_gates=n_gates,
        n_dffs=n_dffs, outputs=list(circuit.outputs),
        op_code=op_code, arity=arity, gate_delay=gate_delay,
        gate_raw_ser=gate_raw_ser,
        fanin_indptr=fanin_indptr, fanin=fanin,
        fanout_indptr=fanout_indptr, fanout=fanout,
        reader_indptr=reader_indptr, reader=reader,
        edge_gate=edge_gate, edge_src=edge_src,
        dff_d=dff_d, dff_init=dff_init,
        is_po=is_po, dff_read=dff_read,
        level=level, topo=topo, plans=plans)


def flat_for(circuit: Circuit) -> FlatCircuit:
    """The memoized arena of ``circuit``, lowered on a miss.

    The single dispatch point of the analysis engines: callers look it
    up as a module attribute at call time, so substituting it with
    ``lambda circuit: None`` selects the object core -- the reference
    the differential tests compare against.  The memo is invalidated by
    any structural mutation of the circuit; a
    :class:`~repro.errors.FlatCoreError` from :func:`lower` propagates.
    Dispatch happens inside the ``cached()``-wrapped analysis impls,
    beneath the key computation, so no cache key depends on the engine.
    """
    flat = circuit._flat_cache
    if flat is None:
        flat = circuit._flat_cache = lower(circuit)
    return flat


def _build_plans(op_code: np.ndarray, arity: np.ndarray,
                 fanin_indptr: np.ndarray, fanin: np.ndarray,
                 level: np.ndarray, n_inputs: int,
                 n_gates: int) -> list[LevelPlan]:
    """Group gates into per-level ``(op, arity)`` evaluation plans."""
    plans: list[LevelPlan] = []
    if n_gates == 0:
        return plans
    ordinals = np.arange(n_gates, dtype=np.int64)
    for lvl in np.unique(level):
        at_level = ordinals[level == lvl]
        groups: list[GatePlan] = []
        keys = op_code[at_level].astype(np.int64) * (2 ** 32) \
            + arity[at_level].astype(np.int64)
        for key in np.unique(keys):
            members = at_level[keys == key]
            code = int(key >> 32)
            n_in = int(key & 0xFFFFFFFF)
            if n_in:
                fmat = np.zeros((len(members), n_in), dtype=np.int64)
                for row, g in enumerate(members.tolist()):
                    lo = fanin_indptr[g]
                    fmat[row] = fanin[lo:lo + n_in]
            else:
                fmat = np.zeros((len(members), 0), dtype=np.int64)
            groups.append(GatePlan(op=SUPPORTED_OPS[code], code=code,
                                   arity=n_in,
                                   gates=members + n_inputs, fanin=fmat))
        plans.append(LevelPlan(level=int(lvl), groups=groups))
    return plans


def _fail(where: str, message: str) -> None:
    raise FlatCoreError(f"flatcore validation failed at {where}: {message}")


def validate_flat(flat: FlatCircuit, circuit: Circuit | None = None) -> None:
    """Check every arena invariant; raise a located error on violation.

    Structural checks need only the arena itself: index bounds, CSR
    monotonicity, fanin/fanout transpose consistency, distinct-reader
    consistency, strict level monotonicity along every edge, and plan
    coverage.  When ``circuit`` is given, every lowered value is also
    cross-checked against the source netlist and its cell library, so a
    mutation of *any single arena entry* is caught and located.
    """
    n_inputs, n_gates, n_dffs = flat.n_inputs, flat.n_gates, flat.n_dffs
    n_nodes = flat.n_nodes
    dff_base = n_inputs + n_gates

    if len(flat.names) != n_nodes:
        _fail("names", f"{len(flat.names)} names for {n_nodes} nodes")
    for tag, arr, length in (
            ("op_code", flat.op_code, n_gates),
            ("arity", flat.arity, n_gates),
            ("gate_delay", flat.gate_delay, n_gates),
            ("gate_raw_ser", flat.gate_raw_ser, n_gates),
            ("fanin_indptr", flat.fanin_indptr, n_gates + 1),
            ("fanout_indptr", flat.fanout_indptr, n_nodes + 1),
            ("reader_indptr", flat.reader_indptr, n_nodes + 1),
            ("dff_d", flat.dff_d, n_dffs),
            ("dff_init", flat.dff_init, n_dffs),
            ("is_po", flat.is_po, n_nodes),
            ("dff_read", flat.dff_read, n_nodes),
            ("level", flat.level, n_gates),
            ("topo", flat.topo, n_gates)):
        if len(arr) != length:
            _fail(tag, f"length {len(arr)}, expected {length}")
    for tag, indptr, data in (
            ("fanin_indptr", flat.fanin_indptr, flat.fanin),
            ("fanout_indptr", flat.fanout_indptr, flat.fanout),
            ("reader_indptr", flat.reader_indptr, flat.reader)):
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            _fail(tag, "indptr is not monotone from 0")
        if indptr[-1] != len(data):
            _fail(tag, f"indptr ends at {int(indptr[-1])} but data has "
                       f"{len(data)} entries")
    for tag, arr in (("fanin", flat.fanin), ("fanout", flat.fanout),
                     ("reader", flat.reader), ("dff_d", flat.dff_d),
                     ("edge_gate", flat.edge_gate),
                     ("edge_src", flat.edge_src), ("topo", flat.topo)):
        if len(arr) and (arr.min() < 0 or arr.max() >= n_nodes):
            bad = int(np.argmax((arr < 0) | (arr >= n_nodes)))
            _fail(f"{tag}[{bad}]",
                  f"node id {int(arr[bad])} out of range [0, {n_nodes})")

    for g in range(n_gates):
        code = int(flat.op_code[g])
        name = flat.names[n_inputs + g]
        if not 0 <= code < len(SUPPORTED_OPS):
            _fail(f"op_code[{g}] (gate {name!r})",
                  f"op code {code} out of range")
        n_in = int(flat.fanin_indptr[g + 1] - flat.fanin_indptr[g])
        if int(flat.arity[g]) != n_in:
            _fail(f"arity[{g}] (gate {name!r})",
                  f"arity {int(flat.arity[g])} != fanin CSR width {n_in}")

    # Levels: every gate strictly deeper than its deepest gate fanin.
    node_level = np.zeros(n_nodes, dtype=np.int64)
    node_level[n_inputs:dff_base] = flat.level
    for g in range(n_gates):
        lo, hi = flat.fanin_indptr[g], flat.fanin_indptr[g + 1]
        deepest = int(node_level[flat.fanin[lo:hi]].max()) if hi > lo else 0
        if int(flat.level[g]) != deepest + 1:
            _fail(f"level[{g}] (gate {flat.names[n_inputs + g]!r})",
                  f"level {int(flat.level[g])} != 1 + deepest fanin "
                  f"level {deepest}")

    # topo must be a permutation of the gate node ids respecting levels.
    seen = np.zeros(n_gates, dtype=bool)
    prev_level = 0
    for t, node in enumerate(flat.topo.tolist()):
        if not n_inputs <= node < dff_base:
            _fail(f"topo[{t}]", f"node {node} is not a gate")
        g = node - n_inputs
        if seen[g]:
            _fail(f"topo[{t}]", f"gate {flat.names[node]!r} repeated")
        seen[g] = True
        if int(flat.level[g]) < prev_level:
            _fail(f"topo[{t}]",
                  f"level {int(flat.level[g])} after level {prev_level}")
        prev_level = max(prev_level, int(flat.level[g]))
    if n_gates and not seen.all():
        g = int(np.argmin(seen))
        _fail("topo", f"gate {flat.names[n_inputs + g]!r} missing")

    # Fanout must be the exact transpose of fanin + register data reads.
    counts = np.zeros(n_nodes, dtype=np.int64)
    if len(flat.fanin):
        np.add.at(counts, flat.fanin, 1)
    if n_dffs:
        np.add.at(counts, flat.dff_d, 1)
    if np.any(np.diff(flat.fanout_indptr) != counts):
        node = int(np.argmax(np.diff(flat.fanout_indptr) != counts))
        _fail(f"fanout_indptr[{node}] (net {flat.names[node]!r})",
              f"fanout degree {int(np.diff(flat.fanout_indptr)[node])} "
              f"!= fanin-transpose degree {int(counts[node])}")
    for node in range(n_nodes):
        lo, hi = flat.fanout_indptr[node], flat.fanout_indptr[node + 1]
        for reader in flat.fanout[lo:hi].tolist():
            if reader < n_inputs:
                _fail(f"fanout of net {flat.names[node]!r}",
                      f"reader {flat.names[reader]!r} is a primary input")
            if reader < dff_base:
                g = reader - n_inputs
                glo, ghi = flat.fanin_indptr[g], flat.fanin_indptr[g + 1]
                if node not in flat.fanin[glo:ghi]:
                    _fail(f"fanout of net {flat.names[node]!r}",
                          f"gate {flat.names[reader]!r} does not read it")
            elif int(flat.dff_d[reader - dff_base]) != node:
                _fail(f"fanout of net {flat.names[node]!r}",
                      f"dff {flat.names[reader]!r} does not read it")

    # Distinct-reader CSR and sensitization edges must agree with fanin.
    expected_edges: list[tuple[int, int]] = []
    for g in range(n_gates):
        lo, hi = flat.fanin_indptr[g], flat.fanin_indptr[g + 1]
        for src in dict.fromkeys(flat.fanin[lo:hi].tolist()):
            expected_edges.append((n_inputs + g, src))
    got_edges = list(zip(flat.edge_gate.tolist(), flat.edge_src.tolist()))
    if sorted(got_edges) != sorted(expected_edges):
        _fail("edge_gate/edge_src",
              f"{len(got_edges)} edges do not match the "
              f"{len(expected_edges)} distinct (gate, source) pairs "
              f"of the fanin CSR")
    reader_pairs = []
    for node in range(n_nodes):
        lo, hi = flat.reader_indptr[node], flat.reader_indptr[node + 1]
        reader_pairs.extend((int(r), node) for r in flat.reader[lo:hi])
    if sorted(reader_pairs) != sorted(expected_edges):
        _fail("reader", "distinct-reader CSR does not transpose the "
                        "sensitization edge set")

    # Plans must cover every gate exactly once with matching attributes.
    covered = np.zeros(n_gates, dtype=np.int64)
    for lp in flat.plans:
        for plan in lp.groups:
            for row, node in enumerate(plan.gates.tolist()):
                if not n_inputs <= node < dff_base:
                    _fail(f"plan level {lp.level}",
                          f"node {node} is not a gate")
                g = node - n_inputs
                covered[g] += 1
                if int(flat.level[g]) != lp.level:
                    _fail(f"plan for gate {flat.names[node]!r}",
                          f"listed at level {lp.level}, gate level is "
                          f"{int(flat.level[g])}")
                if int(flat.op_code[g]) != plan.code \
                        or int(flat.arity[g]) != plan.arity:
                    _fail(f"plan for gate {flat.names[node]!r}",
                          "op/arity does not match the gate arrays")
                lo = flat.fanin_indptr[g]
                if not np.array_equal(plan.fanin[row],
                                      flat.fanin[lo:lo + plan.arity]):
                    _fail(f"plan for gate {flat.names[node]!r}",
                          "plan fanin row does not match the fanin CSR")
    if n_gates and np.any(covered != 1):
        g = int(np.argmax(covered != 1))
        _fail("plans", f"gate {flat.names[n_inputs + g]!r} covered "
                       f"{int(covered[g])} times")

    if circuit is not None:
        _cross_check(flat, circuit)


def _cross_check(flat: FlatCircuit, circuit: Circuit) -> None:
    """Compare every lowered value against the source netlist."""
    if flat.names != circuit.nets:
        _fail("names", "node order does not match Circuit.nets")
    if flat.outputs != list(circuit.outputs):
        _fail("outputs", "primary output list does not match")
    if (flat.n_inputs, flat.n_gates, flat.n_dffs) != \
            (len(circuit.inputs), len(circuit.gates), len(circuit.dffs)):
        _fail("shape", "element counts do not match the circuit")
    for g, gate in enumerate(circuit.gates.values()):
        where = f"gate {g} ({gate.name!r})"
        if SUPPORTED_OPS[int(flat.op_code[g])] != gate.op:
            _fail(where, f"op {SUPPORTED_OPS[int(flat.op_code[g])]!r} "
                         f"!= source op {gate.op!r}")
        lo, hi = flat.fanin_indptr[g], flat.fanin_indptr[g + 1]
        lowered = [flat.names[i] for i in flat.fanin[lo:hi]]
        if lowered != list(gate.inputs):
            _fail(where, f"fanin {lowered} != source inputs "
                         f"{list(gate.inputs)}")
        want_delay = circuit.library.delay(gate.op, len(gate.inputs))
        if float(flat.gate_delay[g]) != want_delay:
            _fail(where, f"delay {float(flat.gate_delay[g])!r} != "
                         f"library delay {want_delay!r}")
        want_ser = circuit.library.raw_ser(gate.op, len(gate.inputs))
        if float(flat.gate_raw_ser[g]) != want_ser:
            _fail(where, f"raw SER {float(flat.gate_raw_ser[g])!r} != "
                         f"library raw SER {want_ser!r}")
    for k, dff in enumerate(circuit.dffs.values()):
        where = f"dff {k} ({dff.name!r})"
        if flat.names[int(flat.dff_d[k])] != dff.d:
            _fail(where, f"data net "
                         f"{flat.names[int(flat.dff_d[k])]!r} != {dff.d!r}")
        if int(flat.dff_init[k]) != dff.init:
            _fail(where, f"init {int(flat.dff_init[k])} != {dff.init}")
    po = {flat.names[i] for i in np.nonzero(flat.is_po)[0]}
    if po != set(circuit.outputs):
        _fail("is_po", f"flag set {sorted(po)} != source outputs "
                       f"{sorted(set(circuit.outputs))}")
    # The exact topo sequence matters beyond level order: downstream
    # dict orders (observability, ELWs) iterate it, so a within-level
    # reorder would silently shift every digest.  Pin it to the source
    # circuit's canonical order.
    want_topo = [flat.index[name] for name in circuit.topo_gates()]
    if flat.topo.tolist() != want_topo:
        _fail("topo", "gate order does not match the source circuit's "
                      "topological order")
