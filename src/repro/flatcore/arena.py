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
* every topological level is one :class:`LevelProgram` -- a padded
  fanin matrix plus per-gate masks over one gate algebra -- so the
  kernels in :mod:`repro.flatcore.kernels` evaluate a whole level with
  one gathered numpy expression.

Lowering is pure and deterministic: the same circuit always produces the
same arrays.  :func:`validate_flat` re-derives each invariant and raises
a *located* :class:`~repro.errors.FlatCoreError` on any deviation, so a
corrupted arena can never return a silently wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import nogc
from ..errors import FlatCoreError
from ..netlist.cell_library import SUPPORTED_OPS
from ..netlist.circuit import Circuit

#: Op name -> integer op code (index into ``SUPPORTED_OPS``).
OP_CODES: dict[str, int] = {op: i for i, op in enumerate(SUPPORTED_OPS)}

#: The gate algebra, indexed by op code.  Every supported op is
#: ``R(x_1 ^ m, ..., x_k ^ m) ^ o`` with per-gate masks ``m, o`` in
#: ``{0, ~0}``: ``R`` is XOR for the XOR family and AND for the rest
#: (OR/NOR by De Morgan, ``m = ~0``; the constants reduce only padding).
XOR_FAMILY = np.array([op in ("XOR", "XNOR") for op in SUPPORTED_OPS])
IN_INVERT = np.array([op in ("OR", "NOR") for op in SUPPORTED_OPS])
OUT_INVERT = np.array([op in ("CONST0", "NOT", "NAND", "OR", "XNOR")
                       for op in SUPPORTED_OPS])
#: Short fanins pad with a constant row that ``^ m`` turns neutral for
#: ``R``: all-ones under AND with ``m = 0``, all-zeros otherwise.
PAD_ONES = ~XOR_FAMILY & ~IN_INVERT

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class LevelProgram:
    """One topological level, evaluated as one gathered expression.

    Gate ``i`` computes ``R(V[fanin[0, i]] ^ m_i, ..., V[fanin[-1, i]]
    ^ m_i) ^ o_i`` over a value matrix ``V`` with
    :attr:`FlatCircuit.n_rows` rows; ``R`` is AND for gates ``[:n_and]``
    and XOR for the rest (the family selector).

    Attributes
    ----------
    level:
        The topological level (1-based).
    gates:
        ``[n]`` node ids: the AND family first, then the XOR family,
        ascending within each.
    fanin:
        ``[width, n]`` row ids, port-major (one contiguous row of
        sources per port), padded past each gate's arity with a
        constant row (see :attr:`FlatCircuit.n_rows` and
        :data:`PAD_ONES`).
    n_and:
        Number of AND-family gates.
    in_mask, out_mask:
        ``[n, 1]`` uint64 masks ``m`` / ``o``, or None when every entry
        is 0.
    """

    level: int
    gates: np.ndarray
    fanin: np.ndarray
    n_and: int
    in_mask: np.ndarray | None
    out_mask: np.ndarray | None


@dataclass
class FlatCircuit:
    """The lowered arena.  See the module docstring for the layout."""

    source_name: str
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
    programs: list[LevelProgram]
    # Kernel-private memo (the sensitization plans).
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.n_inputs + self.n_gates + self.n_dffs

    @property
    def n_rows(self) -> int:
        """Rows of a kernel value matrix: every node, then the constant
        padding rows ``n_nodes`` (all zeros) and ``n_nodes + 1`` (all
        ones)."""
        return self.n_nodes + 2

    @property
    def n_edges(self) -> int:
        return len(self.edge_gate)


@nogc
def lower(circuit: Circuit) -> FlatCircuit:
    """Lower ``circuit`` to a :class:`FlatCircuit`.

    Raises :class:`~repro.errors.FlatCoreError` when the circuit cannot
    be represented (a gate or register reads an undefined net).  A
    combinational cycle raises
    :class:`~repro.errors.CombinationalCycleError` exactly as the object
    engines would -- that is a property of the circuit, not of the
    lowering.
    """
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

    gates = list(circuit.gates.values())
    try:
        op_code = np.array([OP_CODES[gate.op] for gate in gates],
                           dtype=np.int32)
    except KeyError:
        for g, gate in enumerate(gates):
            if gate.op not in OP_CODES:
                raise FlatCoreError(
                    f"gate {g} ({gate.name!r}): unsupported op "
                    f"{gate.op!r}") from None
        raise  # pragma: no cover - unreachable
    cells = [(gate.op, len(gate.inputs)) for gate in gates]
    fanin_counts = np.array([n_ins for _, n_ins in cells], dtype=np.int64)
    arity = fanin_counts.astype(np.int32)
    # Library rates looked up once per (op, arity): the library
    # re-validates arity on every call, which is pure overhead across
    # 10^5 gates drawn from a handful of cell types.
    library = circuit.library
    rates = {cell: (library.delay(*cell), library.raw_ser(*cell))
             for cell in dict.fromkeys(cells)}
    rate_table = np.array([rates[cell] for cell in cells],
                          dtype=np.float64).reshape(n_gates, 2)
    gate_delay = np.ascontiguousarray(rate_table[:, 0])
    gate_raw_ser = np.ascontiguousarray(rate_table[:, 1])

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
    # Distinct (gate, source) edges: each connection but the repeats of
    # a source within one gate, kept at its first port, so the edges
    # stay gate-major in port order.  Sorting by (gate, source, port)
    # puts every repeat right after its first occurrence.
    owner = np.repeat(np.arange(n_inputs, n_inputs + n_gates,
                                dtype=np.int64), fanin_counts)
    by_pair = np.lexsort((fanin, owner))
    first = np.ones(len(fanin), dtype=bool)
    first[1:] = (np.diff(owner[by_pair]) != 0) \
        | (np.diff(fanin[by_pair]) != 0)
    keep = np.empty(len(fanin), dtype=bool)
    keep[by_pair] = first
    edge_gate = owner[keep]
    edge_src = fanin[keep]

    dffs = list(circuit.dffs.values())
    try:
        dff_d = np.array([index[dff.d] for dff in dffs], dtype=np.int64)
    except KeyError:
        for k, dff in enumerate(dffs):
            if dff.d not in index:
                raise FlatCoreError(
                    f"dff {k} ({dff.name!r}): data net {dff.d!r} is "
                    f"undefined") from None
        raise  # pragma: no cover - unreachable
    dff_init = np.array([dff.init for dff in dffs], dtype=np.int8)

    # Fanout CSR: the exact transpose of fanin plus register data reads,
    # matching Circuit.fanouts (per connection, gates before dffs).
    # One stable argsort over the concatenated connection list produces
    # exactly what a cursor scatter in (gate, port, dff) order would:
    # per source, readers keep that traversal order.
    dff_base = n_inputs + n_gates
    conn_src = np.concatenate([fanin, dff_d])
    conn_reader = np.concatenate([
        owner, np.arange(dff_base, dff_base + n_dffs, dtype=np.int64)])
    fanout_counts = np.bincount(conn_src, minlength=n_nodes) \
        if len(conn_src) else np.zeros(n_nodes, dtype=np.int64)
    fanout_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(fanout_counts, out=fanout_indptr[1:])
    fanout = conn_reader[np.argsort(conn_src, kind="stable")]

    # Distinct-reader CSR: sensitization edges regrouped by source net.
    # A stable sort keeps each net's readers in gate declaration order.
    if len(edge_src):
        order = np.argsort(edge_src, kind="stable")
        reader_counts = np.bincount(edge_src, minlength=n_nodes)
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
    node_level = [0] * n_nodes
    level_of = node_level.__getitem__
    topo_list = [index[gate_name] for gate_name in topo_names]
    fanin_bounds = fanin_indptr.tolist()
    for node in topo_list:
        g = node - n_inputs
        node_level[node] = 1 + max(
            map(level_of, fanin_list[fanin_bounds[g]:fanin_bounds[g + 1]]),
            default=0)
    level = np.array(node_level[n_inputs:dff_base], dtype=np.int32)
    topo = np.array(topo_list, dtype=np.int64)

    programs = _build_programs(op_code, arity, fanin_indptr, fanin, level,
                               n_inputs, n_nodes)

    return FlatCircuit(
        source_name=circuit.name, names=names, index=index,
        n_inputs=n_inputs, n_gates=n_gates, n_dffs=n_dffs,
        outputs=list(circuit.outputs),
        op_code=op_code, arity=arity, gate_delay=gate_delay,
        gate_raw_ser=gate_raw_ser,
        fanin_indptr=fanin_indptr, fanin=fanin,
        fanout_indptr=fanout_indptr, fanout=fanout,
        reader_indptr=reader_indptr, reader=reader,
        edge_gate=edge_gate, edge_src=edge_src,
        dff_d=dff_d, dff_init=dff_init,
        is_po=is_po, dff_read=dff_read,
        level=level, topo=topo, programs=programs)


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


def _build_programs(op_code: np.ndarray, arity: np.ndarray,
                    fanin_indptr: np.ndarray, fanin: np.ndarray,
                    level: np.ndarray, n_inputs: int,
                    n_nodes: int) -> list[LevelProgram]:
    """One :class:`LevelProgram` per topological level.

    Every per-gate quantity is computed in one vectorized pass over
    the gates sorted by (level, family, ordinal); the loop over levels
    only slices.
    """
    n_gates = len(op_code)
    if n_gates == 0:
        return []
    xor = XOR_FAMILY[op_code]
    order = np.lexsort((xor, level))
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(level[order])) + 1))
    ends = np.concatenate((starts[1:], [n_gates]))
    widths = np.maximum(np.maximum.reduceat(arity[order], starts), 1)
    codes = op_code[order]
    # Port-major padded fanin of every gate at the widest level's width
    # (see PAD_ONES); each level slices its own width.
    ports = np.arange(int(widths.max()))[:, None]
    idx = fanin_indptr[order] + ports
    source = fanin if len(fanin) else np.zeros(1, dtype=np.int64)
    matrix = np.where(ports < arity[order],
                      source[np.minimum(idx, len(source) - 1)],
                      np.where(PAD_ONES[codes], n_nodes + 1, n_nodes))
    in_mask = np.where(IN_INVERT[codes], _ONES, np.uint64(0))
    out_mask = np.where(OUT_INVERT[codes], _ONES, np.uint64(0))
    n_and = np.add.reduceat((~xor[order]).astype(np.int64), starts)
    any_in = np.logical_or.reduceat(IN_INVERT[codes], starts)
    any_out = np.logical_or.reduceat(OUT_INVERT[codes], starts)
    gates = order + n_inputs
    levels = level[order[starts]]

    programs: list[LevelProgram] = []
    for a, b, width, lvl, k, has_in, has_out in zip(
            starts.tolist(), ends.tolist(), widths.tolist(),
            levels.tolist(), n_and.tolist(), any_in.tolist(),
            any_out.tolist()):
        programs.append(LevelProgram(
            level=lvl, gates=gates[a:b],
            fanin=np.ascontiguousarray(matrix[:width, a:b]), n_and=k,
            in_mask=in_mask[a:b, None] if has_in else None,
            out_mask=out_mask[a:b, None] if has_out else None))
    return programs


def _mask_row(mask: np.ndarray | None, n: int) -> np.ndarray:
    """A program mask as ``[n]`` uint64, zeros when absent."""
    return np.zeros(n, dtype=np.uint64) if mask is None else mask.reshape(n)


def _fail(where: str, message: str) -> None:
    raise FlatCoreError(f"flatcore validation failed at {where}: {message}")


def validate_flat(flat: FlatCircuit, circuit: Circuit | None = None) -> None:
    """Check every arena invariant; raise a located error on violation.

    Structural checks need only the arena itself: index bounds, CSR
    monotonicity, fanin/fanout transpose consistency, distinct-reader
    consistency, strict level monotonicity along every edge, and level
    program coverage.  When ``circuit`` is given, every lowered value is
    also cross-checked against the source netlist and its cell library, so a
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

    # Programs must be exactly what lowering builds from the arrays
    # validated above: same level split, gate order, fanin and masks.
    want = _build_programs(flat.op_code, flat.arity, flat.fanin_indptr,
                           flat.fanin, flat.level, n_inputs, n_nodes)
    if len(flat.programs) != len(want):
        _fail("programs", f"{len(flat.programs)} level programs for "
                          f"{len(want)} levels")
    for got, exp in zip(flat.programs, want):
        if (got.level, got.n_and, got.gates.shape, got.fanin.shape) != \
                (exp.level, exp.n_and, exp.gates.shape, exp.fanin.shape):
            _fail(f"program level {exp.level}",
                  "op/arity does not match the level's gates, family "
                  "split or fanin width")
        bad = (got.gates != exp.gates) | (got.fanin != exp.fanin).any(axis=0)
        for mask, want_mask in ((got.in_mask, exp.in_mask),
                                (got.out_mask, exp.out_mask)):
            bad |= _mask_row(mask, len(bad)) != _mask_row(want_mask,
                                                          len(bad))
        if bad.any():
            node = int(exp.gates[np.argmax(bad)])
            _fail(f"program for gate {flat.names[node]!r}",
                  "op/arity, mask or fanin row does not match the gate "
                  "arrays and the fanin CSR")

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
