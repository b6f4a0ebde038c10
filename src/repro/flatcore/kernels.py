"""Vectorized analysis kernels over a :class:`~repro.flatcore.arena.FlatCircuit`.

Each kernel is a drop-in replacement for one object-core stage and is
held to a *bit-identity* contract: given the same inputs it produces
exactly the values (and, where relevant, the same dict orders) the
object engines produce -- the differential suite in ``tests/flatcore``
pins this on the whole committed corpus.  The bit-identity rules:

* packed-signature logic is pure ``uint64`` bitwise algebra, which is
  exact and associative, so grouped evaluation order is free;
* scalar float *accumulators* (SER sums) must add in the object core's
  sequential element order -- ``np.sum`` is pairwise and would drift in
  the last ulp -- so sums run over ``.tolist()`` in declaration order
  while the per-element products stay vectorized (IEEE-754 elementwise
  ops match Python's scalar ops bit for bit);
* :class:`~repro.core.intervals.IntervalSet` normalization is confluent
  under pre-merging, so building each net's ELW from raw shifted
  endpoint pairs in one constructor call matches the object core's
  shift-then-union exactly.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ..core.intervals import IntervalSet
from ..errors import SimulationError
from ..ser.rates import RATE_UNIT
from ..sim.bitvec import _tail_mask, n_words, popcount
from .arena import IN_INVERT, OUT_INVERT, XOR_FAMILY, FlatCircuit

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _reduce(ins: np.ndarray, n_and: int) -> np.ndarray:
    """``R`` over the port axis of masked inputs ``[width, n, words]``.

    Gates ``[:n_and]`` reduce with AND, the rest with XOR (see
    :class:`~repro.flatcore.arena.LevelProgram`).  The result is
    ``[n, words]`` with padding bits possibly set; callers trim.
    """
    n = ins.shape[1]
    if n_and == n:
        return np.bitwise_and.reduce(ins, axis=0)
    if n_and == 0:
        return np.bitwise_xor.reduce(ins, axis=0)
    out = np.empty(ins.shape[1:], dtype=np.uint64)
    np.bitwise_and.reduce(ins[:, :n_and], axis=0, out=out[:n_and])
    np.bitwise_xor.reduce(ins[:, n_and:], axis=0, out=out[n_and:])
    return out


# ----------------------------------------------------------------------
# Logic simulation
# ----------------------------------------------------------------------

def _value_matrix(flat: FlatCircuit, words: int) -> np.ndarray:
    """A zeroed ``[n_rows, words]`` value matrix with its padding rows."""
    value_matrix = np.zeros((flat.n_rows, words), dtype=np.uint64)
    value_matrix[-1] = _ONES
    return value_matrix


def _level_sweep(flat: FlatCircuit, value_matrix: np.ndarray,
                 tail: np.uint64,
                 forced_by_level: Mapping[int, list] | None = None) -> None:
    """Evaluate every gate level in place on ``[n_rows, words]``.

    Input and register rows must already hold their signatures; gate
    rows are overwritten, one gathered expression per level.  Bits
    never mix across pattern positions, so the padding bits are trimmed
    once, after the last level.  ``forced_by_level`` optionally injects
    per-level overrides after that level evaluates (a forced gate's
    readers all sit at strictly higher levels)."""
    for prog in flat.programs:
        ins = value_matrix.take(prog.fanin, axis=0)  # fresh gather
        if prog.in_mask is not None:
            ins ^= prog.in_mask
        out = _reduce(ins, prog.n_and)
        if prog.out_mask is not None:
            out ^= prog.out_mask
        value_matrix[prog.gates] = out
        if forced_by_level:
            for node, sig in forced_by_level.get(prog.level, ()):
                value_matrix[node] = sig
    value_matrix[flat.n_inputs:flat.n_inputs + flat.n_gates, -1] &= tail


def _reset_matrix(flat: FlatCircuit, words: int,
                  tail: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """A value matrix in the reset state, and a view of its register rows.

    Mirrors ``reset_state``: init=1 registers power up all-ones, the
    rest all-zero.
    """
    value_matrix = _value_matrix(flat, words)
    dff_base = flat.n_inputs + flat.n_gates
    registers = value_matrix[dff_base:flat.n_nodes]
    registers[flat.dff_init.astype(bool)] = _ONES
    registers[:, -1] &= tail
    return value_matrix, registers


def _draw_inputs(rng: np.random.Generator, n_inputs: int, words: int,
                 tail: np.uint64) -> np.ndarray:
    """One cycle's ``[n_inputs, words]`` primary-input signatures.

    PCG64 fills a C-contiguous uint64 request word by word from the same
    stream, so this one batched draw consumes the generator identically
    to one ``random_patterns`` call per input in declaration order
    (pinned by ``test_batched_input_draws_match_per_input_draws``).
    """
    draws = rng.integers(0, 2 ** 64, size=(n_inputs, words),
                         dtype=np.uint64)
    draws[:, -1] &= tail
    return draws


def record_frames_flat(flat: FlatCircuit, n_frames: int, n_patterns: int,
                       rng: np.random.Generator,
                       ) -> list[np.ndarray]:
    """Matrix-native replacement for ``repro.sim.odc._record_frames``.

    Runs the ``n_frames`` warmup and ``n_frames`` recorded cycles
    entirely on ``[n_rows, words]`` matrices -- no per-net dicts, no
    per-register copies.  Bit-identity with the object recorder holds
    because the RNG stream is drawn identically (one
    :func:`random_patterns` call per primary input, in declaration
    order, per cycle) and the register clocking rule is the same gather
    (``registers = values[dff_d]``) the object simulator expresses one
    ``.copy()`` at a time.
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    n_inputs = flat.n_inputs
    value_matrix, registers = _reset_matrix(flat, words, tail)
    frames: list[np.ndarray] = []
    for cycle in range(2 * n_frames):
        if n_inputs:
            value_matrix[:n_inputs] = _draw_inputs(rng, n_inputs, words, tail)
        _level_sweep(flat, value_matrix, tail)
        if cycle >= n_frames:
            frames.append(value_matrix.copy())
        registers[:] = value_matrix[flat.dff_d]
    return frames


def simulate_comb_flat(flat: FlatCircuit,
                       values: Mapping[str, np.ndarray],
                       n_patterns: int,
                       force: Mapping[str, np.ndarray] | None = None,
                       ) -> dict[str, np.ndarray]:
    """Level-sweep replacement for :func:`repro.sim.logicsim.simulate_comb`.

    Signatures for all nodes live in one ``[n_rows, n_words]`` matrix;
    each topological level evaluates as one gathered numpy expression.
    The returned dict matches the object core exactly: inputs/registers
    alias the caller's arrays, forced nets alias the force arrays
    (untrimmed), and gate entries are trimmed rows of the value matrix
    (disjoint -- no aliasing between gates).
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    n_inputs, n_gates = flat.n_inputs, flat.n_gates
    dff_base = n_inputs + n_gates
    value_matrix = _value_matrix(flat, words)

    result: dict[str, np.ndarray] = {}
    for node in range(n_inputs):
        net = flat.names[node]
        if net not in values:
            raise SimulationError(f"missing value for primary input {net!r}")
        sig = values[net]
        value_matrix[node] = sig
        result[net] = sig
    for k in range(flat.n_dffs):
        net = flat.names[dff_base + k]
        if net not in values:
            raise SimulationError(f"missing value for flip-flop {net!r}")
        sig = values[net]
        value_matrix[dff_base + k] = sig
        result[net] = sig

    forced_by_level: dict[int, list[tuple[int, np.ndarray]]] = {}
    if force:
        for net, sig in force.items():
            node = flat.index.get(net)
            if node is None:
                continue
            if n_inputs <= node < dff_base:
                lvl = int(flat.level[node - n_inputs])
                forced_by_level.setdefault(lvl, []).append((node, sig))
            else:
                value_matrix[node] = sig
                result[net] = sig

    # A forced gate's own evaluation is discarded; the per-level
    # overwrite inside the sweep reproduces the object core's
    # skip-and-alias semantics (padding included).
    _level_sweep(flat, value_matrix, tail, forced_by_level)

    for node in flat.topo.tolist():
        net = flat.names[node]
        if force and net in force:
            result[net] = force[net]
        else:
            result[net] = value_matrix[node]
    return result


def cosim_flat(first: FlatCircuit, second: FlatCircuit, n_patterns: int,
               rng: np.random.Generator) -> Iterator[bool]:
    """Co-simulate two arenas from reset on one random input trace.

    Yields, once per cycle and without end, whether any positional pair
    of primary outputs differs in that cycle.  Matrix-native
    replacement for stepping two
    :class:`~repro.sim.sequential.SequentialSimulator` objects: each
    circuit keeps one persistent ``[n_rows, words]`` value matrix, the
    per-cycle input draw is batched in ``first``'s input order (as in
    :func:`record_frames_flat`), ``second`` reads the draws by input
    name, and the registers clock as one gather ``V[dff_d]``.  The
    interfaces must already match by name and count.
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    values1, registers1 = _reset_matrix(first, words, tail)
    values2, registers2 = _reset_matrix(second, words, tail)
    outputs1 = [first.index[net] for net in first.outputs]
    outputs2 = [second.index[net] for net in second.outputs]
    n_inputs = first.n_inputs
    inputs2 = [second.index[net] for net in first.names[:n_inputs]]
    while True:
        if n_inputs:
            draws = _draw_inputs(rng, n_inputs, words, tail)
            values1[:n_inputs] = draws
            values2[inputs2] = draws
        _level_sweep(first, values1, tail)
        _level_sweep(second, values2, tail)
        yield bool((values1[outputs1] != values2[outputs2]).any())
        registers1[:] = values1[first.dff_d]
        registers2[:] = values2[second.dff_d]


# ----------------------------------------------------------------------
# Observability (backward ODC sweep)
# ----------------------------------------------------------------------

@dataclass
class _SensGroup:
    """Sensitization edges of one gate family and arity.

    Each row evaluates its gate with the edge's source ports flipped,
    in the level programs' algebra: ``in_mask`` is the gate's ``m``
    XOR all-ones on the ports the source drives.
    """

    edge_ids: np.ndarray   # rows of the global edge arrays
    gate_nodes: np.ndarray
    fanin: np.ndarray      # [arity, n_edges_in_group], port-major
    in_mask: np.ndarray    # [arity, n_edges_in_group, 1] uint64
    out_mask: np.ndarray   # [n_edges_in_group, 1] uint64
    n_and: int             # all rows (AND family) or none (XOR family)


@dataclass
class _ScatterStage:
    """One reverse-sweep stage: all edges whose source sits at a level."""

    edge_order: np.ndarray   # edge ids sorted by source node
    reader_nodes: np.ndarray
    src_nodes: np.ndarray    # distinct sources, ascending
    starts: np.ndarray       # reduceat segment starts into edge_order


def _sens_plans(flat: FlatCircuit) -> tuple[list[_SensGroup],
                                            list[_ScatterStage]]:
    """Build (and memoize on the arena) the observability sweep plans."""
    cached = flat._memo.get("sens_plans")
    if cached is not None:
        return cached

    n_inputs, n_gates = flat.n_inputs, flat.n_gates
    edge_gate, edge_src = flat.edge_gate, flat.edge_src
    n_edges = len(edge_gate)

    groups: list[_SensGroup] = []
    if n_edges:
        codes = flat.op_code[edge_gate - n_inputs]
        arity = flat.arity[edge_gate - n_inputs]
        keys = 2 * arity + XOR_FAMILY[codes]
        # bincount, not np.unique: that imports numpy.ma on first use,
        # ~16 ms of every worker's cold start.
        for key in np.flatnonzero(np.bincount(keys)).tolist():
            ids = np.flatnonzero(keys == key)
            width, xor = divmod(key, 2)
            lo = flat.fanin_indptr[edge_gate[ids] - n_inputs]
            fanin = flat.fanin[lo + np.arange(width)[:, None]]
            flip = fanin == edge_src[ids]
            in_mask = np.where(IN_INVERT[codes[ids]] != flip,
                               _ONES, np.uint64(0))
            out_mask = np.where(OUT_INVERT[codes[ids]], _ONES, np.uint64(0))
            groups.append(_SensGroup(
                edge_ids=ids, gate_nodes=edge_gate[ids], fanin=fanin,
                in_mask=in_mask[:, :, None], out_mask=out_mask[:, None],
                n_and=0 if xor else len(ids)))

    # Scatter stages: gate sources by descending level, then all
    # input/register sources (level tag -1) -- the object core's
    # reverse-topo-then-sources order, which OR-commutativity makes a
    # scheduling choice, not a semantic one.  One stable lexsort over
    # (descending level, source) replaces a per-level edge scan, which
    # on deep circuits (10^4+ levels) was quadratic in practice.
    stages: list[_ScatterStage] = []
    if n_edges:
        src_level = np.full(n_edges, -1, dtype=np.int64)
        is_gate_src = (edge_src >= n_inputs) & (edge_src < n_inputs + n_gates)
        src_level[is_gate_src] = flat.level[edge_src[is_gate_src] - n_inputs]
        order_all = np.lexsort((edge_src, -src_level))
        level_sorted = src_level[order_all]
        src_sorted = edge_src[order_all]
        cuts = np.nonzero(np.diff(level_sorted))[0] + 1
        for a, b in zip(np.concatenate(([0], cuts)).tolist(),
                        np.concatenate((cuts, [n_edges])).tolist()):
            order = order_all[a:b]
            srcs = src_sorted[a:b]
            # srcs is sorted: segment starts fall where the value changes
            starts = np.concatenate(
                ([0], np.nonzero(np.diff(srcs))[0] + 1))
            stages.append(_ScatterStage(edge_order=order,
                                        reader_nodes=edge_gate[order],
                                        src_nodes=srcs[starts],
                                        starts=starts))

    flat._memo["sens_plans"] = (groups, stages)
    return groups, stages


def observability_flat(flat: FlatCircuit,
                       frames: list[np.ndarray],
                       n_frames: int, n_patterns: int, keep_masks: bool,
                       ) -> tuple[dict[str, float],
                                  dict[str, np.ndarray] | None]:
    """Vectorized backward ODC sweep over recorded frame matrices.

    ``frames`` holds one ``[n_rows, words]`` value matrix per cycle
    (:func:`record_frames_flat`).  Mirrors
    ``repro.sim.odc._observability_impl`` bit for bit: per frame,
    per-edge sensitization masks are evaluated in grouped numpy
    expressions, base masks seed primary outputs (and, on the final
    frame, register reads), and a reverse level sweep OR-scatters
    ``sens & reader_mask`` into each source net.
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    n_nodes = flat.n_nodes
    n_dffs = flat.n_dffs
    dff_base = flat.n_inputs + flat.n_gates
    groups, stages = _sens_plans(flat)

    ones_row = np.full(words, _ONES, dtype=np.uint64)
    ones_row[-1] &= tail
    po_nodes = np.nonzero(flat.is_po)[0]
    dff_rows = np.arange(dff_base, dff_base + n_dffs)

    sens = np.zeros((flat.n_edges, words), dtype=np.uint64)
    next_masks = np.zeros((n_dffs, words), dtype=np.uint64)
    masks = np.zeros((n_nodes, words), dtype=np.uint64)
    for t in range(n_frames - 1, -1, -1):
        value_matrix = frames[t]
        last = t == n_frames - 1

        for group in groups:
            ins = value_matrix.take(group.fanin, axis=0)  # fresh gather
            ins ^= group.in_mask
            flipped = _reduce(ins, group.n_and)
            flipped ^= group.out_mask
            sens[group.edge_ids] = value_matrix[group.gate_nodes] ^ flipped
        sens[:, -1] &= tail

        masks = np.zeros((n_nodes, words), dtype=np.uint64)
        if len(po_nodes):
            masks[po_nodes] = ones_row
        if n_dffs:
            contrib = np.broadcast_to(ones_row, (n_dffs, words)) if last \
                else next_masks
            np.bitwise_or.at(masks, flat.dff_d, contrib)

        for stage in stages:
            contrib = sens[stage.edge_order] & masks[stage.reader_nodes]
            merged = np.bitwise_or.reduceat(contrib, stage.starts, axis=0)
            masks[stage.src_nodes] |= merged

        if n_dffs:
            next_masks = masks[dff_rows].copy()

    if hasattr(np, "bitwise_count"):
        counts = np.bitwise_count(masks).sum(axis=1)
    else:  # pragma: no cover - numpy < 2 fallback
        counts = np.array([popcount(row) for row in masks], dtype=np.int64)
    # Dict order matches the object core: reverse-topo gates, then
    # primary inputs, then registers.
    node_order = list(reversed(flat.topo.tolist())) \
        + list(range(flat.n_inputs)) + dff_rows.tolist()
    obs = {flat.names[node]: int(counts[node]) / float(n_patterns)
           for node in node_order}
    kept = {flat.names[node]: masks[node].copy() for node in node_order} \
        if keep_masks else None
    return obs, kept


# ----------------------------------------------------------------------
# Error-latching windows (eq. 3)
# ----------------------------------------------------------------------

def circuit_elws_flat(flat: FlatCircuit,
                      window: IntervalSet) -> dict[str, IntervalSet]:
    """Flat replacement for ``repro.core.elw._circuit_elws_impl``.

    Walks nets in the same reverse-topological order, but builds each
    net's ELW with a *single* :class:`IntervalSet` construction from raw
    shifted endpoint pairs -- sound because interval-union normalization
    is confluent: pre-merging any subset (what the object core's
    intermediate ``shift``/``union`` sets do) never changes the final
    merged intervals.  Shifts use the identical float expression
    ``endpoint + (-delay)``; a node's readers come straight from the
    reader CSR.  Every endpoint is already a float, so the pairs skip
    the public constructor's ``float()`` pass.
    """
    neg_delay = (-flat.gate_delay).tolist()
    readers = flat.reader.tolist()
    indptr = flat.reader_indptr.tolist()
    n_inputs = flat.n_inputs
    window_pairs = tuple(window.intervals)
    latched = (flat.is_po | flat.dff_read).tolist()
    by_node: list[IntervalSet | None] = [None] * flat.n_nodes

    dff_base = flat.n_inputs + flat.n_gates
    node_order = list(reversed(flat.topo.tolist())) \
        + list(range(flat.n_inputs)) \
        + list(range(dff_base, dff_base + flat.n_dffs))
    empty = IntervalSet.empty()
    from_pairs = IntervalSet._from_float_pairs
    for node in node_order:
        pairs = list(window_pairs) if latched[node] else []
        for reader in readers[indptr[node]:indptr[node + 1]]:
            offset = neg_delay[reader - n_inputs]
            for left, right in by_node[reader].intervals:
                pairs.append((left + offset, right + offset))
        by_node[node] = from_pairs(pairs) if pairs else empty
    return {flat.names[node]: by_node[node] for node in node_order}


# ----------------------------------------------------------------------
# SER aggregation (eq. 4)
# ----------------------------------------------------------------------

def ser_totals_flat(flat: FlatCircuit, obs_full: Mapping[str, float],
                    elws: Mapping[str, IntervalSet], reg_err: float,
                    phi: float,
                    ) -> tuple[dict[str, float], float, float, float]:
    """Vectorized eq. (4) aggregation.

    Returns ``(per_element, comb, reg, no_timing)`` exactly as the
    object loop in ``repro.ser.analysis._analyze_ser_impl`` computes
    them: per-element products are elementwise float64 (bit-identical
    to Python scalar arithmetic), the running sums accumulate
    sequentially in declaration order.  ``reg_err`` is the register
    cell's raw rate; gate rates are the library's, scaled by
    :data:`~repro.ser.rates.RATE_UNIT`.
    """
    n_inputs, n_gates = flat.n_inputs, flat.n_gates
    gate_names = flat.names[n_inputs:n_inputs + n_gates]
    dff_names = flat.names[n_inputs + n_gates:]

    err = flat.gate_raw_ser * RATE_UNIT
    obs_arr = np.array([obs_full[name] for name in gate_names],
                       dtype=np.float64)
    meas = np.array([elws[name].measure for name in gate_names],
                    dtype=np.float64)
    values = obs_arr * err * (meas / phi)
    no_timing_terms = obs_arr * err

    per_element: dict[str, float] = {}
    comb = reg = 0.0
    no_timing = 0.0
    for name, value in zip(gate_names, values.tolist()):
        per_element[name] = value
        comb += value
    for term in no_timing_terms.tolist():
        no_timing += term

    dff_obs = np.array([obs_full[name] for name in dff_names],
                       dtype=np.float64)
    dff_meas = np.array([elws[name].measure for name in dff_names],
                        dtype=np.float64)
    dff_values = dff_obs * reg_err * (dff_meas / phi)
    dff_no_timing = dff_obs * reg_err
    for name, value in zip(dff_names, dff_values.tolist()):
        per_element[name] = value
        reg += value
    for term in dff_no_timing.tolist():
        no_timing += term
    return per_element, comb, reg, no_timing
