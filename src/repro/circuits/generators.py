"""Deterministic synthetic sequential-circuit generators.

All generators are seeded and structural: they produce well-formed
synchronous netlists (every feedback loop broken by a register, no
register-only cycles) whose size knobs -- gate count, connection count,
register density, logic depth -- can be tuned to mirror the ISCAS89/ITC99
rows of Table I (see :mod:`repro.circuits.suites`).

Design notes (what matters for reproducing the paper's behaviour):

* *register placement*: a configurable fraction of gate outputs feed
  registers, creating the register-to-register paths whose lengths the
  ELW constraints police;
* *feedback*: registers close loops back into earlier logic (like FSM
  state), so time-frame expansion is actually exercised;
* *reconvergence*: random multi-fanout taps create the reconvergent paths
  that separate the fast backward ODC propagation from the exact oracle;
* *op mix*: weighted toward NAND/NOR/AND/OR with some XOR, so signal
  probabilities stay away from degenerate 0/1 fixpoints.

Seeding contract (the dgen-rs rule): every stochastic generator accepts
either a bare integer ``seed`` *or* an explicit ``rng``
(:class:`numpy.random.Generator`) instance.  Passing an instance lets a
composite generator (an FSM + datapath mix, a c-slowed core, a corpus
tier) thread **one** private stream through its sub-generators, so
nothing ever touches shared or global RNG state and the emitted netlist
is a pure function of ``(family, params, seed)`` -- byte-reproducible
across processes and platforms (see :mod:`repro.corpus`).
"""

from __future__ import annotations

import bisect

import numpy as np

from ..errors import NetlistError
from ..netlist.circuit import Circuit
from ..netlist.cell_library import CellLibrary


def resolve_rng(seed: int = 0,
                rng: np.random.Generator | None = None,
                ) -> np.random.Generator:
    """Return the RNG a generator should draw from.

    An explicit ``rng`` instance wins over ``seed``; a fresh PCG64
    stream is derived from ``seed`` otherwise.  Rejects anything that is
    not a :class:`numpy.random.Generator` (notably the legacy
    ``numpy.random.RandomState`` and ``random.Random``): their streams
    differ, and a silently accepted wrong type would break the corpus's
    byte-reproducibility contract.
    """
    if rng is None:
        return np.random.default_rng(seed)
    if not isinstance(rng, np.random.Generator):
        raise NetlistError(
            f"rng must be a numpy.random.Generator instance, "
            f"got {type(rng).__name__}")
    return rng


_OPS_BY_ARITY: dict[int, list[str]] = {
    1: ["NOT", "BUF"],
    2: ["NAND", "NOR", "AND", "OR", "XOR"],
    3: ["NAND", "NOR", "AND", "OR"],
    4: ["NAND", "NOR", "AND", "OR"],
}
_OP_WEIGHTS: dict[int, list[float]] = {
    1: [0.7, 0.3],
    2: [0.28, 0.2, 0.2, 0.2, 0.12],
    3: [0.3, 0.2, 0.3, 0.2],
    4: [0.3, 0.2, 0.3, 0.2],
}


def random_sequential_circuit(name: str, n_gates: int, n_dffs: int,
                              n_inputs: int = 8, n_outputs: int = 8,
                              avg_fanin: float = 2.2,
                              locality: int = 64,
                              feedback_fraction: float = 0.5,
                              seed: int = 0,
                              library: CellLibrary | None = None,
                              rng: np.random.Generator | None = None,
                              ) -> Circuit:
    """Generate a random synchronous circuit.

    Parameters
    ----------
    n_gates, n_dffs, n_inputs, n_outputs:
        Structural sizes; ``n_gates`` must be at least 2 and at least as
        large as ``n_outputs``.
    avg_fanin:
        Mean gate fanin; together with ``n_gates`` this sets the
        connection count (the paper's |E|).
    locality:
        Gates prefer sources among the previous ``locality`` nets,
        producing the layered, locally-connected structure of mapped
        netlists (and bounded logic depth).
    feedback_fraction:
        Fraction of register outputs wired back into the *early* part of
        the gate list on the next cycle (state feedback); the rest feed
        forward like pipeline registers.
    seed:
        RNG seed; identical arguments always produce identical netlists.
    rng:
        Explicit :class:`numpy.random.Generator` to draw from instead of
        ``seed`` (see :func:`resolve_rng`); composite generators pass
        their own stream here so nested calls never share state.
    """
    if n_gates < 2:
        raise NetlistError("need at least 2 gates")
    if n_inputs < 1:
        raise NetlistError("need at least 1 primary input")
    rng = resolve_rng(seed, rng)
    circuit = Circuit(name, library)

    inputs = [circuit.add_input(f"pi{i}") for i in range(n_inputs)]
    gate_names = [f"g{i}" for i in range(n_gates)]
    dff_names = [f"ff{i}" for i in range(n_dffs)]

    # Registers sample their data inputs from the gate list (distinct
    # driver gates where possible -- one physical register per driver, the
    # Leiserson-Saxe per-edge register model stays aligned with physical
    # register counts when register fanout is low); a feedback register is
    # readable by every gate, a pipeline register only by gates later than
    # its driver.  Register sources are never the register-reading
    # state-decode gates (defined below): a reg -> gate -> reg hop on a
    # feedback cycle would make the cycle hold-infeasible for any
    # retiming whenever T_h exceeds one gate delay.
    decode_stride = max(2, round(n_gates / max(1, int(n_dffs * 0.8))))
    source_pool = np.array([gi for gi in range(n_gates)
                            if gi % decode_stride != 0])
    if n_dffs <= len(source_pool):
        dff_sources = rng.choice(source_pool, size=n_dffs, replace=False)
    else:
        dff_sources = source_pool[
            rng.integers(0, len(source_pool), size=n_dffs)]
    is_feedback = rng.random(n_dffs) < feedback_fraction

    # Pools of nets gates may read: earlier gates (locality-windowed),
    # primary inputs (restricted to an input zone near the front, as in
    # real netlists -- this also preserves retiming freedom: a gate fed
    # directly by a primary input can never send a register forward), and
    # register outputs (sampled with low probability so register fanout
    # stays realistic).
    pi_zone = max(4, n_gates // 8)
    dff_read_prob = min(0.9, 1.6 * n_dffs / max(1, n_gates * avg_fanin))
    dff_source_set = {gate_names[int(s)] for s in dff_sources}
    # State-decode zone: a slice of gates (interleaved through the list
    # at decode_stride, like the next-state / output-decode logic of real
    # designs) that read *pairs* of register outputs.  Registers whose
    # fanouts converge at a shared gate are exactly what gives retiming
    # its register-merge moves -- without this, random wiring leaves
    # almost no freedom.
    unread: list[str] = []  # nets with no reader yet (keeps logic alive)
    # Register-read eligibility, incrementally: register ``di`` becomes
    # readable at gate 0 (feedback) or one past its driver (pipeline).
    # A flat arrival index plus a sorted eligible pool replaces the old
    # per-gate rescan of every register -- O(gates + dffs log dffs)
    # instead of O(gates * dffs) -- while reproducing the exact ordered
    # pool (ascending register index) the rescan built, so the RNG
    # draw sequence, and therefore every emitted netlist, is
    # byte-identical to the quadratic version.
    arrival = np.where(is_feedback, 0, dff_sources + 1)
    arrivals_by_gate: dict[int, list[int]] = {}
    for di in np.argsort(arrival, kind="stable").tolist():
        arrivals_by_gate.setdefault(int(arrival[di]), []).append(di)
    eligible: list[int] = []  # readable register indices, ascending
    for gi, gname in enumerate(gate_names):
        for di in arrivals_by_gate.pop(gi, ()):
            bisect.insort(eligible, di)
        n_in = min(4, max(1, int(round(rng.normal(avg_fanin, 0.9)))))
        window_start = max(0, gi - locality)
        pool: list[str] = list(gate_names[window_start:gi])
        if gi < pi_zone or not pool:
            pool.extend(inputs)

        chosen_nets: list[str] = []
        taken: set[str] = set()
        if gi % decode_stride == 0 and len(eligible) >= 2:
            # State-decode gate: merge two register outputs.  The
            # registers are consumed (fanout 1) so the Leiserson-Saxe
            # per-edge register model of the paper's objective (eq. 5)
            # coincides with the physical register count.
            picks = sorted(rng.choice(len(eligible), size=2,
                                      replace=False), reverse=True)
            for p in picks:
                name = dff_names[eligible.pop(int(p))]
                chosen_nets.append(name)
                taken.add(name)
            # Exactly the two registers: any extra (unregistered) input
            # would block the merge move with a P0 cascade.
            n_in = 2
        else:
            # First input: revive an unread net so no logic goes dead.
            while unread and len(unread) > max(4, n_inputs):
                candidate = unread.pop(0)
                chosen_nets.append(candidate)
                taken.add(candidate)
                break
        while len(chosen_nets) < n_in:
            if eligible and rng.random() < dff_read_prob:
                pick = dff_names[eligible.pop(
                    int(rng.integers(0, len(eligible))))]
            else:
                pick = pool[int(rng.integers(0, len(pool)))]
            if pick in taken:
                # Tolerate occasional short gates instead of looping.
                if rng.random() < 0.5:
                    break
                continue
            taken.add(pick)
            chosen_nets.append(pick)
        n_in = len(chosen_nets)
        ops = _OPS_BY_ARITY[n_in]
        op = ops[rng.choice(len(ops), p=_OP_WEIGHTS[n_in])]
        circuit.add_gate(gname, op, chosen_nets)
        for net in chosen_nets:
            if net in unread:
                unread.remove(net)
        if gname not in dff_source_set:
            unread.append(gname)
        elif rng.random() < 0.6:
            # Side observation tap on a register's source gate (the
            # Fig. 1 structure): the gate is observable both through its
            # register and through a combinational side path, so moving
            # the register away genuinely unions differently-shifted
            # latching windows -- the ELW-growth mechanism the paper's
            # P2' constraint exists to police.
            unread.append(gname)

    for di, dname in enumerate(dff_names):
        circuit.add_dff(dname, gate_names[int(dff_sources[di])], init=0)

    # Output stage: like real netlists, no logic is dead -- leftover
    # unread nets (gate outputs *and* unread registers) feed pairwise
    # output-compaction trees whose roots are the primary outputs.  The
    # trees deepen the logic in front of the outputs, so the initial
    # circuit has no one-gate register-to-latch paths (which would
    # degenerate the R_min of Sec. V) and no register is trapped
    # guarding a primary output (which would make hold repair
    # impossible: such a register can never move forward).
    read_dffs = {net for g in circuit.gates.values() for net in g.inputs}
    sinks = list(dict.fromkeys(unread))
    sinks.extend(d for d in dff_names if d not in read_dffs)
    rng.shuffle(sinks)
    tree_index = 0
    target = max(2, n_outputs)
    tree_ops = ["OR", "XOR", "NAND", "AND", "NOR"]
    while len(sinks) > target:
        a = sinks.pop(0)
        b = sinks.pop(0)
        op = tree_ops[tree_index % len(tree_ops)]
        name = circuit.add_gate(f"po_t{tree_index}", op, [a, b])
        tree_index += 1
        sinks.append(name)
    for net in sinks:
        circuit.add_output(net)

    from ..netlist.validate import validate_circuit

    validate_circuit(circuit)
    return circuit


def pipeline_circuit(name: str = "pipeline", stages: int = 4,
                     width: int = 8, seed: int = 0,
                     library: CellLibrary | None = None,
                     rng: np.random.Generator | None = None) -> Circuit:
    """A feed-forward pipelined datapath (register bank between stages).

    Each stage is a shuffle of 2-input gates over the previous stage's
    registered outputs -- the classic structure where retiming has full
    freedom to rebalance registers.  Every register is consumed by
    exactly one gate (a lane permutation plus short intra-stage chains),
    keeping the Leiserson-Saxe per-edge register model aligned with the
    physical register count.
    """
    rng = resolve_rng(seed, rng)
    circuit = Circuit(name, library)
    current = [circuit.add_input(f"in{i}") for i in range(width)]
    for stage in range(stages):
        perm = rng.permutation(width)
        stage_nets: list[str] = []
        for lane in range(width):
            a = current[int(perm[lane])]
            # Second operand: the previous gate in this stage (a short
            # intra-stage chain), so each incoming lane is read once.
            b = stage_nets[-1] if lane % 4 and stage_nets else \
                current[int(perm[lane])]
            ops = _OPS_BY_ARITY[2]
            op = ops[rng.choice(len(ops), p=_OP_WEIGHTS[2])]
            if a == b and op == "XOR":
                op = "NAND"
            stage_nets.append(
                circuit.add_gate(f"s{stage}_g{lane}", op, [a, b]))
        current = [circuit.add_dff(f"s{stage}_r{lane}", net)
                   for lane, net in enumerate(stage_nets)]
    for lane, net in enumerate(current):
        circuit.add_output(net)
    return circuit


def lfsr_circuit(name: str = "lfsr", taps: tuple[int, ...] = (0, 2, 3),
                 length: int = 8,
                 library: CellLibrary | None = None) -> Circuit:
    """A Fibonacci LFSR with an enable input (dense feedback).

    The register chain shifts every cycle; the feedback bit is the XOR of
    the tapped stages gated by ``en``.  Small, strongly-connected, and a
    stress test for time-frame expansion.
    """
    if any(t >= length for t in taps) or len(taps) < 2:
        raise NetlistError("taps must be below length and at least two")
    circuit = Circuit(name, library)
    en = circuit.add_input("en")
    stage_names = [f"r{i}" for i in range(length)]
    # Feedback XOR tree over the taps.
    prev = stage_names[taps[0]]
    for k, tap in enumerate(taps[1:]):
        prev = circuit.add_gate(f"fb{k}", "XOR", [prev, stage_names[tap]])
    gated = circuit.add_gate("fb_en", "AND", [prev, en])
    # A seed path so the all-zero state is escapable: OR with NOT(en).
    nen = circuit.add_gate("nen", "NOT", [en])
    injected = circuit.add_gate("fb_inject", "OR", [gated, nen])
    circuit.add_dff(stage_names[0], injected, init=1)
    for i in range(1, length):
        buf = circuit.add_gate(f"sh{i}", "BUF", [stage_names[i - 1]])
        circuit.add_dff(stage_names[i], buf, init=0)
    circuit.add_output(stage_names[length - 1])
    circuit.add_output("fb_inject")
    return circuit


def ripple_counter_circuit(name: str = "counter", bits: int = 4,
                           library: CellLibrary | None = None) -> Circuit:
    """A synchronous binary up-counter with enable.

    ``bit[i]`` toggles when all lower bits are 1 and ``en`` is high:
    carry chain of AND gates plus XOR toggles -- long combinational
    paths ending in registers, good for setup-constraint tests.
    """
    if bits < 1:
        raise NetlistError("need at least one bit")
    circuit = Circuit(name, library)
    en = circuit.add_input("en")
    regs = [f"q{i}" for i in range(bits)]
    carry = en
    for i in range(bits):
        toggle = circuit.add_gate(f"t{i}", "XOR", [regs[i], carry])
        circuit.add_dff(regs[i], toggle, init=0)
        if i + 1 < bits:
            carry = circuit.add_gate(f"c{i}", "AND", [carry, regs[i]])
    for q in regs:
        circuit.add_output(q)
    return circuit


def fsm_datapath_circuit(name: str = "fsm_dp", state_bits: int = 4,
                         stages: int = 3, width: int = 8, seed: int = 0,
                         library: CellLibrary | None = None,
                         rng: np.random.Generator | None = None) -> Circuit:
    """An FSM controlling a pipelined datapath (control + data mix).

    The controller is a ``state_bits``-wide register bank with decode
    gates that merge *pairs* of state registers (the structure that gives
    retiming its register-merge moves) and next-state XOR feedback; each
    datapath stage is gated by one decode output, so control and data
    logic genuinely interleave -- the mixed-topology case absent from the
    paper's Table I rows.

    Gate count grows as ``O(state_bits + stages * width)``; both halves
    draw from one ``rng`` stream, so the netlist is a pure function of
    ``(params, seed)``.
    """
    if state_bits < 2:
        raise NetlistError("need at least 2 state bits")
    if stages < 1 or width < 2:
        raise NetlistError("need at least 1 stage and width >= 2")
    rng = resolve_rng(seed, rng)
    circuit = Circuit(name, library)
    ctl = circuit.add_input("ctl")
    data = [circuit.add_input(f"in{i}") for i in range(width)]

    # Controller: decode gates merge adjacent state-register pairs, the
    # next-state bit XORs the decode with the control input (a register
    # -> decode -> XOR -> register loop, broken by the register).
    state = [f"st{i}" for i in range(state_bits)]
    decodes: list[str] = []
    for i in range(state_bits):
        a, b = state[i], state[(i + 1) % state_bits]
        ops = _OPS_BY_ARITY[2]
        op = ops[rng.choice(len(ops), p=_OP_WEIGHTS[2])]
        if op == "XOR" and a == b:
            op = "NAND"
        decodes.append(circuit.add_gate(f"dec{i}", op, [a, b]))
        nxt = circuit.add_gate(f"nxt{i}", "XOR", [decodes[i], ctl])
        circuit.add_dff(state[i], nxt, init=i % 2)

    # Datapath: each stage permutes its lanes through 2-input gates; one
    # lane per stage is gated by a controller decode output so the FSM's
    # observability couples into the datapath's.
    current = data
    for stage in range(stages):
        perm = rng.permutation(width)
        gate_lane = int(rng.integers(0, width))
        stage_nets: list[str] = []
        for lane in range(width):
            a = current[int(perm[lane])]
            if lane == gate_lane:
                b = decodes[stage % state_bits]
            elif lane % 3 and stage_nets:
                b = stage_nets[-1]
            else:
                b = current[int(perm[(lane + 1) % width])]
            ops = _OPS_BY_ARITY[2]
            op = ops[rng.choice(len(ops), p=_OP_WEIGHTS[2])]
            if a == b and op == "XOR":
                op = "NAND"
            stage_nets.append(
                circuit.add_gate(f"p{stage}_g{lane}", op, [a, b]))
        current = [circuit.add_dff(f"p{stage}_r{lane}", net)
                   for lane, net in enumerate(stage_nets)]
    for net in current:
        circuit.add_output(net)
    # Observe the controller through a side path as well, so moving its
    # registers unions differently-shifted latching windows (the Fig. 1
    # ELW-growth structure).
    obs = circuit.add_gate("st_obs", "OR", [state[0], state[-1]])
    circuit.add_output(obs)

    from ..netlist.validate import validate_circuit

    validate_circuit(circuit)
    return circuit


def tree_circuit(name: str = "tree", leaves: int = 16, reg_every: int = 2,
                 seed: int = 0, library: CellLibrary | None = None,
                 rng: np.random.Generator | None = None) -> Circuit:
    """A registered reduction tree with root-to-leaf feedback.

    ``leaves`` primary inputs reduce pairwise through 2-input gates; a
    register bank cuts the tree every ``reg_every`` levels (pipelined
    interconnect), and the registered root feeds back into the first
    leaf pair so the loop exercises time-frame expansion.  Gate count is
    ``leaves - 1`` plus the feedback mixer -- O(n) at any scale.
    """
    if leaves < 2:
        raise NetlistError("need at least 2 leaves")
    if reg_every < 1:
        raise NetlistError("reg_every must be >= 1")
    rng = resolve_rng(seed, rng)
    circuit = Circuit(name, library)
    root_reg = "root_r"
    first = circuit.add_input("leaf0")
    mixer = circuit.add_gate("fb_mix", "XOR", [first, root_reg])
    level = [mixer] + [circuit.add_input(f"leaf{i}")
                       for i in range(1, leaves)]
    depth = 0
    while len(level) > 1:
        depth += 1
        nxt: list[str] = []
        for k in range(0, len(level) - 1, 2):
            ops = _OPS_BY_ARITY[2]
            op = ops[rng.choice(len(ops), p=_OP_WEIGHTS[2])]
            nxt.append(circuit.add_gate(
                f"t{depth}_{k // 2}", op, [level[k], level[k + 1]]))
        if len(level) % 2:
            nxt.append(level[-1])
        if depth % reg_every == 0 and len(nxt) > 1:
            nxt = [circuit.add_dff(f"t{depth}_r{j}", net)
                   if net in circuit.gates else net
                   for j, net in enumerate(nxt)]
        level = nxt
    circuit.add_dff(root_reg, level[0], init=0)
    circuit.add_output(root_reg)
    circuit.add_output(level[0])

    from ..netlist.validate import validate_circuit

    validate_circuit(circuit)
    return circuit


def mesh_circuit(name: str = "mesh", rows: int = 4, cols: int = 4,
                 seed: int = 0, library: CellLibrary | None = None,
                 rng: np.random.Generator | None = None) -> Circuit:
    """A systolic 2-D mesh with a registered torus wrap.

    Each cell combines its west and north neighbours through a 2-input
    gate and registers the result (nearest-neighbour interconnect, the
    topology of systolic arrays and NoC fabrics).  The east edge wraps
    back to the west edge through the cell registers, closing ``rows``
    feedback rings; the north edge is fed by primary inputs and the
    south edge drives the primary outputs.  ``rows * cols`` gates and
    registers -- O(n) at any scale.
    """
    if rows < 1 or cols < 2:
        raise NetlistError("need at least 1 row and 2 columns")
    rng = resolve_rng(seed, rng)
    circuit = Circuit(name, library)
    north = [circuit.add_input(f"n{c}") for c in range(cols)]

    def reg(r: int, c: int) -> str:
        return f"m{r}_{c}_r"

    for r in range(rows):
        for c in range(cols):
            west = reg(r, (c - 1) % cols)  # torus wrap on column 0
            ops = _OPS_BY_ARITY[2]
            op = ops[rng.choice(len(ops), p=_OP_WEIGHTS[2])]
            if op == "XOR" and west == north[c]:
                op = "NAND"
            g = circuit.add_gate(f"m{r}_{c}_g", op, [west, north[c]])
            circuit.add_dff(reg(r, c), g, init=(r + c) % 2)
        north = [reg(r, c) for c in range(cols)]
    for c in range(cols):
        circuit.add_output(reg(rows - 1, c))

    from ..netlist.validate import validate_circuit

    validate_circuit(circuit)
    return circuit
