"""Level programs vs the per-gate reference evaluator.

Every supported op runs through one algebra in the flat core,
``R(x_1 ^ m, ..., x_k ^ m) ^ o`` with padded fanins (see
:class:`repro.flatcore.arena.LevelProgram`).  The oracle is
:func:`repro.sim.logicsim.eval_gate`, the object core's per-op
evaluator: for every op at every legal arity, at pattern counts on and
off the 64-bit word boundary, the swept value must equal the trimmed
reference bit for bit.
"""

import numpy as np
import pytest

from repro.flatcore import kernels, lower, validate_flat
from repro.netlist.cell_library import _ARITY, SUPPORTED_OPS
from repro.netlist.circuit import Circuit
from repro.sim.bitvec import _tail_mask, n_words, random_patterns, trim
from repro.sim.logicsim import eval_gate

N_INPUTS = 8

#: Every (op, arity) the cell library accepts.
OP_ARITIES = [(op, k) for op in SUPPORTED_OPS
              for k in range(_ARITY[op][0], _ARITY[op][1] + 1)]


def all_ops_circuit():
    """Every (op, arity) twice: once on distinct inputs at level 1 (one
    mixed-family program), once at level 2 reading level-1 gates with a
    repeated port (untrimmed inverted padding flows into readers)."""
    circuit = Circuit("algebra")
    inputs = [circuit.add_input(f"i{j}") for j in range(N_INPUTS)]
    first = []
    for op, k in OP_ARITIES:
        first.append(circuit.add_gate(f"a_{op}_{k}", op, inputs[:k]))
    for n, (op, k) in enumerate(OP_ARITIES):
        srcs = [first[(n + j) % len(first)] for j in range(k)]
        if k >= 2:
            srcs[-1] = srcs[0]  # a net on two ports of one gate
        circuit.add_gate(f"b_{op}_{k}", op, srcs)
    for name in circuit.gates:
        circuit.add_output(name)
    return circuit


@pytest.fixture(scope="module")
def algebra():
    circuit = all_ops_circuit()
    flat = lower(circuit)
    validate_flat(flat, circuit)
    return circuit, flat


def test_every_op_and_arity_is_covered(algebra):
    circuit, flat = algebra
    assert len(flat.programs) == 2
    ops = {(g.op, len(g.inputs)) for g in circuit.gates.values()}
    assert ops == set(OP_ARITIES)
    # both families share the level-1 program, AND family first
    prog = flat.programs[0]
    assert 0 < prog.n_and < len(prog.gates)
    assert prog.fanin.shape == (max(k for _, k in OP_ARITIES),
                                len(prog.gates))


@pytest.mark.parametrize("n_patterns", [1, 7, 63, 64, 65, 128, 200])
def test_level_programs_match_eval_gate(algebra, n_patterns):
    circuit, flat = algebra
    words = n_words(n_patterns)
    rng = np.random.default_rng(n_patterns)
    values = kernels._value_matrix(flat, words)
    for node in range(flat.n_inputs):
        values[node] = random_patterns(n_patterns, rng)
    kernels._level_sweep(flat, values, _tail_mask(n_patterns))

    for name in circuit.topo_gates():
        gate = circuit.gates[name]
        ins = [values[flat.index[src]] for src in gate.inputs]
        want = trim(eval_gate(gate.op, ins, n_patterns), n_patterns)
        got = values[flat.index[name]]
        assert np.array_equal(got, want), (name, n_patterns)
