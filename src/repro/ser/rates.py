"""Raw (unmasked) soft-error rates -- the ``err(g)`` of eq. (4).

The paper extracts per-gate raw SER from SPICE characterization using the
static method of Rao et al. [25].  Offline, the cell library ships a
deterministic surrogate characterization (delay- and fanin-correlated);
only the *relative* rates across gates matter for where retiming moves
registers (see DESIGN.md substitution table).  ``err(g)`` is that
characterization scaled by :data:`RATE_UNIT`.
"""

from __future__ import annotations

from ..netlist.circuit import Circuit

#: A global scale applied to all raw rates; keeps the absolute SER values
#: in the 1e-2..1e-1 range of the paper's Table I for the suite circuits.
RATE_UNIT = 1e-6


def register_rate(circuit: Circuit) -> float:
    """Raw SER of a register cell."""
    return circuit.library.register_raw_ser * RATE_UNIT


def raw_rates(circuit: Circuit) -> dict[str, float]:
    """Raw SER for every gate and flip-flop of ``circuit``."""
    rates = {name: circuit.gate_raw_ser(name) * RATE_UNIT
             for name in circuit.gates}
    reg_rate = register_rate(circuit)
    rates.update({name: reg_rate for name in circuit.dffs})
    return rates
