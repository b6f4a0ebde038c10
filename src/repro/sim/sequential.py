"""Multi-cycle simulation of sequential circuits.

Each packed pattern is an independent execution trace: per cycle the
simulator applies fresh primary-input signatures, evaluates the
combinational logic, and clocks flip-flop data inputs into the state.
These per-cycle net signatures are exactly the signal values of an
n-time-frame expansion [17], without materializing the unrolled netlist.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from .bitvec import all_ones, all_zeros, random_patterns
from .logicsim import simulate_comb


def random_state(circuit: Circuit, n_patterns: int,
                 rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform random register state (one bit per pattern per flip-flop)."""
    return {name: random_patterns(n_patterns, rng) for name in circuit.dffs}


def reset_state(circuit: Circuit, n_patterns: int) -> dict[str, np.ndarray]:
    """Power-up state from each flip-flop's declared ``init`` value."""
    state: dict[str, np.ndarray] = {}
    for name, dff in circuit.dffs.items():
        if dff.init:
            state[name] = all_ones(n_patterns)
        else:
            state[name] = all_zeros(n_patterns)
    return state


class SequentialSimulator:
    """Stateful cycle-by-cycle simulator.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    n_patterns:
        Number of parallel traces.
    state:
        Initial register state; defaults to the declared reset state.
    """

    def __init__(self, circuit: Circuit, n_patterns: int,
                 state: Mapping[str, np.ndarray] | None = None):
        self.circuit = circuit
        self.n_patterns = n_patterns
        if state is None:
            self.state = reset_state(circuit, n_patterns)
        else:
            self.state = {k: v.copy() for k, v in state.items()}
            missing = set(circuit.dffs) - set(self.state)
            if missing:
                raise SimulationError(
                    f"initial state missing flip-flops: {sorted(missing)}")
        self.cycle = 0

    def step(self, pi_values: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Advance one clock cycle; returns all net signatures of the cycle.

        The returned dictionary reflects values *before* the clock edge
        (flip-flop outputs hold the previous state); after the call the
        internal state has been updated from the flip-flop data inputs.
        """
        values = dict(pi_values)
        values.update(self.state)
        nets = simulate_comb(self.circuit, values, self.n_patterns)
        self.state = {name: nets[dff.d].copy()
                      for name, dff in self.circuit.dffs.items()}
        self.cycle += 1
        return nets

    def step_random(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Advance one cycle with uniform random primary inputs."""
        pis = {net: random_patterns(self.n_patterns, rng)
               for net in self.circuit.inputs}
        return self.step(pis)


def simulate_trace(circuit: Circuit,
                   input_trace: Sequence[Mapping[str, np.ndarray]],
                   n_patterns: int,
                   state: Mapping[str, np.ndarray] | None = None,
                   ) -> list[dict[str, np.ndarray]]:
    """Simulate a fixed sequence of input cycles; returns per-cycle nets."""
    sim = SequentialSimulator(circuit, n_patterns, state)
    return [sim.step(cycle_inputs) for cycle_inputs in input_trace]
