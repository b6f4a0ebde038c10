"""Bit-parallel logic simulation, time-frame expansion and observability.

* :mod:`repro.sim.bitvec` -- packed 64-bit signal signatures.
* :mod:`repro.sim.logicsim` -- combinational bit-parallel evaluation.
* :mod:`repro.sim.sequential` -- multi-cycle simulation of sequential
  circuits (the signal traces behind time-frame expansion).
* :mod:`repro.sim.odc` -- observability / ODC-mask computation with
  n-time-frame expansion (fast backward propagation + exact
  flip-and-resimulate oracle).
* :mod:`repro.sim.faults` -- single-event-upset injection with sensitized
  timing-accurate propagation (model validation).
"""

from .bitvec import (
    PATTERNS_PER_WORD,
    all_ones,
    all_zeros,
    fraction_of_ones,
    from_bits,
    popcount,
    random_patterns,
    to_bits,
)
from .logicsim import eval_gate, simulate_comb
from .sequential import SequentialSimulator, random_state, simulate_trace
from .odc import ObservabilityResult, exact_observability, observability
from .faults import GlitchResult, propagate_glitch, sensitized_latching_windows

__all__ = [
    "PATTERNS_PER_WORD",
    "all_ones",
    "all_zeros",
    "fraction_of_ones",
    "from_bits",
    "popcount",
    "random_patterns",
    "to_bits",
    "eval_gate",
    "simulate_comb",
    "SequentialSimulator",
    "random_state",
    "simulate_trace",
    "ObservabilityResult",
    "observability",
    "exact_observability",
    "GlitchResult",
    "propagate_glitch",
    "sensitized_latching_windows",
]
