"""Flat CSR netlist core with vectorized analysis kernels.

See ``docs/flatcore.md`` for the arena layout, the level-sweep kernel
contract and the object-core oracle seam (:func:`flat_for`).
"""

from .arena import (DIGEST_TAG, OP_CODES, FlatCircuit, GatePlan, LevelPlan,
                    flat_for, lower, validate_flat)
from .kernels import (circuit_elws_flat, observability_flat,
                      record_frames_flat, ser_totals_flat,
                      simulate_comb_flat)

__all__ = [
    "DIGEST_TAG", "OP_CODES", "FlatCircuit", "GatePlan", "LevelPlan",
    "flat_for", "lower", "validate_flat",
    "circuit_elws_flat", "observability_flat", "record_frames_flat",
    "ser_totals_flat", "simulate_comb_flat",
]
