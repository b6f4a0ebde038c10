"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    figure1_circuit,
    random_sequential_circuit,
    simple_feedback_circuit,
    toy_correlator,
)
from repro.netlist import Circuit, loads_bench


@pytest.fixture
def tiny_bench_text() -> str:
    """A small sequential circuit in .bench format."""
    return """
# tiny
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(s1)
s1 = DFF(g2)
g1 = NAND(a, s1)
g2 = NOT(g1)
y = AND(g2, b)
"""


@pytest.fixture
def tiny_circuit(tiny_bench_text) -> Circuit:
    """The parsed tiny circuit."""
    return loads_bench(tiny_bench_text, "tiny")


@pytest.fixture
def correlator() -> Circuit:
    """The Leiserson-Saxe correlator."""
    return toy_correlator()


@pytest.fixture
def feedback() -> Circuit:
    """Minimal circuit with a sequential loop."""
    return simple_feedback_circuit()


@pytest.fixture
def fig1() -> Circuit:
    """The paper's Figure 1 trade-off circuit."""
    return figure1_circuit()


@pytest.fixture
def medium_circuit() -> Circuit:
    """A mid-size random sequential circuit (deterministic)."""
    return random_sequential_circuit(
        "medium", n_gates=120, n_dffs=36, n_inputs=8, n_outputs=8, seed=42)


def tiny_random(seed: int, n_gates: int = 6, n_dffs: int = 3) -> Circuit:
    """Helper for oracle-scale random circuits."""
    return random_sequential_circuit(
        f"tiny{seed}", n_gates=n_gates, n_dffs=n_dffs, n_inputs=2,
        n_outputs=2, avg_fanin=1.8, seed=seed)
