"""Shared fixtures for the fault-injection / chaos test suite.

Cheap deterministic tests run everywhere; the heavy end-to-end chaos
runs (multi-second suite runs, subprocess kill loops) are gated behind
``REPRO_CHAOS=1`` so tier-1 stays fast.  CI runs them in a dedicated
``chaos`` job.
"""

import pytest

from repro.circuits import random_sequential_circuit
from repro.runtime.suite import SuiteConfig


def tiny_factory(name):
    """Small deterministic circuits keyed (seeded) by name."""
    return random_sequential_circuit(
        name, n_gates=40, n_dffs=10, n_inputs=4, n_outputs=4,
        seed=sum(map(ord, name)))


def micro_factory(name):
    """Oracle-scale circuits (few DFFs, brute-forceable boxes)."""
    return random_sequential_circuit(
        name, n_gates=12, n_dffs=4, n_inputs=3, n_outputs=3,
        seed=sum(map(ord, name)))


@pytest.fixture
def cfg():
    return SuiteConfig(circuits=("alpha", "beta"), seed=0, n_frames=3,
                       n_patterns=32)


@pytest.fixture
def micro_cfg():
    return SuiteConfig(circuits=("mu", "nu"), seed=0, n_frames=3,
                       n_patterns=16)
