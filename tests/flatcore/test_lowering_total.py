"""Lowering is total on every circuit the experiments analyze.

The flat core is the only production engine and ``flat_for`` has no
fallback: a circuit that cannot be lowered fails its analysis with
:class:`~repro.errors.FlatCoreError`.  These tests pin the evidence
that made the old object-core fallback dead code -- :func:`lower`
raises nothing on the committed small-tier corpus, on every Table I row
at the end-to-end benchmark's scale, or on a retimed rebuild from each
corpus family -- so they fail if a change ever makes lowering partial.
"""

import os

import pytest

from repro.circuits.suites import TABLE1_ROWS, table1_circuit
from repro.corpus import build_circuit, tier_specs
from repro.corpus.families import resolve_library
from repro.flatcore import lower, validate_flat
from repro.netlist import load_bench, load_blif
from repro.pipeline import optimize_circuit

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SMALL_DIR = os.path.join(REPO_ROOT, "corpus", "small")

#: The Table I scale the end-to-end benchmark runs at.
TABLE1_SCALE = 0.008

SMALL_SPECS = tier_specs("small")

#: The first small-tier member of each generator family.
_BY_FAMILY = {}
for _spec in SMALL_SPECS:
    _BY_FAMILY.setdefault(_spec.family, _spec)
FAMILY_SPECS = list(_BY_FAMILY.values())


def lowers(circuit):
    flat = lower(circuit)
    validate_flat(flat, circuit)
    return flat


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.name)
def test_committed_corpus_lowers(spec):
    path = os.path.join(SMALL_DIR, f"{spec.name}.{spec.fmt}")
    load = load_bench if spec.fmt == "bench" else load_blif
    circuit = load(path, library=resolve_library(spec.library))
    assert lowers(circuit).n_gates == len(circuit.gates)


@pytest.mark.parametrize("row", [row.name for row in TABLE1_ROWS])
def test_table1_row_lowers(row):
    circuit = table1_circuit(row, scale=TABLE1_SCALE)
    assert lowers(circuit).n_dffs == len(circuit.dffs)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
def test_retimed_rebuild_lowers(spec):
    result = optimize_circuit(build_circuit(spec),
                              algorithms=("minobswin",), n_frames=2,
                              n_patterns=64)
    retimed = result.outcomes["minobswin"].circuit
    assert lowers(retimed).n_dffs == retimed.n_dffs
