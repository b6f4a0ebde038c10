"""The family registry and tier definitions."""

import functools
import pickle

import pytest

from repro.corpus import (
    FAMILIES,
    TIERS,
    CircuitSpec,
    build_circuit,
    corpus_circuit,
    resolve_library,
    tier_specs,
)
from repro.errors import NetlistError
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist.validate import validate_circuit

#: One spec per family sized for ~10^3 gates: the generators' size
#: contract is that each lands within 25% of its gate target.
KILO_GATES = 1_000
KILO_SPECS = tuple(
    CircuitSpec(name=f"{family}_1k", family=family, params=params)
    for family, params in (
        ("pipeline", {"stages": 10, "width": 100}),
        ("fsm_datapath", {"state_bits": 6, "stages": 10, "width": 100}),
        ("tree", {"leaves": 1000, "reg_every": 2}),
        ("mesh", {"rows": 32, "cols": 32}),
        ("random", {"n_gates": 1000, "n_dffs": 83}),
        ("cslow", {"c": 2, "base_family": "mesh",
                   "base_params": {"rows": 32, "cols": 32}}),
    ))


class TestRegistry:
    def test_every_family_has_a_small_tier_member(self):
        families_used = {spec.family for spec in TIERS["small"]}
        assert families_used == set(FAMILIES)

    def test_tier_names_are_unique(self):
        for tier, specs in TIERS.items():
            names = [spec.name for spec in specs]
            assert len(names) == len(set(names)), tier

    def test_unknown_family_rejected(self):
        with pytest.raises(NetlistError):
            CircuitSpec(name="x", family="nope", params={})

    def test_unknown_format_rejected(self):
        with pytest.raises(NetlistError):
            CircuitSpec(name="x", family="pipeline", params={},
                        fmt="verilog")

    def test_unknown_tier_rejected(self):
        with pytest.raises(NetlistError):
            tier_specs("gigantic")

    def test_unknown_circuit_rejected(self):
        with pytest.raises(NetlistError):
            corpus_circuit("small", "not_a_circuit")


class TestBuilds:
    @pytest.mark.parametrize("spec", TIERS["small"] + KILO_SPECS,
                             ids=lambda s: s.name)
    def test_small_tier_builds_validate(self, spec):
        circuit = build_circuit(spec)
        validate_circuit(circuit)
        graph = RetimingGraph.from_circuit(circuit)
        assert graph.cycles_have_registers()
        assert circuit.name == spec.name
        if spec in KILO_SPECS:
            assert abs(circuit.n_gates - KILO_GATES) <= 0.25 * KILO_GATES

    def test_builds_are_deterministic(self):
        spec = TIERS["small"][0]
        a = build_circuit(spec)
        b = build_circuit(spec)
        assert a.fingerprint() == b.fingerprint()

    def test_cslow_multiplies_registers(self):
        spec = next(s for s in TIERS["small"] if s.family == "cslow")
        slowed = build_circuit(spec)
        assert slowed.n_dffs % spec.params["c"] == 0

    def test_cslow_base_cannot_be_cslow(self):
        spec = CircuitSpec(name="x", family="cslow",
                           params={"c": 2, "base_family": "cslow",
                                   "base_params": {}})
        with pytest.raises(NetlistError):
            build_circuit(spec)

    def test_spec_round_trips_through_dict(self):
        for spec in TIERS["small"]:
            rebuilt = CircuitSpec.from_dict(spec.name, spec.to_dict())
            assert rebuilt == spec

    def test_factory_partial_is_picklable(self):
        factory = functools.partial(corpus_circuit, "small")
        clone = pickle.loads(pickle.dumps(factory))
        assert clone("cslow_a").fingerprint() == \
            corpus_circuit("small", "cslow_a").fingerprint()


class TestLibraries:
    def test_known_specs_resolve(self):
        assert resolve_library("generic").name == "generic"
        assert resolve_library("unit").name == "unit"
        lib = resolve_library("skewed:7:0.3")
        assert lib.name == "skewed:7:0.3"
        again = resolve_library("skewed:7:0.3")
        assert [(c.delay, c.raw_ser) for c in lib.cells()] == \
            [(c.delay, c.raw_ser) for c in again.cells()]

    def test_fresh_instances_every_time(self):
        assert resolve_library("generic") is not resolve_library("generic")

    @pytest.mark.parametrize("bad", ["skewed", "skewed:7", "skewed:x:0.3",
                                     "skewed:1:2:3", "mystery"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(NetlistError):
            resolve_library(bad)
