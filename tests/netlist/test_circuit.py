"""Unit tests for the Circuit data model."""

import random

import pytest

from repro.errors import CombinationalCycleError, NetlistError, ParseError
from repro.netlist import Circuit, loads_bench, validate_circuit


def build_tiny() -> Circuit:
    c = Circuit("tiny")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g1", "NAND", ["a", "s1"])
    c.add_gate("g2", "NOT", ["g1"])
    c.add_gate("y", "AND", ["g2", "b"])
    c.add_dff("s1", "g2")
    c.add_output("y")
    return c


class TestConstruction:
    def test_duplicate_net_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_gate("a", "NOT", ["a"])
        with pytest.raises(NetlistError):
            c.add_dff("a", "a")
        with pytest.raises(NetlistError):
            c.add_input("a")

    def test_bad_arity_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(Exception):
            c.add_gate("g", "NOT", ["a", "a"])

    def test_bad_init_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_dff("q", "a", init=2)

    def test_forward_references_allowed(self):
        c = build_tiny()  # g1 references s1 defined later
        validate_circuit(c)


class TestQueries:
    def test_driver_kind(self):
        c = build_tiny()
        assert c.driver_kind("a") == "input"
        assert c.driver_kind("g1") == "gate"
        assert c.driver_kind("s1") == "dff"
        with pytest.raises(NetlistError):
            c.driver_kind("nope")

    def test_fanins(self):
        c = build_tiny()
        assert c.fanins("g1") == ["a", "s1"]
        assert c.fanins("s1") == ["g2"]
        assert c.fanins("a") == []

    def test_fanouts(self):
        c = build_tiny()
        assert set(c.fanouts("g2")) == {"y", "s1"}
        assert c.fanouts("y") == []

    def test_fanout_counts_multiple_connections(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", "AND", ["a", "a"])
        assert c.fanouts("a") == ["g", "g"]

    def test_topo_order(self):
        c = build_tiny()
        order = c.topo_gates()
        assert order.index("g1") < order.index("g2") < order.index("y")

    def test_comb_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("p", "AND", ["a", "q"])
        c.add_gate("q", "NOT", ["p"])
        with pytest.raises(CombinationalCycleError):
            c.topo_gates()

    def test_comb_source_through_chain(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("q1", "g")
        c.add_dff("q2", "q1")
        assert c.comb_source("q2") == ("g", 2)
        assert c.comb_source("g") == ("g", 0)

    def test_register_only_cycle_detected(self):
        c = Circuit()
        c.add_dff("q1", "q2")
        c.add_dff("q2", "q1")
        with pytest.raises(NetlistError):
            c.comb_source("q1")

    def test_stats(self):
        stats = build_tiny().stats()
        assert stats == {"inputs": 2, "outputs": 1, "gates": 3,
                         "dffs": 1, "connections": 5}


def random_registered(seed: int) -> Circuit:
    """Random gates plus flip-flops that may read other flip-flops.

    Flip-flops get a hidden rank and read only lower-ranked ones, so the
    register chains are acyclic but declared in any order.
    """
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    inputs = [c.add_input(f"i{k}") for k in range(3)]
    dff_names = [f"q{k}" for k in range(rng.randint(1, 25))]
    gate_names = [f"g{k}" for k in range(rng.randint(1, 15))]
    for k, name in enumerate(gate_names):
        pool = inputs + gate_names[:k] + dff_names
        c.add_gate(name, "AND", [rng.choice(pool), rng.choice(pool)])
    ranked = list(dff_names)
    rng.shuffle(ranked)
    for name in dff_names:
        pool = inputs + gate_names + ranked[:ranked.index(name)]
        c.add_dff(name, rng.choice(pool))
    return c


class TestRegisterSources:
    """``register_sources`` against ``comb_source``, its per-net oracle."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_chains(self, length):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", "BUF", ["a"])
        c.add_dff("p0", "a")
        # Declared sink-first: the first walk resolves the whole chain.
        for k in reversed(range(length)):
            c.add_dff(f"q{k}", f"q{k - 1}" if k else "g")
        sources = c.register_sources()
        assert sources == {name: c.comb_source(name) for name in c.dffs}
        assert sources[f"q{length - 1}"] == ("g", length)
        assert sources["p0"] == ("a", 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_circuits(self, seed):
        c = random_registered(seed)
        sources = c.register_sources()
        assert sources == {name: c.comb_source(name) for name in c.dffs}

    @pytest.mark.parametrize("seed", range(10))
    def test_register_only_cycle(self, seed):
        c = random_registered(seed)
        rng = random.Random(seed)
        ring = [f"r{k}" for k in range(rng.randint(1, 3))]
        for k, name in enumerate(ring):
            c.add_dff(name, ring[k - 1])
        c.dffs[next(iter(c.dffs))].d = ring[0]  # a chain into the ring
        with pytest.raises(NetlistError) as exc:
            c.register_sources()
        for name in c.dffs:  # the first error comb_source would raise
            try:
                c.comb_source(name)
            except NetlistError as want:
                assert str(exc.value) == str(want)
                break
        else:
            pytest.fail("comb_source found no register-only cycle")

    def test_register_only_cycle_parse_error(self):
        text = "INPUT(a)\nOUTPUT(g)\ng = BUF(a)\nq1 = DFF(q2)\nq2 = DFF(q1)\n"
        with pytest.raises(ParseError) as exc:
            loads_bench(text, path="ring.bench")
        assert exc.value.path == "ring.bench"
        assert exc.value.line == 4
        assert str(exc.value) == ("ring.bench:4: register-only cycle "
                                  "through 'q1'; insert a BUF gate")


class TestCopy:
    def test_copy_is_deep(self):
        c = build_tiny()
        d = c.copy("clone")
        d.gates["g1"].inputs[0] = "b"
        assert c.gates["g1"].inputs[0] == "a"
        assert d.name == "clone"
        assert d.stats() == c.stats()

    def test_fresh_name(self):
        c = build_tiny()
        assert c.fresh_name("new") == "new"
        assert c.fresh_name("g1") != "g1"
        assert not c.is_net(c.fresh_name("g1"))


class TestValidate:
    def test_undefined_gate_input(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", "AND", ["a", "ghost"])
        with pytest.raises(NetlistError):
            validate_circuit(c)

    def test_undefined_output(self):
        c = Circuit()
        c.add_input("a")
        c.add_output("ghost")
        with pytest.raises(NetlistError):
            validate_circuit(c)

    def test_nothing_observable(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", "NOT", ["a"])
        with pytest.raises(NetlistError):
            validate_circuit(c)
        validate_circuit(c, require_outputs=False)
