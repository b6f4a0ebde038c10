"""Engine dispatch: ``flat_for`` memoizes the arena and never degrades."""

import warnings

import pytest

from repro.errors import FlatCoreError
from repro.flatcore import arena, flat_for
from repro.netlist import Circuit
from repro.sim.odc import observability


@pytest.fixture
def tiny():
    c = Circuit("tiny")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g", "AND", ["a", "b"])
    c.add_output("g")
    return c


class TestModeSelection:
    """The flat core is the engine; the object core is reachable only
    through the oracle seam the differential tests use."""

    def test_object_mode_never_lowers(self, tiny, object_core):
        with object_core():
            observability(tiny, n_frames=1, n_patterns=8)
        assert tiny._flat_cache is None
        observability(tiny, n_frames=1, n_patterns=8)
        assert tiny._flat_cache is not None

    def test_flat_and_auto_lower_and_memoize(self, tiny, monkeypatch):
        lowerings = []
        real_lower = arena.lower

        def counting(circuit):
            lowerings.append(circuit.name)
            return real_lower(circuit)

        monkeypatch.setattr(arena, "lower", counting)
        flat = flat_for(tiny)
        assert flat is not None
        assert flat_for(tiny) is flat  # memoized on the circuit
        observability(tiny, n_frames=1, n_patterns=8)
        assert tiny._flat_cache is flat  # the engine reuses the memo
        assert lowerings == ["tiny"]

    def test_mutation_invalidates_the_memo(self, tiny):
        first = flat_for(tiny)
        assert flat_for(tiny) is first  # memoized on the circuit
        tiny.add_gate("h", "NOT", ["g"])
        second = flat_for(tiny)
        assert second is not first
        assert second.n_gates == first.n_gates + 1


class TestFallbackPolicy:
    """There is no fallback: a lowering failure surfaces as is."""

    def test_flat_mode_raises_instead_of_falling_back(self, tiny,
                                                      monkeypatch):
        def broken(circuit):
            raise FlatCoreError("synthetic lowering failure")

        monkeypatch.setattr(arena, "lower", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlatCoreError, match="synthetic"):
                flat_for(tiny)
            with pytest.raises(FlatCoreError, match="synthetic"):
                observability(tiny, n_frames=1, n_patterns=8)
        assert tiny._flat_cache is None
