"""The collector pause of the bulk builders (``repro._util.nogc``).

The first class pins the decorator's contract: the collector's state on
exit is its state on entry, whatever the wrapped call does.  The second
watches every collection through ``gc.callbacks`` while one medium
corpus circuit goes through parse, graph, lowering and SER analysis: no
automatic collection may start while a decorated builder is on the
stack.  That is deterministic -- a paused collector never starts one --
and the control test shows the same hook does see collections inside
an undecorated parse.
"""

import gc
import sys

import pytest

from repro._util import nogc
from repro.core import elw
from repro.corpus import families
from repro.flatcore import arena
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import achieved_period
from repro.netlist import bench_format, blif_format
from repro.ser import analysis
from repro.sim.odc import observability

BUILDERS = (
    bench_format.loads_bench,
    bench_format.dumps_bench,
    blif_format.loads_blif,
    RetimingGraph.__dict__["from_circuit"].__func__,
    arena.lower,
    elw.circuit_elws,
    analysis.analyze_ser,
    families.build_circuit,
)


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on; restore its state after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@nogc
def paused(value):
    """Return ``value`` and whether the collector was on inside."""
    return value, gc.isenabled()


@nogc
def failing():
    raise KeyError("inside")


class TestNogc:
    def test_restores_enabled(self, collector_enabled):
        assert paused(7) == (7, False)
        assert gc.isenabled()

    def test_leaves_disabled(self, collector_enabled):
        gc.disable()
        try:
            assert paused(7) == (7, False)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restores_on_raise(self, collector_enabled):
        with pytest.raises(KeyError, match="inside"):
            failing()
        assert gc.isenabled()

    def test_nested_calls_leave_it_to_the_outermost(self, collector_enabled):
        @nogc
        def outer():
            inner = paused(1)
            return inner, gc.isenabled()

        assert outer() == ((1, False), False)
        assert gc.isenabled()

    def test_wraps(self):
        assert paused.__name__ == "paused"
        assert paused.__wrapped__(3) == (3, gc.isenabled())


class CollectionWatch:
    """A ``gc.callbacks`` hook recording each collection that starts
    while one of ``codes`` is executing on the current stack."""

    def __init__(self, codes):
        self.codes = codes
        self.inside: list[str] = []

    def __call__(self, phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in self.codes:
                self.inside.append(frame.f_code.co_name)
            frame = frame.f_back

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def medium_spec():
    return next(spec for spec in families.tier_specs("medium")
                if spec.name == "rand_m")


class TestBuildersPauseCollector:
    def test_no_collection_inside_a_builder(self, collector_enabled):
        codes = {builder.__wrapped__.__code__ for builder in BUILDERS}
        with CollectionWatch(codes) as watch:
            circuit = families.build_circuit(medium_spec())
            parsed = bench_format.loads_bench(
                bench_format.dumps_bench(circuit), library=circuit.library)
            blif_format.loads_blif(blif_format.dumps_blif(circuit),
                                   library=circuit.library)
            graph = RetimingGraph.from_circuit(parsed)
            setup = parsed.library.setup_time
            phi = achieved_period(graph, graph.zero_retiming(), setup)
            arena.lower(parsed)
            obs = observability(parsed, n_frames=2, n_patterns=64).obs
            elw.circuit_elws(parsed, phi, setup, parsed.library.hold_time)
            result = analysis.analyze_ser(parsed, phi, obs=obs)
        assert result.total > 0
        assert watch.inside == []
        assert gc.isenabled()

    def test_hook_sees_collections_in_an_unpaused_parse(
            self, collector_enabled):
        circuit = families.build_circuit(medium_spec())
        text = bench_format.dumps_bench(circuit)
        unpaused = bench_format.loads_bench.__wrapped__
        with CollectionWatch({unpaused.__code__}) as watch:
            unpaused(text, library=circuit.library)
        assert watch.inside, "no collection started during the parse"
