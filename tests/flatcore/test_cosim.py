"""Co-simulation on the arena vs its references.

* :func:`repro.retime.verify.check_sequential_equivalence` runs the
  flat kernel (:func:`repro.flatcore.kernels.cosim_flat`) in
  production and two ``SequentialSimulator`` objects on the object
  core; both must give the same ``(equal, first_bad_cycle)`` on every
  small-tier circuit against its retimed rebuilds, against a copy with
  one gate's op swapped and against a copy declaring its inputs in
  another order.
* The guard reads every escalating flush window from one lazily
  extended co-simulation; a test-local copy of its former loop, which
  restarted from reset once per window, must give the same verdict,
  first bad cycle, flush window and notes.
"""

import pytest

from repro.corpus import build_circuit, tier_specs
from repro.errors import SimulationError
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist.circuit import Gate
from repro.pipeline import optimize_circuit, rebuild_retimed_states
from repro.retime.apply import apply_retiming
from repro.retime.verify import check_sequential_equivalence
from repro.runtime.guards import (FLUSH_CAP, default_flush_cycles,
                                  verify_retimed)
from repro.telemetry import Tracer, spans
from repro.telemetry.traceview import load_trace

SMALL_NAMES = [spec.name for spec in tier_specs("small")]

#: Off the 64-bit word boundary on purpose.
PATTERNS = 100

#: Each op's complement: the swap flips the gate's output on every
#: pattern, so it shows at the outputs wherever the gate is observable.
_SWAP = {"AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR",
         "XOR": "XNOR", "XNOR": "XOR", "BUF": "NOT", "NOT": "BUF"}

_CASES = {}


def swapped_op(circuit):
    """A copy of ``circuit`` with one gate's op swapped for its
    complement: the first gate that drives a primary output, directly
    or through registers only."""
    broken = circuit.copy(name=f"{circuit.name}_swapped")
    for net in broken.outputs:
        while net in broken.dffs:
            net = broken.dffs[net].d
        gate = broken.gates.get(net)
        if gate is not None and gate.op in _SWAP:
            broken.gates[net] = Gate(net, _SWAP[gate.op], gate.inputs)
            return broken
    raise AssertionError(f"{circuit.name}: no output gate to swap")


def reordered_inputs(circuit):
    """The same circuit with its primary inputs declared in reverse."""
    other = circuit.copy(name=f"{circuit.name}_reordered")
    other.inputs.reverse()
    return other


def case(name):
    """(circuit, graph, r, phi, (rebuild, states exact?), reset-to-0
    rebuild)."""
    if name not in _CASES:
        spec = next(s for s in tier_specs("small") if s.name == name)
        circuit = build_circuit(spec)
        result = optimize_circuit(circuit, algorithms=("minobs",),
                                  n_frames=2, n_patterns=32, seed=0)
        graph = RetimingGraph.from_circuit(circuit)
        r = result.outcomes["minobs"].result.r
        exact = rebuild_retimed_states(circuit, graph, r)
        reset = apply_retiming(circuit, graph, r, chain_inits=None)
        _CASES[name] = (circuit, graph, r, result.phi, exact, reset)
    return _CASES[name]


@pytest.mark.parametrize("name", SMALL_NAMES)
@pytest.mark.parametrize("flush", [0, 6])
def test_both_cores_agree(name, flush, object_core):
    circuit, _, _, _, (rebuilt, exact), reset = case(name)
    pairs = [(circuit, rebuilt), (circuit, reset),
             (circuit, swapped_op(circuit)), (reset, circuit),
             (circuit, reordered_inputs(circuit))]
    kwargs = dict(cycles=16, n_patterns=PATTERNS, seed=3, flush=flush)
    flat = [check_sequential_equivalence(a, b, **kwargs) for a, b in pairs]
    with object_core():
        ref = [check_sequential_equivalence(a, b, **kwargs)
               for a, b in pairs]
    assert flat == ref
    if exact:  # forwarded initial states agree from reset
        assert flat[0] == (True, -1)
    assert flat[2][0] is False  # the swapped op diverges
    assert flat[4] == (True, -1)  # inputs are matched by name


def restart_loop(original, retimed, graph, r, *, exact_states,
                 check_cycles, n_patterns, seed):
    """The guard's former sequential check: every flush window ran a
    fresh co-simulation from reset.  Returns ``(ok, first_bad_cycle,
    flush_cycles, notes)`` as the guard reported them."""
    flush_cycles = 0 if exact_states else default_flush_cycles(graph, r)
    schedule = [int(flush_cycles)]
    if not exact_states:
        bound = schedule[0]
        while bound < FLUSH_CAP:
            bound = min(FLUSH_CAP, max(2 * bound, 4))
            schedule.append(bound)
    for flush_cycles in schedule:
        try:
            ok, bad = check_sequential_equivalence(
                original, retimed, cycles=check_cycles,
                n_patterns=n_patterns, seed=seed, flush=int(flush_cycles))
        except SimulationError:
            ok, bad = False, 0
        if ok:
            break
    notes = []
    if ok and flush_cycles != schedule[0]:
        notes.append(f"sequential agreement needed a {flush_cycles}-cycle "
                     f"flush (heuristic bound was {schedule[0]})")
    if not ok:
        window = "from reset" if flush_cycles == 0 else \
            f"after a {flush_cycles}-cycle flush"
        notes.append(f"outputs diverge at cycle {bad} ({window})")
    return ok, bad, flush_cycles, notes


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_one_run_matches_restart_per_window(name):
    circuit, graph, r, phi, rebuild, reset = case(name)
    setup = circuit.library.setup_time
    for retimed, exact_states in ((reset, False), rebuild,
                                  (swapped_op(reset), False)):
        report = verify_retimed(circuit, retimed, graph, r, phi, setup,
                                exact_states=exact_states,
                                n_patterns=32, seed=0)
        ok, bad, flush, notes = restart_loop(
            circuit, retimed, graph, r, exact_states=exact_states,
            check_cycles=8, n_patterns=32, seed=0)
        assert report.checks["sequential"] is ok
        assert report.first_bad_cycle == bad
        assert report.flush_cycles == flush
        assert report.notes == notes


def test_guard_span_counts_cycles_and_windows(tmp_path):
    """fsmdp_a's reset-to-0 transient outlasts its heuristic bound, so
    its guard escalates (and the comparison above covers escalation)."""
    circuit, graph, r, phi, _, reset = case("fsmdp_a")
    path = tmp_path / "guard.jsonl"
    tracer = Tracer(path)
    try:
        with spans.installed(tracer), spans.span("verify"):
            report = verify_retimed(circuit, reset, graph, r, phi,
                                    circuit.library.setup_time,
                                    exact_states=False, check_cycles=8)
    finally:
        tracer.close()
    (verify,) = [rec for rec in load_trace(path).spans
                 if rec["name"] == "verify"]
    attrs = verify["attrs"]
    schedule = [default_flush_cycles(graph, r)]
    while schedule[-1] < FLUSH_CAP:
        schedule.append(min(FLUSH_CAP, max(2 * schedule[-1], 4)))
    assert attrs["flush_windows"] == schedule.index(report.flush_cycles) + 1
    # one run, as long as the last window: not one run per window
    assert attrs["cosim_cycles"] == report.flush_cycles + 8
    assert attrs["flush_windows"] > 1
