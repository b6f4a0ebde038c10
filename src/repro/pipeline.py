"""End-to-end optimization pipeline: the Table I flow for one circuit.

Replicates the paper's experimental procedure (Sec. VI):

1. build the retiming graph of the circuit;
2. run the n-time-frame signature simulation once to get per-net
   observabilities (retiming-invariant, so one run serves every retiming);
3. choose Phi and R_min per Sec. V (setup+hold min-period retiming
   relaxed by epsilon; fallback to plain min-period with degenerate
   R_min);
4. run Efficient MinObs (baseline of [17]) and/or MinObsWin (Algorithm 1)
   from the initial retiming;
5. rebuild each retimed netlist (with forwarded initial states where the
   moves allow) and evaluate eq. (4) with real ELWs;
6. report the Table I columns: register-count change, solver runtime,
   iteration count #J, and SER change relative to the original circuit.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .core.constraints import Problem, gains
from .core.initialization import InitialRetiming, initialize
from .core.minobs import minobs_retiming
from .core.minobswin import RetimingResult, minobswin_retiming
from .errors import RetimingError
from .graph.retiming_graph import RetimingGraph
from .netlist.circuit import Circuit
from .netlist.validate import validate_circuit
from .retime.apply import apply_retiming
from .retime.verify import forward_initial_states
from .ser.analysis import SerAnalysis, analyze_ser
from .sim.odc import observability

#: The retiming solvers :func:`run_solver` dispatches, by name.
ALGORITHMS = ("minobs", "minobswin")


@dataclass
class AlgorithmOutcome:
    """Result of one algorithm on one circuit.

    Attributes
    ----------
    result:
        Raw solver result (retiming labels, #J, runtime...).
    circuit:
        The rebuilt retimed netlist.
    ser:
        Full SER analysis of the retimed netlist (eq. 4).
    registers:
        Register count of the retimed netlist (shared-chain model).
    """

    result: RetimingResult
    circuit: Circuit
    ser: SerAnalysis
    registers: int


@dataclass
class PipelineResult:
    """Everything the Table I columns need for one circuit."""

    name: str
    vertices: int
    edges: int
    registers: int
    init: InitialRetiming
    ser_original: SerAnalysis
    obs: dict[str, float]
    outcomes: dict[str, AlgorithmOutcome] = field(default_factory=dict)
    obs_runtime: float = 0.0

    @property
    def phi(self) -> float:
        """The clock-period constraint used throughout."""
        return self.init.phi


def compute_observability(circuit: Circuit, n_frames: int = 15,
                          n_patterns: int = 256, seed: int = 0,
                          ) -> tuple[dict[str, float], float]:
    """Stage 2 of the flow: per-net observabilities plus wall-clock time.

    Retiming-invariant, so one run serves the original circuit and every
    retimed version.
    """
    t0 = time.perf_counter()
    obs = observability(circuit, n_frames=n_frames, n_patterns=n_patterns,
                        seed=seed).obs
    return obs, time.perf_counter() - t0


def build_problem(graph: RetimingGraph, init: InitialRetiming,
                  obs: Mapping[str, float], n_patterns: int,
                  setup: float, hold: float) -> Problem:
    """Stage 4 prelude: assemble the Problem 1 instance from (Phi, R_min)
    and the integer observability counts."""
    counts = {net: int(round(value * n_patterns))
              for net, value in obs.items()}
    b = gains(graph, counts)
    return Problem(graph=graph, phi=init.phi, setup=setup, hold=hold,
                   rmin=init.rmin, b=b)


def run_solver(problem: Problem, r0: np.ndarray, algorithm: str,
               restart: bool = True, deadline: float | None = None,
               should_stop: Callable[[], bool] | None = None,
               ) -> RetimingResult:
    """Stage 4: dispatch one solver by name.

    ``deadline`` / ``should_stop`` are the cooperative-cancellation hooks
    of :func:`repro.core.minobswin.minobswin_retiming`.
    """
    if algorithm == "minobs":
        return minobs_retiming(problem, r0, restart=restart,
                               deadline=deadline, should_stop=should_stop)
    if algorithm == "minobswin":
        return minobswin_retiming(problem, r0, restart=restart,
                                  deadline=deadline,
                                  should_stop=should_stop)
    raise RetimingError(f"unknown algorithm {algorithm!r}")


def optimize_circuit(circuit: Circuit,
                     algorithms: tuple[str, ...] = ("minobs", "minobswin"),
                     n_frames: int = 15, n_patterns: int = 256,
                     seed: int = 0, epsilon: float = 0.10,
                     maximal_start: bool = False,
                     restart: bool = True,
                     deadline: float | None = None,
                     should_stop: Callable[[], bool] | None = None,
                     ) -> PipelineResult:
    """Run the full Sec. VI experimental flow on one circuit.

    Parameters
    ----------
    algorithms:
        Any subset of ``("minobs", "minobswin")``.
    n_frames, n_patterns, seed:
        Observability simulation configuration (paper: 15 frames).
    epsilon:
        Period relaxation of Sec. V (paper: 10%).
    maximal_start, restart:
        Solver options (see :mod:`repro.core.initialization` and
        :mod:`repro.core.minobswin`).
    deadline, should_stop:
        Per-solver-call cancellation hooks; an expired deadline raises
        :class:`~repro.errors.DeadlineExceeded` carrying the best
        feasible retiming found so far.  For degradation instead of an
        exception use :func:`repro.runtime.suite.optimize_resilient`.
    """
    validate_circuit(circuit)
    setup = circuit.library.setup_time
    hold = circuit.library.hold_time
    graph = RetimingGraph.from_circuit(circuit)

    obs, obs_runtime = compute_observability(
        circuit, n_frames=n_frames, n_patterns=n_patterns, seed=seed)

    init = initialize(graph, setup, hold, epsilon,
                      maximal_start=maximal_start)
    ser_original = analyze_ser(circuit, init.phi, setup, hold, obs=obs)
    problem = build_problem(graph, init, obs, n_patterns, setup, hold)

    result = PipelineResult(
        name=circuit.name, vertices=graph.n_vertices - 1,
        edges=graph.n_edges, registers=graph.register_count(),
        init=init, ser_original=ser_original, obs=obs,
        obs_runtime=obs_runtime)

    for algorithm in algorithms:
        solved = run_solver(problem, init.r0, algorithm, restart=restart,
                            deadline=deadline, should_stop=should_stop)
        retimed = rebuild_retimed(circuit, graph, solved.r,
                                  name=f"{circuit.name}_{algorithm}")
        ser = analyze_ser(retimed, init.phi, setup, hold, obs=obs)
        result.outcomes[algorithm] = AlgorithmOutcome(
            result=solved, circuit=retimed, ser=ser,
            registers=retimed.n_dffs)
    return result


def rebuild_retimed_states(circuit: Circuit, graph: RetimingGraph,
                           r: np.ndarray, name: str | None = None,
                           ) -> tuple[Circuit, bool]:
    """Apply a retiming; report whether initial states are exact.

    Returns ``(retimed, exact_states)``: ``exact_states`` is True when
    :func:`repro.retime.verify.forward_initial_states` succeeded (the
    rebuilt circuit is cycle-accurate equivalent from reset), False when
    it raised :class:`~repro.errors.RetimingError` and every relocated
    register reset to 0 (equivalent only after a flush period).
    """
    try:
        chain_inits = forward_initial_states(circuit, graph, r)
        exact = True
    except RetimingError:
        chain_inits = None
        exact = False
    retimed = apply_retiming(circuit, graph, r, name=name,
                             chain_inits=chain_inits)
    return retimed, exact


def rebuild_retimed(circuit: Circuit, graph: RetimingGraph, r: np.ndarray,
                    name: str | None = None) -> Circuit:
    """Apply a retiming, forwarding initial states when possible.

    Both solvers only move registers forward, so exact initial states are
    available whenever the Sec. V initial retiming itself was forward;
    otherwise registers reset to 0 (functionality after a flush period is
    unaffected -- retiming preserves steady-state behaviour).
    """
    return rebuild_retimed_states(circuit, graph, r, name)[0]


def table1_row(result: PipelineResult) -> dict[str, object]:
    """Flatten a pipeline result into the Table I report row format."""
    row: dict[str, object] = {
        "circuit": result.name,
        "V": result.vertices,
        "E": result.edges,
        "FF": result.registers,
        "phi": result.phi,
        "ser": result.ser_original.total,
    }
    for key, alias in (("minobs", "ref"), ("minobswin", "new")):
        outcome = result.outcomes.get(key)
        if outcome is None:
            continue
        row[f"{alias}_ff"] = outcome.registers
        row[f"{alias}_time"] = outcome.result.runtime
        row[f"{alias}_ser"] = outcome.ser.total
        if alias == "new":
            row["new_J"] = outcome.result.commits
    return row
