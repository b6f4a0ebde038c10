"""Crash-isolated suite runs: the resilient Table I flow.

:func:`optimize_resilient` is the fault-tolerant twin of
:func:`repro.pipeline.optimize_circuit`: every expensive stage runs
through the executor's retry/degradation ladder
(:mod:`repro.runtime.executor`), so one infeasible circuit, runaway
solve or simulation hiccup yields a usable, clearly-labeled row instead
of aborting the experiment:

* observability simulation -- bounded retry with reseeding;
* Sec. V initialization -- exact (setup+hold) R_min, degrading to the
  zero-retiming / degenerate-R_min configuration;
* each solver -- ``minobswin -> minobs -> identity`` (a deadline expiry
  first recovers the solver's best feasible retiming as a
  ``:partial`` result before degrading further);
* rebuild + SER -- guarded by :mod:`repro.runtime.guards`; quarantined
  (non-equivalent) results degrade like any other failure.

:func:`run_suite` executes a whole benchmark suite circuit-by-circuit
with per-circuit crash isolation, checkpoints every completed circuit to
a :class:`~repro.runtime.manifest.RunManifest`, and resumes from a
partial manifest on restart.  All result-determining quantities are
deterministic given the config (rows resumed from a manifest are
byte-identical to freshly computed ones); the wall-clock ``t_ref`` /
``t_new`` columns are the only nondeterministic fields.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import cache as analysis_cache
from ..cache import cached, obs_digest, timing_digest
from ..core.elw import circuit_elws, incremental_circuit_elws
from ..core.initialization import InitialRetiming, initialize
from ..core.minobswin import RetimingResult
from ..errors import DeadlineExceeded
from ..faultplane import hooks
from ..faultplane.hooks import fault_point
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import achieved_period
from ..netlist.circuit import Circuit
from ..netlist.validate import validate_circuit
from ..pipeline import (AlgorithmOutcome, PipelineResult, build_problem,
                        compute_observability, rebuild_retimed_states,
                        run_solver, table1_row)
from ..reporting import result_to_dict
from ..ser.analysis import analyze_ser
from ..telemetry import REGISTRY, MetricsRegistry, Tracer
from ..telemetry import spans as telemetry
from .executor import Attempt, FailureRecord, run_ladder
from .guards import GuardReport, verify_retimed
from .manifest import CircuitRecord, RunManifest

#: Seed stride between observability reseed attempts (any odd prime-ish
#: constant works; it only needs to decorrelate the pattern streams).
RESEED_STRIDE = 1009

#: Entries kept by the per-process observability memo cache.
OBS_CACHE_SIZE = 32

#: The per-process (hence, in parallel runs, per-worker) memo cache for
#: the observability-simulation stage: ``(circuit fingerprint, frames,
#: patterns, seed) -> (obs, runtime)``.  Observabilities are
#: retiming-invariant and deterministic given those four keys, so any
#: repeat computation -- the clean reference run of a chaos double-run,
#: a golden-file regeneration, back-to-back determinism checks -- is a
#: pure waste of the dominant simulation cost.
_OBS_CACHE: OrderedDict[tuple[str, int, int, int],
                        tuple[dict[str, float], float]] = OrderedDict()

#: Guards the memo cache: the service worker pool runs several circuits
#: concurrently in one process, and an unlocked reorder-while-evict
#: corrupts the OrderedDict.
_OBS_CACHE_LOCK = threading.Lock()


def clear_obs_cache() -> None:
    """Drop every memoized observability result (test isolation hook)."""
    with _OBS_CACHE_LOCK:
        _OBS_CACHE.clear()


def cached_observability(circuit: Circuit, n_frames: int, n_patterns: int,
                         seed: int) -> tuple[dict[str, float], float]:
    """Memoizing front of :func:`repro.pipeline.compute_observability`.

    Bypassed entirely (no read, no write) while a fault injector is
    installed: chaos runs must visit the ``sim.observability`` injection
    site on every attempt, and results computed under an armed plan must
    never leak into clean runs.
    """
    if hooks.active() is not None:
        return compute_observability(circuit, n_frames=n_frames,
                                     n_patterns=n_patterns, seed=seed)
    key = (circuit.fingerprint(), n_frames, n_patterns, seed)
    with _OBS_CACHE_LOCK:
        hit = _OBS_CACHE.get(key)
        if hit is not None:
            _OBS_CACHE.move_to_end(key)
            return hit
    value = compute_observability(circuit, n_frames=n_frames,
                                  n_patterns=n_patterns, seed=seed)
    with _OBS_CACHE_LOCK:
        _OBS_CACHE[key] = value
        while len(_OBS_CACHE) > OBS_CACHE_SIZE:
            _OBS_CACHE.popitem(last=False)
    return value


def _encode_init(init: InitialRetiming) -> dict[str, Any]:
    return {"r0": [int(x) for x in init.r0], "phi": init.phi,
            "rmin": init.rmin, "phi_base": init.phi_base,
            "used_fallback": init.used_fallback}


def _decode_init(payload: dict[str, Any]) -> InitialRetiming:
    return InitialRetiming(
        r0=np.array(payload["r0"], dtype=np.int64), phi=payload["phi"],
        rmin=payload["rmin"], phi_base=payload["phi_base"],
        used_fallback=bool(payload["used_fallback"]))


def cached_initialize(circuit: Circuit, graph: RetimingGraph, setup: float,
                      hold: float, epsilon: float,
                      maximal_start: bool) -> InitialRetiming:
    """Analysis-cached Sec. V initialization (kind ``"init"``).

    ``graph`` is a pure function of ``circuit``, so the key only needs
    the circuit's timing digest plus the initialization knobs.
    """
    params = {"setup": float(setup), "hold": float(hold),
              "epsilon": float(epsilon),
              "maximal_start": bool(maximal_start)}
    return cached("init", timing_digest(circuit), params,
                  compute=lambda: initialize(graph, setup, hold, epsilon,
                                             maximal_start=maximal_start),
                  encode=_encode_init, decode=_decode_init)


def _encode_solve(result: RetimingResult) -> dict[str, Any]:
    # The trace is dropped: the suite never solves with keep_trace=True,
    # and the stored runtime is the (cold) solve's wall clock -- a
    # volatile field everywhere it surfaces, masked by mask_volatile.
    return {"r": [int(x) for x in result.r],
            "objective": int(result.objective),
            "commits": int(result.commits),
            "iterations": int(result.iterations),
            "passes": int(result.passes),
            "constraints_added": int(result.constraints_added),
            "blocked": int(result.blocked), "runtime": result.runtime}


def _decode_solve(payload: dict[str, Any]) -> RetimingResult:
    return RetimingResult(
        r=np.array(payload["r"], dtype=np.int64),
        objective=payload["objective"], commits=payload["commits"],
        iterations=payload["iterations"], passes=payload["passes"],
        constraints_added=payload["constraints_added"],
        blocked=payload["blocked"], runtime=payload["runtime"])


def cached_run_solver(circuit: Circuit, problem, r0: np.ndarray,
                      algorithm: str, restart: bool,
                      deadline: float | None,
                      obs: dict[str, float],
                      n_patterns: int) -> RetimingResult:
    """Analysis-cached solver dispatch (kind ``"solve"``).

    Bypassed (straight to :func:`repro.pipeline.run_solver`) whenever

    * a fault injector is installed -- ``solve.result.labels`` faults
      corrupt returned labels, and a poisoned cache would leak wrong
      answers into clean warm runs; or
    * a deadline is set -- partial results depend on wall clock and are
      not content-addressable.

    The problem instance is fully determined by the circuit's timing
    digest plus ``(phi, rmin, setup, hold)`` and the integer
    observability counts, which the obs digest and pattern count pin.
    """
    with telemetry.span("run_solver", algorithm=algorithm):
        if hooks.active() is not None or deadline is not None:
            return run_solver(problem, r0, algorithm, restart=restart,
                              deadline=deadline)
        params = {"algorithm": algorithm, "restart": bool(restart),
                  "phi": float(problem.phi), "rmin": float(problem.rmin),
                  "setup": float(problem.setup),
                  "hold": float(problem.hold),
                  "r0": [int(x) for x in r0], "obs": obs_digest(obs),
                  "n_patterns": int(n_patterns)}
        return cached("solve", timing_digest(circuit), params,
                      compute=lambda: run_solver(problem, r0, algorithm,
                                                 restart=restart),
                      encode=_encode_solve, decode=_decode_solve)


def cached_verify_retimed(original: Circuit, retimed: Circuit,
                          graph: RetimingGraph, r: np.ndarray, phi: float,
                          setup: float, *, exact_states: bool,
                          check_cycles: int, n_patterns: int,
                          seed: int) -> GuardReport:
    """Analysis-cached post-retime guard (kind ``"guard"``).

    Bypassed while a fault injector is installed for the same reason as
    the solver cache: the guard exists to catch corrupted results, so it
    must actually run on every chaos attempt.
    """
    def compute() -> GuardReport:
        return verify_retimed(original, retimed, graph, r, phi, setup,
                              exact_states=exact_states,
                              check_cycles=check_cycles,
                              n_patterns=n_patterns, seed=seed)

    with telemetry.span("verify"):
        if hooks.active() is not None:
            return compute()
        params = {"retimed": timing_digest(retimed),
                  "r": [int(x) for x in r], "phi": float(phi),
                  "setup": float(setup),
                  "exact_states": bool(exact_states),
                  "check_cycles": int(check_cycles),
                  "n_patterns": int(n_patterns), "seed": int(seed)}
        return cached("guard", timing_digest(original), params,
                      compute=compute,
                      encode=lambda report: report.to_dict(),
                      decode=lambda payload: GuardReport(
                          ok=bool(payload["ok"]),
                          checks=dict(payload["checks"]),
                          first_bad_cycle=int(payload["first_bad_cycle"]),
                          flush_cycles=int(payload["flush_cycles"]),
                          notes=list(payload["notes"])))


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of one resilient suite run.

    The experiment knobs mirror :func:`repro.pipeline.optimize_circuit`;
    the resilience knobs (``deadline``, ``max_retries``, ``strict``,
    ``guard``) control failure handling only and therefore do not enter
    the manifest fingerprint.
    """

    circuits: tuple[str, ...]
    scale: float | None = None
    seed: int = 0
    n_frames: int = 15
    n_patterns: int = 256
    epsilon: float = 0.10
    algorithms: tuple[str, ...] = ("minobs", "minobswin")
    maximal_start: bool = False
    restart: bool = True
    #: Per-stage wall-clock budget in seconds (None = unlimited).
    deadline: float | None = None
    #: Extra attempts per ladder rung for retryable failures.
    max_retries: int = 1
    #: Base seconds of the seeded exponential backoff (with jitter)
    #: slept between retries of the same rung; 0 retries immediately.
    #: A resilience knob like ``max_retries``: it changes failure
    #: *pacing* only, never results, so it stays out of the fingerprint.
    retry_backoff: float = 0.0
    #: Propagate the first failure instead of degrading (debug mode).
    strict: bool = False
    #: Run the post-retime verification guard on every solver result.
    guard: bool = True
    guard_cycles: int = 8
    guard_patterns: int = 32
    #: Worker processes for :func:`run_suite` (1 = in-process serial).
    #: An execution knob like ``deadline``: the sharded-parallel path
    #: produces a manifest with the same ``result_checksum`` as a serial
    #: run, so the worker count never enters the fingerprint.
    workers: int = 1
    #: Activate the content-addressed analysis cache (:mod:`repro.cache`)
    #: for the duration of the run.  An execution knob like ``workers``:
    #: warm results are bit-identical to cold ones (that is the cache's
    #: contract, proved by the differential test layer), so neither
    #: ``cache`` nor ``cache_dir`` enters the fingerprint.
    cache: bool = False
    #: On-disk cache tier shared across processes and suite workers;
    #: ``None`` keeps an enabled cache memory-only.  A non-``None`` value
    #: implies ``cache``.
    cache_dir: str | None = None
    #: Write a structured span trace (:mod:`repro.telemetry`) to this
    #: JSONL file for the duration of the run.  An execution knob like
    #: ``workers`` and ``cache``: tracing never changes a result (the
    #: determinism tests prove checksum invariance), so it does not
    #: enter the fingerprint.  Parallel workers trace to
    #: ``<trace_path>.shard-NN.jsonl`` files which the parent merges.
    trace_path: str | None = None

    def fingerprint(self) -> dict[str, Any]:
        """The result-determining configuration, for manifest matching."""
        return {
            "circuits": list(self.circuits),
            "scale": self.scale,
            "seed": self.seed,
            "n_frames": self.n_frames,
            "n_patterns": self.n_patterns,
            "epsilon": self.epsilon,
            "algorithms": list(self.algorithms),
            "maximal_start": self.maximal_start,
            "restart": self.restart,
        }


@dataclass
class AlgorithmRun:
    """One algorithm's (possibly degraded) outcome on one circuit."""

    outcome: AlgorithmOutcome
    label: str  # "minobswin", "minobswin:partial", "minobs", "identity"
    guard: dict[str, Any] | None = None


@dataclass
class CircuitRun:
    """One circuit's contribution to the suite result."""

    name: str
    row: dict[str, Any]
    report: dict[str, Any] | None
    status: str
    elapsed: float
    failures: list[FailureRecord] = field(default_factory=list)
    result: PipelineResult | None = None
    resumed: bool = False

    def to_record(self) -> CircuitRecord:
        return CircuitRecord(name=self.name, row=self.row,
                             report=self.report, status=self.status,
                             elapsed=self.elapsed, failures=self.failures)

    @classmethod
    def from_record(cls, record: CircuitRecord) -> "CircuitRun":
        return cls(name=record.name, row=record.row, report=record.report,
                   status=record.status, elapsed=record.elapsed,
                   failures=record.failures, resumed=True)


@dataclass
class SuiteResult:
    """Everything a resilient suite run produced."""

    runs: list[CircuitRun]
    #: Fault-injection stats collected from worker processes (parallel
    #: runs only; each entry is one worker injector's ``stats()`` dict).
    fault_stats: list[dict[str, Any]] = field(default_factory=list)

    @property
    def rows(self) -> list[dict[str, Any]]:
        return [run.row for run in self.runs]

    @property
    def reports(self) -> list[dict[str, Any]]:
        return [run.report for run in self.runs if run.report is not None]

    @property
    def failures(self) -> list[FailureRecord]:
        return [f for run in self.runs for f in run.failures]

    @property
    def degraded(self) -> list[CircuitRun]:
        return [run for run in self.runs if run.status != "ok"]


def _identity_result(graph: RetimingGraph) -> RetimingResult:
    return RetimingResult(r=graph.zero_retiming(), objective=0, commits=0,
                          iterations=0, passes=1, constraints_added=0,
                          blocked=0, runtime=0.0)


def _degenerate_initialize(graph: RetimingGraph, setup: float,
                           epsilon: float) -> InitialRetiming:
    """Last-rung initialization: identity start, degenerate R_min.

    The paper's own fallback of Sec. V taken to its floor: keep the
    circuit as-is, constrain the solve to the relaxed zero-retiming
    period, and set R_min to the minimal gate delay so P2' cannot bind
    tighter than a single gate.
    """
    r0 = graph.zero_retiming()
    phi_base = achieved_period(graph, r0, setup)
    delays = [d for d in graph.delays[1:] if d > 0]
    rmin = min(delays) if delays else 0.0
    return InitialRetiming(r0=r0, phi=phi_base * (1.0 + epsilon), rmin=rmin,
                           phi_base=phi_base, used_fallback=True)


def _failed_row(name: str, stage: str,
                graph: RetimingGraph | None) -> dict[str, Any]:
    """A clearly-labeled placeholder row for an unrecoverable circuit."""
    nan = float("nan")
    row: dict[str, Any] = {
        "circuit": name,
        "V": graph.n_vertices - 1 if graph is not None else 0,
        "E": graph.n_edges if graph is not None else 0,
        "FF": graph.register_count() if graph is not None else 0,
        "phi": nan, "ser": nan,
        "ref_ff": 0, "ref_time": 0.0, "ref_ser": nan,
        "new_ff": 0, "new_time": 0.0, "new_J": 0, "new_ser": nan,
        "status": f"failed:{stage}",
    }
    return row


def optimize_resilient(circuit: Circuit, config: SuiteConfig) -> CircuitRun:
    """Run the Table I flow on one circuit, degrading instead of dying.

    Never raises in the default mode (``strict=False``) short of
    ``KeyboardInterrupt`` / ``SystemExit``; the returned row is always
    consumable by :func:`repro.ser.report.format_comparison`, with the
    degradations applied spelled out in ``row["status"]`` and every
    captured failure in ``CircuitRun.failures``.
    """
    with telemetry.span("circuit", circuit=circuit.name):
        run = _optimize_resilient(circuit, config)
        telemetry.add_attrs(status=run.status)
        return run


def _optimize_resilient(circuit: Circuit,
                        config: SuiteConfig) -> CircuitRun:
    t0 = time.perf_counter()
    failures: list[FailureRecord] = []
    degradations: list[str] = []
    name = circuit.name

    def ladder(stage, rungs):
        return run_ladder(stage, rungs, circuit=name,
                          max_retries=config.max_retries,
                          deadline=config.deadline, strict=config.strict,
                          failures=failures,
                          backoff=config.retry_backoff,
                          backoff_seed=config.seed)

    # Perf accounting: per-stage wall clocks, analysis-cache counter
    # deltas, incremental-ELW reuse counts and the metrics-registry
    # delta over this circuit.  All of it lands in report["perf"], which
    # mask_volatile masks wholesale -- timings are wall clock and cache
    # counters depend on warmth, so none of it may enter the result
    # checksum.  Set up *before* stage 1 so even a circuit that fails in
    # ``prepare`` reports the timings of whatever it did run.
    cache_obj = analysis_cache.active()
    cache_before = cache_obj.stats.to_dict() if cache_obj is not None \
        else None
    metrics_before = REGISTRY.snapshot()
    stage_times: dict[str, float] = {}
    elw_inc = {"reused": 0, "recomputed": 0, "fallbacks": 0}

    def perf_snapshot() -> dict[str, Any]:
        cache_counters: dict[str, Any] = {"enabled": cache_obj is not None}
        if cache_obj is not None:
            cache_counters.update(cache_obj.stats.delta(cache_before))
        return {"stages": dict(stage_times),
                "elw_incremental": dict(elw_inc),
                "cache": cache_counters,
                "metrics": MetricsRegistry.delta(metrics_before,
                                                 REGISTRY.snapshot())}

    def failure_report(status: str) -> dict[str, Any]:
        # The gave-up twin of the full result_to_dict report: no
        # algorithm outcomes to serialize, but the stage timings and
        # counters of everything that did run are preserved (satellite
        # bugfix: failure paths used to drop perf accounting entirely).
        return {"name": name, "status": status,
                "degradations": list(degradations),
                "failures": [f.to_dict() for f in failures],
                "perf": perf_snapshot()}

    def timed_ladder(stage, rungs):
        t_stage = time.perf_counter()
        with telemetry.span(f"stage:{stage}"):
            try:
                return ladder(stage, rungs)
            finally:
                elapsed = time.perf_counter() - t_stage
                stage_times[stage] = elapsed
                REGISTRY.histogram(
                    f"stage.seconds.{stage}",
                    help="Wall-clock seconds per pipeline stage",
                ).observe(elapsed)

    # ---- stage 1: graph construction (no meaningful degradation) -----
    graph: RetimingGraph | None = None
    t_prepare = time.perf_counter()
    try:
        with telemetry.span("stage:prepare"):
            validate_circuit(circuit)
            graph = RetimingGraph.from_circuit(circuit)
    except Exception as exc:
        stage_times["prepare"] = time.perf_counter() - t_prepare
        REGISTRY.histogram(
            "stage.seconds.prepare",
            help="Wall-clock seconds per pipeline stage",
        ).observe(stage_times["prepare"])
        if config.strict:
            raise
        failures.append(FailureRecord(
            circuit=name, stage="prepare", rung="graph",
            error=type(exc).__name__, message=str(exc),
            elapsed=time.perf_counter() - t0, attempt=0, action="gave-up"))
        return CircuitRun(name=name, row=_failed_row(name, "prepare", None),
                          report=failure_report("failed:prepare"),
                          status="failed:prepare",
                          elapsed=time.perf_counter() - t0,
                          failures=failures)
    stage_times["prepare"] = time.perf_counter() - t_prepare
    REGISTRY.histogram(
        "stage.seconds.prepare",
        help="Wall-clock seconds per pipeline stage",
    ).observe(stage_times["prepare"])

    setup = circuit.library.setup_time
    hold = circuit.library.hold_time

    def run_stages() -> CircuitRun:
        # ---- stage 2: observability (retry-with-reseed, memoized) ----
        def sim_obs(ctx: Attempt):
            return cached_observability(
                circuit, n_frames=config.n_frames,
                n_patterns=config.n_patterns,
                seed=config.seed + RESEED_STRIDE * ctx.attempt)

        obs_stage = timed_ladder("observability",
                                 [("signature-sim", sim_obs)])
        obs, obs_runtime = obs_stage.value
        if obs_stage.attempts > 1:
            degradations.append(f"obs=attempt{obs_stage.attempts}")

        # ---- stage 3: initialization ---------------------------------
        init_stage = timed_ladder("initialize", [
            ("setup-hold", lambda ctx: cached_initialize(
                circuit, graph, setup, hold, config.epsilon,
                config.maximal_start)),
            ("degenerate", lambda ctx: _degenerate_initialize(
                graph, setup, config.epsilon)),
        ])
        init = init_stage.value
        if init_stage.degraded:
            degradations.append("init=degenerate")

        # ---- original-circuit SER (reference for every outcome) ------
        ser_stage = timed_ladder("ser-original", [
            ("analyze", lambda ctx: analyze_ser(circuit, init.phi, setup,
                                                hold, obs=obs))])
        ser_original = ser_stage.value

        problem = build_problem(graph, init, obs, config.n_patterns,
                                setup, hold)
        original_registers = graph.register_count()

        def make_rung(solver: str, algorithm: str):
            def attempt(ctx: Attempt) -> AlgorithmRun:
                if solver == "identity":
                    outcome = AlgorithmOutcome(
                        result=_identity_result(graph), circuit=circuit,
                        ser=ser_original, registers=original_registers)
                    return AlgorithmRun(outcome=outcome, label="identity")
                label = solver
                try:
                    solved = cached_run_solver(
                        circuit, problem, init.r0, solver,
                        restart=config.restart,
                        deadline=ctx.deadline.remaining(),
                        obs=obs, n_patterns=config.n_patterns)
                except DeadlineExceeded as exc:
                    if exc.partial is None:
                        raise
                    ctx.record(exc, "partial-result")
                    solved = exc.partial
                    label = f"{solver}:partial"
                retimed, exact = rebuild_retimed_states(
                    circuit, graph, solved.r,
                    name=f"{name}_{algorithm}")
                guard_dict = None
                if config.guard and solved.r.any():
                    guard = cached_verify_retimed(
                        circuit, retimed, graph, solved.r, init.phi,
                        setup, exact_states=exact,
                        check_cycles=config.guard_cycles,
                        n_patterns=config.guard_patterns,
                        seed=config.seed)
                    guard_dict = guard.to_dict()
                    guard.raise_if_failed(f"{name}/{label}")
                # Incremental ELW reuse: the retimed rebuild shares every
                # gate with the original, so its timing analysis starts
                # from the original's ELWs and recomputes only the cones
                # the register moves disturbed.
                elws, inc = incremental_circuit_elws(
                    retimed, circuit,
                    circuit_elws(circuit, init.phi, setup, hold),
                    init.phi, setup, hold)
                elw_inc["reused"] += inc["reused"]
                elw_inc["recomputed"] += inc["recomputed"]
                elw_inc["fallbacks"] += int(inc["fallback"])
                ser = analyze_ser(retimed, init.phi, setup, hold, obs=obs,
                                  elws=elws)
                outcome = AlgorithmOutcome(result=solved, circuit=retimed,
                                           ser=ser,
                                           registers=retimed.n_dffs)
                return AlgorithmRun(outcome=outcome, label=label,
                                    guard=guard_dict)
            return attempt

        result = PipelineResult(
            name=name, vertices=graph.n_vertices - 1, edges=graph.n_edges,
            registers=original_registers, init=init,
            ser_original=ser_original, obs=obs, obs_runtime=obs_runtime)

        guards: dict[str, Any] = {}
        for algorithm in config.algorithms:
            chain = ["minobswin", "minobs", "identity"] \
                if algorithm == "minobswin" else ["minobs", "identity"]
            rungs = [(solver, make_rung(solver, algorithm))
                     for solver in chain]
            stage = timed_ladder(f"solve:{algorithm}", rungs)
            run: AlgorithmRun = stage.value
            result.outcomes[algorithm] = run.outcome
            if run.guard is not None:
                guards[algorithm] = run.guard
            if run.label != algorithm:
                degradations.append(f"{algorithm}={run.label}")

        status = "ok" if not degradations else ";".join(degradations)
        row = table1_row(result)
        row["status"] = status
        report = result_to_dict(result)
        report["status"] = status
        report["degradations"] = list(degradations)
        report["failures"] = [f.to_dict() for f in failures]
        if guards:
            report["guards"] = guards
        report["perf"] = perf_snapshot()
        return CircuitRun(name=name, row=row, report=report, status=status,
                          elapsed=time.perf_counter() - t0,
                          failures=failures, result=result)

    try:
        return run_stages()
    except Exception as exc:
        if config.strict:
            raise
        stage = getattr(exc, "stage", None) or "pipeline"
        failures.append(FailureRecord(
            circuit=name, stage=str(stage), rung="",
            error=type(exc).__name__, message=str(exc),
            elapsed=time.perf_counter() - t0, attempt=0, action="gave-up"))
        return CircuitRun(name=name, row=_failed_row(name, str(stage), graph),
                          report=failure_report(f"failed:{stage}"),
                          status=f"failed:{stage}",
                          elapsed=time.perf_counter() - t0,
                          failures=failures)


def run_suite(config: SuiteConfig,
              manifest_path: str | None = None,
              progress: Callable[[str], None] | None = None,
              circuit_factory: Callable[[str], Circuit] | None = None,
              workers: int | None = None,
              progress_events: Callable[[str, str], None] | None = None,
              ) -> SuiteResult:
    """Run a benchmark suite with crash isolation and checkpointing.

    Parameters
    ----------
    config:
        The suite configuration (circuit names, experiment knobs,
        resilience knobs).
    manifest_path:
        Checkpoint file.  When it already exists, the run *resumes*:
        the stored configuration fingerprint must match
        (:class:`~repro.errors.ManifestError` otherwise), completed
        circuits are loaded verbatim and skipped, and each newly
        finished circuit is checkpointed with an atomic rewrite.  When
        it does not exist it is created.  ``None`` disables
        checkpointing.
    progress:
        Optional callback receiving one human-readable line per circuit.
    circuit_factory:
        Maps a circuit name to a :class:`Circuit`; defaults to the
        Table I suite generator at ``config.scale`` / ``config.seed``.
        A factory exception is handled like any other circuit failure.
    workers:
        Worker-process count; overrides ``config.workers`` when given.
        Any value above 1 (with at least two circuits to run) delegates
        to the sharded executor of :mod:`repro.runtime.parallel`, which
        produces the same rows and a manifest with the same
        ``result_checksum`` as the serial path.
    progress_events:
        Optional structured progress callback ``(circuit_name, line)``;
        receives the same lines as ``progress`` tagged with the circuit
        they belong to (the parallel executor's ordered-drain feed).
    """
    n_workers = config.workers if workers is None else workers
    if n_workers > 1 and len(config.circuits) > 1:
        from .parallel import run_parallel_suite

        return run_parallel_suite(config, manifest_path=manifest_path,
                                  progress=progress,
                                  progress_events=progress_events,
                                  circuit_factory=circuit_factory,
                                  workers=n_workers)

    with _maybe_tracing(config):
        if config.cache or config.cache_dir is not None:
            # Opt-in analysis cache for the duration of the run.  Each
            # worker of a parallel run takes this branch inside its own
            # process (the shard path re-enters run_suite with
            # workers=1), so a shared cache_dir is the cross-process
            # tier.
            with analysis_cache.activated(
                    analysis_cache.AnalysisCache(config.cache_dir)):
                return _run_suite_serial(config, manifest_path, progress,
                                         circuit_factory, progress_events)
        return _run_suite_serial(config, manifest_path, progress,
                                 circuit_factory, progress_events)


@contextmanager
def _maybe_tracing(config: SuiteConfig):
    """Install a span tracer at ``config.trace_path`` for one run.

    A no-op when tracing is off or a tracer is already installed -- a
    parallel worker traces to its shard file (installed by
    :mod:`repro.runtime.parallel` before it re-enters :func:`run_suite`),
    and the inner call must not displace it.
    """
    if config.trace_path is None or telemetry.active() is not None:
        yield None
        return
    tracer = Tracer(config.trace_path,
                    meta={"kind": "suite", "circuits": list(config.circuits),
                          "seed": config.seed})
    previous = telemetry.install(tracer)
    try:
        yield tracer
    finally:
        telemetry.install(previous)
        tracer.close()


def _run_suite_serial(config: SuiteConfig,
                      manifest_path: str | None,
                      progress: Callable[[str], None] | None,
                      circuit_factory: Callable[[str], Circuit] | None,
                      progress_events: Callable[[str, str], None] | None,
                      ) -> SuiteResult:
    if circuit_factory is None:
        from ..circuits.suites import DEFAULT_SCALE, table1_circuit

        # ``scale=None`` (the dataclass default) means the suite default;
        # the fingerprint keeps the configured value.
        scale = DEFAULT_SCALE if config.scale is None else config.scale

        def circuit_factory(row_name: str) -> Circuit:
            return table1_circuit(row_name, scale=scale, seed=config.seed)

    manifest: RunManifest | None = None
    if manifest_path is not None:
        import os

        if os.path.exists(manifest_path):
            manifest = RunManifest.load(manifest_path)
            manifest.check_config(config.fingerprint())
        else:
            manifest = RunManifest(config=config.fingerprint(),
                                   circuits=list(config.circuits))
            manifest.save(manifest_path)

    def note(circuit: str, message: str) -> None:
        if progress is not None:
            progress(message)
        if progress_events is not None:
            progress_events(circuit, message)

    runs: list[CircuitRun] = []
    for name in config.circuits:
        if manifest is not None and manifest.is_complete(name):
            run = CircuitRun.from_record(manifest.completed[name])
            runs.append(run)
            note(name, f"{name}: resumed from manifest ({run.status})")
            continue
        t0 = time.perf_counter()
        try:
            fault_point("suite.circuit.start", circuit=name)
            circuit = circuit_factory(name)
            run = optimize_resilient(circuit, config)
        except Exception as exc:  # crash isolation around the whole flow
            if config.strict:
                raise
            run = CircuitRun(
                name=name, row=_failed_row(name, "circuit", None),
                report=None, status="failed:circuit",
                elapsed=time.perf_counter() - t0,
                failures=[FailureRecord(
                    circuit=name, stage="circuit", rung="",
                    error=type(exc).__name__, message=str(exc),
                    elapsed=time.perf_counter() - t0, attempt=0,
                    action="gave-up")])
        runs.append(run)
        if manifest is not None:
            manifest.record(run.to_record())
            try:
                manifest.save(manifest_path)
            except OSError as exc:
                # Checkpointing is advisory: a full disk must not kill
                # the run.  The manifest keeps every record in memory,
                # so the next successful save repairs the file.
                if config.strict:
                    raise
                note(name, f"warning: checkpoint save failed ({exc}); "
                     f"continuing without checkpoint")
            else:
                fault_point("suite.checkpoint", circuit=name)
        note(name, f"{name}: {run.status} ({run.elapsed:.2f}s)")
    return SuiteResult(runs=runs)
