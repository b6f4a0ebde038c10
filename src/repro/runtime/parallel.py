"""Per-circuit parallel suite execution with a deterministic merge.

:func:`run_parallel_suite` is the ``workers > 1`` back end of
:func:`repro.runtime.suite.run_suite`.  It submits one
``ProcessPoolExecutor`` task per pending circuit, in canonical order, so
each circuit goes to the first free worker.  Every task runs
:func:`~repro.runtime.suite.run_circuit` -- the serial loop's own
per-circuit step, with the retry ladder, per-circuit deadlines and
crash isolation -- and returns the circuit's record as plain data.

Determinism contract
--------------------
Every result-determining quantity of a suite run is a pure function of
the :class:`~repro.runtime.suite.SuiteConfig`, computed independently
per circuit; the pool only changes *where* each circuit is computed.
The parent therefore reproduces the exact serial rows, records and
failure lists, and its manifest's ``result_checksum`` (the time-masked
digest, see :mod:`repro.runtime.manifest`) is identical to a
``workers=1`` run's.  Progress lines are written by the parent, in
canonical circuit order, each only after the durable save it describes
-- the progress log of a parallel run is the serial one, never an
interleaving.

Crash consistency
-----------------
The parent's run manifest is the only checkpoint.  The parent records
and saves each circuit as its result arrives, exactly as the serial
loop does, so nothing needs salvaging when a worker dies (an injected
``kill`` fault) or the operator interrupts the run: a ``--resume``
rerun loses at most the circuits that were unfinished.  A broken pool
is reported as :class:`~repro.errors.WorkerCrashError`, which the CLI
maps to the kill exit code so the chaos restart harness treats it like
any other crash: restart, resume, converge.

Fault-plane composition
-----------------------
A fault plan installed in the parent (``REPRO_FAULT_PLAN`` or
:func:`repro.faultplane.hooks.install`) keeps covering the parent's
manifest saves and propagates into every task: the task discards the
injector state inherited across ``fork`` and runs the same fault specs
under :func:`~repro.faultplane.plan.derive_job_plan` ``(plan, circuit,
0)`` -- the derivation the service sandbox uses -- so the fault
sequence of each circuit is a pure function of (plan seed, circuit
name), independent of the worker count.  Task injector stats return to
the parent in :attr:`~repro.runtime.suite.SuiteResult.fault_stats` for
the chaos scorecard.

Tracing
-------
When the parent traces, each task traces to a per-circuit sibling of
the parent's trace file (``<trace>.circuit-N.jsonl``, span ids prefixed
``cN-`` by the circuit's canonical index N), and the parent folds those
files into its own trace with :meth:`~repro.telemetry.Tracer.absorb`
in canonical order.

Metrics
-------
Each task counts into its worker's own metrics registry, and its record
carries that circuit's delta in ``report["perf"]["metrics"]``.  The
parent merges the delta of every freshly computed record into its own
registry (resumed records were counted by the run that computed them),
so ``--metrics-out`` dumps the same counters and histogram counts as a
serial run.
"""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from ..errors import ExecutionError, WorkerCrashError
from ..faultplane import hooks
from ..faultplane.plan import FaultInjector, FaultPlan, derive_job_plan
from ..netlist.circuit import Circuit
from ..telemetry import REGISTRY, Tracer
from ..telemetry import spans as telemetry
from .manifest import CircuitRecord
from .suite import (CircuitRun, SuiteConfig, SuiteResult, checkpoint,
                    finished_line, open_manifest, resumed_line,
                    run_circuit, suite_cache)


def _parent_watchdog(parent_pid: int, poll_seconds: float = 1.0) -> None:
    """Exit hard as soon as this process is orphaned.

    A pool worker must never outlive its parent: if the parent dies
    without cleanup (SIGKILL, ``os._exit`` from an injected kill fault),
    idle workers stay blocked on the pool's call-queue pipe forever --
    every worker inherited every other worker's write end across
    ``fork``, so the EOF that would wake them never comes -- and the
    zombies keep the parent's stdio pipes open, hanging any supervisor
    that waits for the run's output.  Polling ``getppid`` is the
    portable way out: reparenting (to init or a subreaper) means the
    parent is gone, and ``os._exit`` skips the very cleanup handlers a
    half-dead pool can deadlock in.
    """
    while os.getppid() == parent_pid:
        time.sleep(poll_seconds)
    os._exit(1)


def _worker_init(parent_pid: int) -> None:
    """Pool-worker initializer: start the orphan watchdog.

    ``parent_pid`` is captured by the *parent* at pool creation, not
    via ``os.getppid()`` here: a worker whose parent is hard-killed
    during worker startup would otherwise record the pid it was
    reparented to (init or a subreaper) and poll it forever, surviving
    as exactly the orphan the watchdog exists to reap.
    """
    import threading

    threading.Thread(target=_parent_watchdog, args=(parent_pid,),
                     daemon=True).start()


def _circuit_task(name: str, config: SuiteConfig,
                  circuit_factory: Callable[[str], Circuit],
                  plan_json: str | None, stats_path: str | None,
                  trace: tuple[str, str] | None,
                  ) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """Run one circuit in a worker process (module-level: must pickle).

    Installs the task's own fault injector and tracer in place of the
    ones the worker inherited across ``fork`` (or from its previous
    task).  Returns the circuit's record and the injector stats as
    plain data -- no live channel to the parent, whose broker would
    outlive a hard-killed parent and hold its stdio pipes open.
    """
    hooks.uninstall()
    injector = None
    if plan_json is not None:
        plan = derive_job_plan(FaultPlan.from_json(plan_json), name, 0)
        injector = FaultInjector(plan, stats_path=stats_path)
        hooks.install(injector)
    telemetry.uninstall()
    tracer = None
    if trace is not None:
        path, prefix = trace
        tracer = Tracer(path, prefix=prefix,
                        meta={"kind": "circuit", "circuit": name})
        telemetry.install(tracer)
    try:
        with suite_cache(config):
            run = run_circuit(name, config, circuit_factory)
    finally:
        if injector is not None:
            injector.flush_stats()
            hooks.uninstall()
        if tracer is not None:
            telemetry.uninstall()
            tracer.close()
    return (run.to_record().to_dict(),
            injector.stats() if injector is not None else None)


def run_parallel_suite(config: SuiteConfig, manifest_path: str | None,
                       note: Callable[[str, str], None],
                       circuit_factory: Callable[[str], Circuit],
                       workers: int) -> SuiteResult:
    """Per-circuit parallel :func:`repro.runtime.suite.run_suite`.

    Same contract as the serial path -- resumable manifest, per-circuit
    crash isolation, progress lines -- plus the guarantees documented
    in the module docstring.  ``circuit_factory`` must be picklable (a
    module-level function); a closure raises
    :class:`~repro.errors.ExecutionError` up front rather than a cryptic
    pool failure mid-run.
    """
    try:
        pickle.dumps(circuit_factory)
    except Exception as exc:
        raise ExecutionError(
            f"workers={workers} requires a picklable circuit_factory "
            f"(a module-level function, not a lambda or closure); "
            f"got {circuit_factory!r}: {exc}") from exc

    manifest = open_manifest(config, manifest_path)
    records: dict[str, CircuitRecord] = \
        dict(manifest.completed) if manifest is not None else {}
    resumed = set(records)
    pending = [name for name in config.circuits if name not in records]

    injector = hooks.active()
    plan_json = injector.plan.to_json() if injector is not None else None
    stats_path = getattr(injector, "stats_path", None)
    # Every circuit's trace file is folded in at the end, resumed ones
    # too: a parent killed before its fold-in left theirs behind.
    tracer = telemetry.active()
    traces: dict[str, tuple[str, str]] = {}
    if tracer is not None:
        traces = {name: (f"{tracer.path}.circuit-{index}.jsonl",
                         f"c{index}-")
                  for index, name in enumerate(config.circuits)}

    #: Progress lines per circuit, written when the canonical frontier
    #: reaches the circuit -- so only after its durable save.
    lines = {name: [resumed_line(records[name])] if name in resumed else []
             for name in config.circuits}
    fault_stats: dict[str, dict[str, Any]] = {}
    frontier = 0

    def drain() -> None:
        nonlocal frontier
        while frontier < len(config.circuits) and \
                config.circuits[frontier] in records:
            name = config.circuits[frontier]
            for line in lines[name]:
                note(name, line)
            frontier += 1

    drain()
    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(pending)) or 1,
        initializer=_worker_init, initargs=(os.getpid(),))
    try:
        futures = {
            executor.submit(_circuit_task, name, config, circuit_factory,
                            plan_json, stats_path, traces.get(name)): name
            for name in pending}
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            crashed = False
            for future in sorted(done,
                                 key=lambda f: pending.index(futures[f])):
                name = futures[future]
                try:
                    data, stats = future.result()
                except BrokenProcessPool:
                    crashed = True
                    continue
                record = CircuitRecord.from_dict(name, data)
                records[name] = record
                # The worker counted into its own registry; fold its
                # delta in so --metrics-out sees what a serial run sees.
                REGISTRY.merge(
                    (record.report or {}).get("perf", {}).get("metrics", {}))
                if stats is not None:
                    fault_stats[name] = stats
                checkpoint(manifest, manifest_path, record, config,
                           lambda circuit, line: lines[circuit].append(line))
                lines[name].append(finished_line(record))
            drain()
            if crashed:
                unfinished = [name for name in pending
                              if name not in records]
                raise WorkerCrashError(
                    f"a suite worker died with circuit(s) "
                    f"{', '.join(unfinished)} unfinished; every finished "
                    f"circuit is checkpointed -- rerun with --resume to "
                    f"continue")
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
        for path, _ in traces.values():
            tracer.absorb(path)

    runs = [CircuitRun.from_record(records[name])
            for name in config.circuits]
    for run in runs:
        run.resumed = run.name in resumed
    return SuiteResult(runs=runs,
                       fault_stats=[fault_stats[name]
                                    for name in pending
                                    if name in fault_stats])
