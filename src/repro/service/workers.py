"""The worker pool: claim -> start -> execute -> complete.

Two isolation modes, selected by ``WorkerPool(isolation=...)``:

``thread`` (default)
    The job executes inline in the claiming thread.  One shared warm
    analysis cache (:mod:`repro.cache` plus the suite's observability
    memo) is the whole point of a resident service -- a resubmitted
    circuit reuses the expensive simulation results instead of
    recomputing them.  The numeric kernels release work to numpy, so
    thread workers overlap usefully despite the GIL; crash isolation
    comes from the durable queue, not from process boundaries.

``process``
    The claiming thread hands the job to a fresh subprocess
    (:mod:`repro.service.sandbox`) under memory/CPU rlimits and a
    wall-clock watchdog, then routes the classified outcome.  A
    pathological job (hang, OOM, native crash) kills only its own
    worker process; the claiming thread survives, records the crash on
    the job (:meth:`~repro.service.queue.JobQueue.record_crash` -- the
    poison-job budget), and moves on.  The child shares the *disk*
    cache tier, so warm-cache reuse survives isolation.

Failure routing (the heart of the never-lose-a-job claim):

* The *job* fails deterministically (every ladder rung gave up -- the
  row status is ``failed:<stage>``): terminal ``failed``, with the
  degraded record attached.  Retrying cannot help.
* The *infrastructure* fails (an injected ``service.persist`` fault, a
  disk error, any unexpected exception): budgeted ``requeue``.  If even
  the requeue persist fails, the job simply stays leased -- the monitor
  loop's lease expiry requeues it later.  There is no code path that
  discards a claimed job.
* A :class:`~repro.errors.JobStateError` means this worker lost a race
  (graceful drain released the job, or an expired lease requeued it and
  someone else finished it): drop the local result on the floor -- the
  queue's transition table already guaranteed only one outcome won.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from ..circuits.suites import DEFAULT_SCALE, table1_circuit
from ..errors import JobStateError, TelemetryError
from ..netlist.bench_format import loads_bench
from ..netlist.circuit import Circuit
from ..runtime.suite import SuiteConfig, optimize_resilient
from ..telemetry import REGISTRY
from ..telemetry import spans as telemetry
from .jobs import JobRecord, job_result_digest
from .queue import JobQueue


@dataclass(frozen=True)
class ExecutionDefaults:
    """Service-wide experiment/resilience defaults a job spec may
    override (the spec wins field-by-field)."""

    scale: float = DEFAULT_SCALE
    seed: int = 0
    n_frames: int = 15
    n_patterns: int = 256
    epsilon: float = 0.10
    algorithms: tuple[str, ...] = ("minobs", "minobswin")
    deadline: float | None = None
    max_retries: int = 1


def build_circuit(spec: dict[str, Any],
                  defaults: ExecutionDefaults) -> tuple[str, Circuit,
                                                        float | None]:
    """Materialize the job's circuit; returns (name, circuit, scale)."""
    if "circuit" in spec:
        name = str(spec["circuit"])
        scale = float(spec.get("scale", defaults.scale))
        circuit = table1_circuit(name, scale=scale,
                                 seed=int(spec.get("seed", defaults.seed)))
        return name, circuit, scale
    name = str(spec.get("name", "inline"))
    return name, loads_bench(str(spec["netlist"]), name), None


def execute_job(spec: dict[str, Any],
                defaults: ExecutionDefaults) -> dict[str, Any]:
    """Run one job spec through the resilient pipeline.

    Returns the terminal result payload: the circuit record dict plus
    its :func:`~repro.service.jobs.job_result_digest` -- byte-equal, by
    the manifest masking contract, to what a clean serial ``table1`` run
    of the same experiment knobs would record for this circuit.
    """
    name, circuit, scale = build_circuit(spec, defaults)
    config = SuiteConfig(
        circuits=(name,), scale=scale,
        seed=int(spec.get("seed", defaults.seed)),
        n_frames=int(spec.get("frames", defaults.n_frames)),
        n_patterns=int(spec.get("patterns", defaults.n_patterns)),
        epsilon=float(spec.get("epsilon", defaults.epsilon)),
        algorithms=tuple(spec.get("algorithms", defaults.algorithms)),
        maximal_start=bool(spec.get("maximal_start", False)),
        restart=bool(spec.get("restart", True)),
        deadline=defaults.deadline, max_retries=defaults.max_retries)
    run = optimize_resilient(circuit, config)
    record = run.to_record().to_dict()
    return {"name": name, "status": run.status, "record": record,
            "digest": job_result_digest(name, record)}


#: Crash-outcome kind -> worker-death counter metric.
_CRASH_METRICS = {"crash": "service.worker.crashes",
                  "oom": "service.worker.ooms",
                  "timeout": "service.worker.timeouts"}


@contextmanager
def _job_span(record: JobRecord, name: str,
              **attrs: Any) -> Iterator[Any]:
    """A job-lifecycle span parented to the job's durable root span.

    Explicit parent/trace (from the record's persisted trace context)
    rather than the thread stack, so the spans of every attempt -- any
    worker thread, any service restart -- land as siblings under the
    same ``http.request`` root.  Yields ``None`` (and costs one ``None``
    test) when tracing is off.
    """
    tracer = telemetry.active()
    if tracer is None:
        yield None
        return
    attrs.setdefault("job", record.id)
    attrs.setdefault("attempt", record.attempts)
    span = tracer.begin(name, attrs, parent=record.span_id,
                        trace=record.trace_id)
    try:
        yield span
    except BaseException as exc:
        span.attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        tracer.end(span)


class WorkerPool:
    """N claim-execute threads plus one lease-heartbeat thread.

    Worker and heartbeat threads are individually *restartable*
    (:meth:`restart_worker`, :meth:`restart_heartbeat`): a thread that
    dies unexpectedly is reported by :meth:`dead_workers` /
    :meth:`heartbeat_alive` and revived by the supervisor
    (:mod:`repro.service.supervisor`) -- the pool itself never
    silently shrinks.
    """

    def __init__(self, queue: JobQueue, defaults: ExecutionDefaults, *,
                 pool_size: int = 2, poll_interval: float = 0.2,
                 heartbeat_interval: float | None = None,
                 isolation: str = "thread",
                 limits: "SandboxLimits | None" = None,
                 cache_dir: str | None = None):
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"isolation must be 'thread' or 'process', "
                f"got {isolation!r}")
        self.queue = queue
        self.defaults = defaults
        self.pool_size = max(1, int(pool_size))
        self.poll_interval = float(poll_interval)
        self.isolation = isolation
        self.limits = limits
        self.cache_dir = cache_dir
        # A third of the lease keeps two missed beats from expiring it.
        self.heartbeat_interval = heartbeat_interval if \
            heartbeat_interval is not None else queue.lease_seconds / 3.0
        self._stop = threading.Event()
        self._threads: dict[str, threading.Thread] = {}
        self._heartbeat: threading.Thread | None = None
        self._current: dict[str, str] = {}  # worker name -> job id
        self._current_lock = threading.Lock()
        self._last_beat: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for index in range(self.pool_size):
            self._spawn_worker(f"worker-{index}")
        self.restart_heartbeat()

    def _spawn_worker(self, name: str) -> None:
        thread = threading.Thread(target=self._run, args=(name,),
                                  name=name, daemon=True)
        self._threads[name] = thread
        thread.start()

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop claiming, wait for in-flight jobs, release stragglers.

        Returns True when every worker exited within the timeout.  A
        worker still mid-job past the deadline has its lease released
        (back to ``queued``, no budget consumed) so the queue holds zero
        ``leased``/``running`` records at exit; if that zombie thread
        eventually finishes, its completion loses the transition race
        and is dropped.
        """
        self._stop.set()
        deadline = time.monotonic() + max(0.0, timeout)
        clean = True
        for thread in self._threads.values():
            thread.join(max(0.0, deadline - time.monotonic()))
            clean = clean and not thread.is_alive()
        if self._heartbeat is not None:
            self._heartbeat.join(max(0.1, deadline - time.monotonic()))
        for job_id in self.in_flight():
            try:
                self.queue.release(job_id)
            except (JobStateError, OSError):
                pass  # already terminal, or persist refused -- monitor's job
        return clean

    def in_flight(self) -> list[str]:
        with self._current_lock:
            return sorted(self._current.values())

    def busy(self) -> int:
        with self._current_lock:
            return len(self._current)

    # ------------------------------------------------------------------
    # Liveness (read by the supervisor and the health endpoints)
    # ------------------------------------------------------------------
    def alive_workers(self) -> int:
        return sum(1 for t in self._threads.values() if t.is_alive())

    def dead_workers(self) -> list[str]:
        """Names of worker threads that died without being drained."""
        if self._stop.is_set():
            return []
        return sorted(name for name, t in self._threads.items()
                      if not t.is_alive())

    def restart_worker(self, name: str) -> bool:
        """Replace a dead worker thread; no-op while draining."""
        if self._stop.is_set():
            return False
        thread = self._threads.get(name)
        if thread is not None and thread.is_alive():
            return False
        with self._current_lock:
            self._current.pop(name, None)  # its job is lease-recovered
        self._spawn_worker(name)
        return True

    def heartbeat_alive(self) -> bool:
        return self._heartbeat is not None and self._heartbeat.is_alive()

    def restart_heartbeat(self) -> None:
        if self._stop.is_set() or self.heartbeat_alive():
            return
        self._heartbeat = threading.Thread(target=self._beat,
                                           name="heartbeat", daemon=True)
        self._heartbeat.start()

    def last_beat_age(self) -> float | None:
        """Seconds since the heartbeat loop last completed a sweep, or
        ``None`` before the first one."""
        if self._last_beat is None:
            return None
        return max(0.0, time.monotonic() - self._last_beat)

    def liveness(self) -> dict[str, Any]:
        """One structured snapshot for ``/healthz`` and ``/metrics``."""
        return {
            "pool_size": self.pool_size,
            "workers_alive": self.alive_workers(),
            "heartbeat_alive": self.heartbeat_alive(),
            "last_beat_age": self.last_beat_age(),
            "busy": self.busy(),
            "isolation": self.isolation,
        }

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def _set_current(self, worker: str, job_id: str | None) -> None:
        with self._current_lock:
            if job_id is None:
                self._current.pop(worker, None)
            else:
                self._current[worker] = job_id

    def _run(self, worker: str) -> None:
        while not self._stop.is_set():
            try:
                record = self.queue.claim(worker)
            except Exception:
                # An injected/real lease fault: nothing was leased
                # (claim persists before returning), so just back off.
                REGISTRY.counter("service.lease.errors").inc()
                self._stop.wait(self.poll_interval)
                continue
            if record is None:
                self._stop.wait(self.poll_interval)
                continue
            self._set_current(worker, record.id)
            try:
                self._emit_queue_wait(record, worker)
                self._execute(record)
            finally:
                self._set_current(worker, None)

    def _emit_queue_wait(self, record: JobRecord, worker: str) -> None:
        """Synthesize the queue.wait span from the claim's bookkeeping.

        The wait already *happened* (between the job last becoming
        queued and this claim), so the span is back-dated by the
        ``queued_for`` the claim stashed in the lease.  After a service
        restart the start time can land before the tracer's epoch
        (negative ``t0``) -- harmless, readers only difference times.
        """
        tracer = telemetry.active()
        if tracer is None or record.trace_id is None:
            return
        wait = float((record.lease or {}).get("queued_for", 0.0))
        tracer.emit_span("queue.wait", tracer.now() - wait,
                         {"job": record.id, "attempt": record.attempts,
                          "worker": worker},
                         parent=record.span_id, trace=record.trace_id)

    def _execute(self, record: JobRecord) -> None:
        job_id, spec = record.id, record.spec
        try:
            with _job_span(record, "job.lease",
                           worker=(record.lease or {}).get("worker")):
                record = self.queue.start(job_id)
            if self.isolation == "process":
                self._execute_sandboxed(record)
            else:
                with _job_span(record, "job.execute", isolation="thread"):
                    result = execute_job(spec, self.defaults)
                with _job_span(record, "job.persist",
                               outcome=result["status"]):
                    self._finish(job_id, result)
        except JobStateError:
            pass  # lost a drain/expiry race; the queue's outcome stands
        except Exception as exc:
            REGISTRY.counter("service.jobs.errors").inc()
            try:
                with _job_span(record, "job.persist", outcome="requeue"):
                    self.queue.requeue(
                        job_id, reason=f"{type(exc).__name__}: {exc}")
            except Exception:
                pass  # still leased; lease expiry will requeue it

    def _finish(self, job_id: str, result: dict[str, Any]) -> None:
        """Route a produced result payload to its terminal state."""
        if result["status"].startswith("failed:"):
            self.queue.fail(job_id, {
                "message": f"pipeline gave up ({result['status']})",
                "name": result["name"], "record": result["record"],
                "digest": result["digest"]})
        else:
            self.queue.complete(job_id, result)

    def _execute_sandboxed(self, record: JobRecord) -> None:
        """Process-isolation path: spawn, classify, route.

        Raises nothing sandbox-specific -- a worker-process death comes
        back as a classified outcome and feeds the job's crash budget;
        only queue transitions can raise (handled by :meth:`_execute`).

        Trace propagation across the process boundary: the child gets a
        shard path, an id prefix, the trace id and the parent-side
        ``job.execute`` span id through ``input.json``; it traces into
        the shard (a sibling of the main trace file, *outside* the
        throwaway sandbox workdir), and this thread folds the shard
        into the live trace with :meth:`~repro.telemetry.Tracer.absorb`
        once the subprocess is gone.  A killed child leaves at most a
        torn shard tail, which absorb skips.
        """
        from .sandbox import run_sandboxed

        job_id, attempt, spec = record.id, record.attempts, record.spec
        tracer = telemetry.active()
        child_telemetry = None
        shard_path = None
        try:
            with _job_span(record, "job.execute",
                           isolation="process") as span:
                if tracer is not None and span is not None:
                    shard_path = (f"{tracer.path}.sandbox-{job_id}"
                                  f"-{attempt}.jsonl")
                    child_telemetry = {
                        "path": shard_path,
                        "prefix": f"sb-{job_id}-{attempt}-",
                        "trace": record.trace_id,
                        "parent": span.id,
                    }
                outcome = run_sandboxed(spec, self.defaults,
                                        job_id=job_id, attempt=attempt,
                                        limits=self.limits,
                                        cache_dir=self.cache_dir,
                                        telemetry=child_telemetry)
        finally:
            if tracer is not None and shard_path is not None:
                try:
                    tracer.absorb(shard_path)
                except TelemetryError:
                    pass  # unreadable shard loses spans, never the job
        if outcome.kind == "result":
            with _job_span(record, "job.persist",
                           outcome=outcome.result["status"]):
                self._finish(job_id, outcome.result)
        elif outcome.kind == "error":
            error = outcome.error or {}
            REGISTRY.counter("service.jobs.errors").inc()
            with _job_span(record, "job.persist", outcome="requeue"):
                self.queue.requeue(
                    job_id, reason=f"{error.get('type', 'Error')}: "
                                   f"{error.get('message', '')}")
        else:  # crash / oom / timeout: the worker process died
            REGISTRY.counter(_CRASH_METRICS.get(
                outcome.kind, "service.worker.crashes")).inc()
            with _job_span(record, "job.persist",
                           outcome=f"crash:{outcome.kind}"):
                self.queue.record_crash(job_id, outcome.evidence)

    def _beat(self) -> None:
        """Extend the leases of in-flight jobs, forever.

        Self-healing by construction: *nothing* a beat can hit is
        allowed to end the loop.  A job that finished between the
        snapshot and the beat raises :class:`JobStateError` -- routine,
        not even counted.  A persist refusal (disk error, injected
        fault) is counted (``service.heartbeat.errors``) and the loop
        keeps beating -- one failed sweep must cost one interval, never
        every running job's lease.
        """
        while not self._stop.wait(self.heartbeat_interval):
            try:
                for job_id in self.in_flight():
                    try:
                        self.queue.heartbeat(job_id)
                    except JobStateError:
                        pass  # job reached a terminal state; routine
                    except Exception:
                        REGISTRY.counter("service.heartbeat.errors").inc()
            except Exception:
                # Belt and braces: even a failure *enumerating* the
                # in-flight set must not kill the heartbeat thread.
                REGISTRY.counter("service.heartbeat.errors").inc()
            self._last_beat = time.monotonic()
