"""Service wiring: config, startup recovery, signals, graceful drain.

:class:`RetimingService` owns the whole resident process:

* **Startup** -- recover the queue directory (requeue interrupted work,
  quarantine corrupt records), install the process-wide analysis cache
  (the warm tier every worker thread shares), start the worker pool,
  the monitor loop and the HTTP server, then write
  ``<root>/service.json`` (``{"host", "port", "pid"}``) so harnesses
  and scripts can discover an ephemeral port.
* **Monitor loop** -- periodically requeues expired leases (the live
  twin of startup recovery) and, under ``drain_after_idle``, initiates
  a drain once the queue has been idle for ``idle_grace`` seconds (the
  batch mode the kill-loop harness runs the service in).
* **Drain** (SIGTERM/SIGINT, idle, or :meth:`initiate_drain`) -- stop
  admitting (503 + Retry-After), let in-flight jobs finish within
  ``drain_timeout``, release whatever is left (back to ``queued``, no
  budget consumed), stop the HTTP server, remove the endpoint file and
  return 0.  After a clean drain the queue holds zero ``leased`` or
  ``running`` records -- the invariant the service tests assert.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from .. import cache as analysis_cache
from ..circuits.suites import DEFAULT_SCALE
from ..errors import AdmissionError
from ..telemetry import REGISTRY
from ..telemetry import spans as telemetry
from ..telemetry.profiler import StackProfiler
from .accesslog import AccessLog
from .admission import AdmissionController
from .api import build_server
from .jobs import JobRecord
from .queue import JobQueue
from .sandbox import SandboxLimits
from .supervisor import Supervisor
from .workers import ExecutionDefaults, WorkerPool

ENDPOINT_NAME = "service.json"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro-ser serve`` configures."""

    root: str
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (published via the endpoint
    #: file).
    port: int = 0
    #: Worker threads.
    pool: int = 2
    #: Maximum non-terminal jobs before submissions get 429.
    queue_limit: int = 64
    #: Token-bucket refill rate (submissions/second/tenant) and burst.
    rate: float = 10.0
    burst: float = 20.0
    lease_seconds: float = 60.0
    max_requeues: int = 2
    #: Worker-crash budget: a job that kills its (sandboxed) worker this
    #: many times is quarantined as poison.
    max_crashes: int = 3
    #: ``thread`` (default: in-process workers, fastest, shared warm
    #: cache) or ``process`` (one subprocess per job: rlimit budgets,
    #: wall-clock watchdog, crash containment).
    isolation: str = "thread"
    #: Per-job sandbox budgets (process isolation only).  The memory
    #: rlimit must leave headroom for the interpreter + numpy/scipy
    #: baseline (~250 MiB); ``None`` leaves the corresponding resource
    #: unlimited.
    worker_memory_mb: float | None = None
    worker_cpu_seconds: float | None = None
    worker_wall_seconds: float | None = None
    #: Shed new submissions (503 + Retry-After) while the service's
    #: resident set exceeds this many MiB; ``None`` disables shedding.
    memory_budget_mb: float | None = None
    #: Seeds the supervisor's restart-jitter stream.
    seed: int = 0
    #: Default experiment knobs jobs inherit when their spec is silent.
    scale: float = DEFAULT_SCALE
    deadline: float | None = None
    max_retries: int = 1
    retry_backoff: float = 0.0
    #: Shared analysis cache (memory + ``<root>/cache`` disk tier).
    cache: bool = True
    #: Exit 0 once the queue has been idle for ``idle_grace`` seconds
    #: (batch mode; the chaos harness drives the service this way).
    drain_after_idle: bool = False
    idle_grace: float = 2.0
    drain_timeout: float = 30.0
    monitor_interval: float = 0.5
    verbose: bool = False
    #: Request-scoped tracing: append the service's span stream (HTTP
    #: request spans, per-job lifecycle spans, absorbed sandbox shards)
    #: to this JSONL file.  ``None`` = tracing off (the <2 % path).
    trace_path: str | None = None
    #: Structured JSONL access log carrying trace/job ids per request.
    access_log: str | None = None
    #: Collapsed-stack sampling-profiler output, written at drain.
    profile_path: str | None = None
    profile_interval: float = 0.01


class RetimingService:
    """One resident retiming service over one queue directory."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        os.makedirs(config.root, exist_ok=True)
        self.queue = JobQueue(config.root,
                              lease_seconds=config.lease_seconds,
                              max_requeues=config.max_requeues,
                              max_crashes=config.max_crashes)
        self.admission = AdmissionController(
            queue_limit=config.queue_limit, rate=config.rate,
            burst=config.burst,
            memory_budget_mb=config.memory_budget_mb)
        self.defaults = ExecutionDefaults(
            scale=config.scale, deadline=config.deadline,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff)
        limits = SandboxLimits(memory_mb=config.worker_memory_mb,
                               cpu_seconds=config.worker_cpu_seconds,
                               wall_seconds=config.worker_wall_seconds)
        self.pool = WorkerPool(
            self.queue, self.defaults, pool_size=config.pool,
            isolation=config.isolation, limits=limits,
            cache_dir=os.path.join(config.root, "cache")
            if config.cache else None)
        self.supervisor = Supervisor(self.pool, seed=config.seed)
        self.draining = False
        self._drain_requested = threading.Event()
        self._monitor: threading.Thread | None = None
        self.server = None
        self.recovery: dict[str, Any] = {}
        self.access_log = AccessLog(config.access_log) \
            if config.access_log else None

    # ------------------------------------------------------------------
    # Handler-facing API (see api.py)
    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        if self.config.verbose:
            print(f"[service] {message}", file=sys.stderr, flush=True)

    def submit(self, payload: Any, *, trace_id: str | None = None,
               span_id: str | None = None) -> JobRecord:
        tenant_label = "default"
        if isinstance(payload, dict) and isinstance(payload.get("tenant"),
                                                    str):
            tenant_label = payload["tenant"][:64] or "default"
        try:
            spec, tenant = self.admission.admit(payload,
                                                self.queue.depth())
        except AdmissionError:
            REGISTRY.counter(
                f"service.tenant.{tenant_label}.rejected").inc()
            raise
        record = self.queue.submit(spec, tenant=tenant,
                                   trace_id=trace_id, span_id=span_id)
        REGISTRY.counter(f"service.tenant.{tenant}.accepted").inc()
        self.log(f"accepted job {record.id} ({spec.get('circuit') or spec.get('name')})")
        return record

    def access(self, entry: dict[str, Any]) -> None:
        """Write one access-log line (no-op unless configured)."""
        if self.access_log is not None:
            self.access_log.write(entry)

    def readiness(self) -> tuple[bool, str]:
        if self.draining:
            return False, "service is draining"
        if not self.supervisor.healthy():
            breaker = self.supervisor.breaker_state()
            if breaker == "open":
                return False, ("worker pool is churning (supervisor "
                               "circuit breaker open)")
            return False, (f"worker pool is unhealthy "
                           f"({self.pool.alive_workers()}/"
                           f"{self.pool.pool_size} workers alive, "
                           f"heartbeat "
                           f"{'alive' if self.pool.heartbeat_alive() else 'dead'})")
        if self.queue.depth() >= self.config.queue_limit:
            return False, "queue is full"
        return True, ""

    def health_payload(self) -> dict[str, Any]:
        """The ``/healthz`` body: liveness facts, no verdict.

        ``/healthz`` answers "is the process up" (always 200 while the
        HTTP thread runs); the worker/heartbeat/breaker detail lets an
        operator see *why* ``/readyz`` went 503 without shell access.
        """
        return {"ok": True, "draining": self.draining,
                "isolation": self.config.isolation,
                "workers": self.supervisor.state()}

    def metrics_text(self) -> str:
        self._refresh_gauges()
        return REGISTRY.to_prometheus()

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``/metrics.json`` body: the raw registry snapshot.

        Machine-friendly twin of ``/metrics`` (histogram buckets stay
        structured instead of Prometheus text), which is what the
        ``repro-ser ops`` console polls for its quantiles and rates.
        """
        self._refresh_gauges()
        return REGISTRY.snapshot()

    def _refresh_gauges(self) -> None:
        counts = self.queue.counts()
        for state, count in counts.items():
            REGISTRY.gauge(f"service.queue.{state}").set(count)
        REGISTRY.gauge("service.workers.busy").set(self.pool.busy())
        REGISTRY.gauge("service.workers.alive").set(
            self.pool.alive_workers())
        REGISTRY.gauge("service.heartbeat.alive").set(
            1.0 if self.pool.heartbeat_alive() else 0.0)
        beat_age = self.pool.last_beat_age()
        if beat_age is not None:
            REGISTRY.gauge("service.heartbeat.age_seconds").set(beat_age)
        REGISTRY.gauge("service.supervisor.breaker_open").set(
            1.0 if self.supervisor.breaker_state() == "open" else 0.0)
        self.admission.memory_pressure()  # refreshes the resident gauge
        REGISTRY.gauge("service.draining").set(1.0 if self.draining else 0.0)

    def queue_summary(self) -> dict[str, Any]:
        jobs = [{"id": r.id, "state": r.state, "tenant": r.tenant,
                 "attempts": r.attempts, "requeues": r.requeues}
                for r in self.queue.jobs()]
        jobs.sort(key=lambda j: j["id"])
        return {"counts": self.queue.counts(), "jobs": jobs}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initiate_drain(self, why: str) -> None:
        """Idempotent; flips the service into draining mode and wakes
        :meth:`serve` to run the drain sequence."""
        if not self.draining:
            self.draining = True
            self.log(f"drain initiated ({why})")
        self._drain_requested.set()

    def _monitor_loop(self) -> None:
        idle_since: float | None = None
        while not self._drain_requested.wait(self.config.monitor_interval):
            expired = self.queue.requeue_expired()
            for job_id in expired:
                self.log(f"lease expired, requeued {job_id}")
            if self.config.drain_after_idle:
                if self.queue.idle():
                    if idle_since is None:
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since \
                            >= self.config.idle_grace:
                        self.initiate_drain("queue idle")
                        return
                else:
                    idle_since = None

    def _endpoint_path(self) -> str:
        return os.path.join(self.config.root, ENDPOINT_NAME)

    def _write_endpoint(self, host: str, port: int) -> None:
        with open(self._endpoint_path(), "w", encoding="utf-8") as handle:
            json.dump({"host": host, "port": port, "pid": os.getpid()},
                      handle)
            handle.write("\n")

    def serve(self) -> int:
        """Run until drained; returns the process exit code (0)."""
        config = self.config
        self.recovery = self.queue.recover()
        for key in ("requeued", "quarantined", "corrupt"):
            if self.recovery[key]:
                self.log(f"recovery {key}: "
                         f"{', '.join(self.recovery[key])}")
        if config.cache:
            analysis_cache.configure(os.path.join(config.root, "cache"))

        tracer = None
        if config.trace_path:
            tracer = telemetry.Tracer(
                config.trace_path,
                meta={"kind": "service", "root": config.root,
                      "isolation": config.isolation, "pid": os.getpid()})
            telemetry.install(tracer)
        profiler = None
        if config.profile_path:
            profiler = StackProfiler(interval=config.profile_interval)
            profiler.start()

        self.server = build_server(self, config.host, config.port)
        host, port = self.server.server_address[:2]
        self._write_endpoint(str(host), int(port))
        self.log(f"listening on {host}:{port} "
                 f"(pool={config.pool}, isolation={config.isolation}, "
                 f"root={config.root})")

        # Registered from the main thread only (signal module contract);
        # both signals mean the same thing here: finish what you hold,
        # persist everything, exit 0.
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    signum,
                    lambda s, frame: self.initiate_drain(
                        signal.Signals(s).name))

        self.pool.start()
        self.supervisor.start()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="monitor", daemon=True)
        self._monitor.start()
        http_thread = threading.Thread(target=self.server.serve_forever,
                                       name="http", daemon=True)
        http_thread.start()

        self._drain_requested.wait()
        self.draining = True
        # The supervisor stops first: a drain's worker exits are
        # deliberate, not casualties to restart.
        self.supervisor.stop()
        clean = self.pool.drain(config.drain_timeout)
        if not clean:
            self.log("drain timeout: released in-flight leases")
        self.server.shutdown()
        http_thread.join(5.0)
        self.server.server_close()
        if self._monitor is not None:
            self._monitor.join(2.0)
        if profiler is not None:
            profiler.stop()
            try:
                profiler.write(config.profile_path)
                self.log(f"profile written to {config.profile_path} "
                         f"({profiler.samples} samples)")
            except OSError:
                pass  # the profile is advisory; never fail the drain
        if tracer is not None:
            telemetry.uninstall()
            tracer.close()
        if self.access_log is not None:
            self.access_log.close()
        if config.cache:
            analysis_cache.deactivate()
        try:
            os.unlink(self._endpoint_path())
        except OSError:
            pass
        counts = self.queue.counts()
        assert counts["leased"] == 0 and counts["running"] == 0, counts
        self.log(f"drained; final counts {counts}")
        return 0


def read_endpoint(root: str, timeout: float = 10.0) -> dict[str, Any]:
    """Wait for and read a service's endpoint file (harness helper)."""
    path = os.path.join(root, ENDPOINT_NAME)
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"service endpoint file {path!r} did not appear "
                    f"within {timeout:g}s")
            time.sleep(0.05)
