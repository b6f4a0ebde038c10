"""Retiming-as-a-service: a durable job queue behind a small HTTP API.

The service turns the resilient Table I flow
(:func:`repro.runtime.suite.optimize_resilient`) into a long-running
process: clients ``POST`` retiming jobs (a Table I circuit name or an
inline ``.bench`` netlist), a persistent worker pool executes them with
a warm shared analysis cache, and every job state transition is durably
persisted *before* it is acknowledged -- killing the service at any
point loses no accepted job and completes none twice.

Two isolation modes.  ``thread`` (default) runs jobs on the worker
threads themselves -- fastest, one warm in-memory cache.  ``process``
hands each job to a sandboxed subprocess (:mod:`repro.service.sandbox`)
with ``resource.setrlimit`` memory/CPU budgets and a wall-clock
watchdog, so a job that segfaults, hangs or eats memory kills *its
subprocess*, not the service; a job that does it repeatedly is
quarantined as poison with the crash evidence attached.  The
:mod:`repro.service.supervisor` owns worker lifecycle either way:
dead workers restart with seeded backoff behind a circuit breaker.

Layering (each module imports only downward)::

    app.py        service wiring: config, signals, drain, monitor loop
      api.py      HTTP front end (stdlib http.server, threading)
      supervisor.py  self-healing: restart dead workers, circuit breaker
      workers.py  worker pool: claim -> run -> complete
        sandbox.py     process isolation: rlimits, watchdog, classify
        admission.py   validation, queue/memory bounds, token buckets
        queue.py       durable FIFO job queue + execution journal
          jobs.py      job records: states, transitions, atomic persist

The chaos companion :mod:`repro.service.killloop` kills the service --
or, in worker-kill mode, individual sandboxed workers -- under fault
plans and proves the exactly-once-completion and digest-parity claims.
Its launches run on the fault plane's one subprocess restart loop,
:func:`repro.faultplane.chaos.restart_until_complete`.  See
``docs/service.md``.
"""

from .admission import AdmissionController, TokenBucket, resident_memory_mb
from .jobs import (JOB_STATES, TERMINAL_STATES, JobRecord, job_result_digest,
                   load_job, save_job)
from .queue import JobQueue, read_journal
from .sandbox import SandboxLimits, SandboxOutcome, run_sandboxed
from .supervisor import Supervisor

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "resident_memory_mb",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "job_result_digest",
    "load_job",
    "save_job",
    "JobQueue",
    "read_journal",
    "SandboxLimits",
    "SandboxOutcome",
    "run_sandboxed",
    "Supervisor",
]
