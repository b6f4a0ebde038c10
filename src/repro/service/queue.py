"""The durable job queue: FIFO claims, leases, journal, crash recovery.

One queue = one directory::

    <root>/jobs/<id>.json     one durable record per job (jobs.py)
    <root>/executions.jsonl   append-only execution journal (advisory)

The *records* are the source of truth: every state transition persists
the record durably (atomic tempfile+fsync+rename) *while holding the
queue lock*, so the on-disk state is always a prefix of the in-memory
state and a crash between the two loses at most the transition in
flight -- recovery replays it by requeueing.  A persist that *fails*
(rather than killing the process) rolls the in-memory mutation back to
the last durable state, so memory never runs ahead of disk either.

The *journal* is the auditor: ``start`` is appended only after the
``running`` record is durable and ``done`` only after the ``done``
record is durable, so the kill-loop harness can assert the two
execution invariants directly from the journal -- at most one ``done``
per job, and no ``start`` after a ``done`` (no zombie re-execution of a
completed job).  Journal appends are advisory (flushed, best-effort
fsynced, never allowed to fail a transition).

Recovery (:meth:`JobQueue.recover`) runs once at service startup:
every ``leased``/``running`` record -- a worker died holding it -- is
requeued (consuming one unit of requeue budget; an exhausted budget
quarantines), and unreadable/torn record files are set aside as
``<name>.corrupt`` rather than taking the service down.  At runtime the
monitor loop calls :meth:`JobQueue.requeue_expired` for the same edge
on live leases; the lock makes each expiry requeue exactly once.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Any, Callable, Iterator

from ..errors import JobStateError
from ..faultplane.hooks import fault_point
from ..telemetry import REGISTRY
from .jobs import (TERMINAL_STATES, JobRecord, load_job, new_job_id,
                   save_job)

JOURNAL_NAME = "executions.jsonl"


def read_journal(root: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """All journal events of a queue directory, in append order.

    Skips unparsable lines (the journal is advisory and its final line
    may be torn by a kill) instead of raising.
    """
    path = os.path.join(os.fspath(root), JOURNAL_NAME)
    events: list[dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line after a kill
                if isinstance(event, dict):
                    events.append(event)
    except OSError:
        return []
    return events


class JobQueue:
    """Durable FIFO queue over one queue directory.

    Thread-safe: every transition runs under one re-entrant lock, held
    across the durable persist -- correctness first; at service scale
    (seconds-long jobs, a handful of workers) persist latency under the
    lock is noise.

    ``clock`` is injectable for the lease/expiry property tests.
    """

    def __init__(self, root: str | os.PathLike[str], *,
                 lease_seconds: float = 60.0, max_requeues: int = 2,
                 max_crashes: int = 3,
                 clock: Callable[[], float] = time.time):
        self.root = os.fspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.journal_path = os.path.join(self.root, JOURNAL_NAME)
        self.lease_seconds = float(lease_seconds)
        self.max_requeues = int(max_requeues)
        self.max_crashes = int(max_crashes)
        self.clock = clock
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        os.makedirs(self.jobs_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _persist(self, record: JobRecord) -> None:
        record.updated_at = self.clock()
        save_job(record, self._path(record.id))

    def _journal(self, event: str, record: JobRecord,
                 **extra: Any) -> None:
        entry = {"event": event, "job": record.id, "ts": self.clock(),
                 "attempt": record.attempts}
        if record.trace_id is not None:
            entry["trace"] = record.trace_id
        if record.span_id is not None:
            entry["span"] = record.span_id
        entry.update(extra)
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                try:
                    os.fsync(handle.fileno())
                except OSError:
                    pass
        except OSError:
            pass  # the journal is advisory; never fail a transition

    @contextlib.contextmanager
    def _rollback_on_failure(self, record: JobRecord) -> Iterator[None]:
        """Keep memory from running ahead of disk.

        Every transition mutates the in-memory record and then persists
        it; if the persist raises (disk full, injected
        ``service.persist`` fault), the mutation is rolled back to the
        last durable state before the exception propagates.  Without
        this, a failed ``complete`` would leave a record ``done`` in
        memory but ``running`` on disk -- the follow-up requeue would
        then hit an illegal done->queued transition and the job would
        wedge until a restart replayed the disk state.
        """
        snapshot = record.to_dict()
        try:
            yield
        except BaseException:
            record.__dict__.update(JobRecord.from_dict(snapshot).__dict__)
            raise

    def _require(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobStateError(f"unknown job {job_id!r}", job_id=job_id)
        return record

    def _requeue_locked(self, record: JobRecord, reason: str) -> JobRecord:
        """Requeue or quarantine ``record``, consuming budget."""
        with self._rollback_on_failure(record):
            record.lease = None
            if record.requeues >= record.max_requeues:
                record.transition("quarantined")
                record.error = {
                    "message": f"requeue budget exhausted ({reason})",
                    "reason": reason}
                self._persist(record)
                REGISTRY.counter("service.jobs.quarantined").inc()
                return record
            record.requeues += 1
            record.transition("queued")
            self._persist(record)
        self._journal("requeue", record, reason=reason)
        REGISTRY.counter("service.jobs.requeued").inc()
        return record

    # ------------------------------------------------------------------
    # Lifecycle API
    # ------------------------------------------------------------------
    def submit(self, spec: dict[str, Any],
               tenant: str = "default", *,
               trace_id: str | None = None,
               span_id: str | None = None) -> JobRecord:
        """Durably enqueue a new job; returns the queued record.

        ``trace_id``/``span_id`` are the request-scoped trace context
        minted by the HTTP front door (the trace id and the
        ``http.request`` root span of the submitting POST); they ride
        the durable record for the job's whole life.
        """
        with self._lock:
            now = self.clock()
            record = JobRecord(id=new_job_id(), tenant=tenant, spec=spec,
                               submitted_at=now, updated_at=now,
                               max_requeues=self.max_requeues,
                               max_crashes=self.max_crashes,
                               trace_id=trace_id, span_id=span_id)
            self._persist(record)
            self._jobs[record.id] = record
            REGISTRY.counter("service.jobs.accepted").inc()
            return record

    def claim(self, worker: str) -> JobRecord | None:
        """Lease the oldest queued job to ``worker`` (FIFO), or ``None``.

        The lease is durable before the record is returned, so a claim
        acknowledged to a worker survives a crash as ``leased`` and is
        requeued by recovery -- never silently dropped.
        """
        with self._lock:
            fault_point("service.lease", worker=worker)
            queued = [r for r in self._jobs.values() if r.state == "queued"]
            if not queued:
                return None
            record = min(queued, key=lambda r: (r.submitted_at, r.id))
            with self._rollback_on_failure(record):
                now = self.clock()
                # How long the job sat queued since it last became
                # queued (submit or requeue persisted updated_at then).
                # Rides the lease so the worker can emit a queue.wait
                # span without re-deriving queue history.
                queued_for = max(0.0, now - record.updated_at)
                record.transition("leased")
                record.attempts += 1
                record.lease = {
                    "worker": worker,
                    "expires_at": now + self.lease_seconds,
                    "queued_for": queued_for}
                self._persist(record)
            return record

    def start(self, job_id: str) -> JobRecord:
        """Mark a leased job running; journals ``start`` once durable."""
        with self._lock:
            record = self._require(job_id)
            with self._rollback_on_failure(record):
                record.transition("running")
                self._persist(record)
            self._journal("start", record)
            return record

    def heartbeat(self, job_id: str) -> JobRecord:
        """Extend the lease of an in-flight job."""
        with self._lock:
            record = self._require(job_id)
            if record.lease is None:
                raise JobStateError(
                    f"job {job_id!r} holds no lease to heartbeat "
                    f"(state {record.state!r})", job_id=job_id)
            with self._rollback_on_failure(record):
                record.lease["expires_at"] = \
                    self.clock() + self.lease_seconds
                self._persist(record)
            return record

    def complete(self, job_id: str, result: dict[str, Any]) -> JobRecord:
        """Terminal success; journals ``done`` once durable."""
        with self._lock:
            record = self._require(job_id)
            with self._rollback_on_failure(record):
                record.transition("done")
                record.lease = None
                record.result = result
                self._persist(record)
            self._journal("done", record, digest=result.get("digest"))
            REGISTRY.counter("service.jobs.completed").inc()
            return record

    def fail(self, job_id: str, error: dict[str, Any]) -> JobRecord:
        """Terminal deterministic failure (the *job* failed, not the
        service -- e.g. every ladder rung gave up on the circuit)."""
        with self._lock:
            record = self._require(job_id)
            with self._rollback_on_failure(record):
                record.transition("failed")
                record.lease = None
                record.error = error
                self._persist(record)
            self._journal("done", record, outcome="failed")
            REGISTRY.counter("service.jobs.failed").inc()
            return record

    def requeue(self, job_id: str, reason: str) -> JobRecord:
        """Budgeted requeue after an infrastructure failure."""
        with self._lock:
            return self._requeue_locked(self._require(job_id), reason)

    def record_crash(self, job_id: str,
                     evidence: dict[str, Any]) -> JobRecord:
        """A worker died executing this job; requeue or quarantine.

        Poison-job detection: worker deaths (a sandboxed subprocess
        that segfaulted, blew its memory rlimit, or hung past the
        watchdog) consume the *crash* budget, not the requeue budget --
        flaky infrastructure and poison input are different diagnoses
        and must exhaust different budgets, so a quarantine verdict
        names the right one.  ``evidence`` (fault kind, exit status,
        stderr tail, elapsed seconds) is kept on the record, bounded to
        the last ``max_crashes`` reports, so a quarantined job carries
        its own post-mortem.
        """
        with self._lock:
            record = self._require(job_id)
            with self._rollback_on_failure(record):
                record.crashes += 1
                record.crash_evidence = (
                    record.crash_evidence + [dict(evidence)]
                )[-max(1, record.max_crashes):]
                record.lease = None
                if record.crashes >= record.max_crashes:
                    record.transition("quarantined")
                    record.error = {
                        "message": f"job killed its worker "
                                   f"{record.crashes} times (budget "
                                   f"{record.max_crashes}); quarantined "
                                   f"as poison",
                        "crashes": record.crashes,
                        "evidence": [dict(e) for e in
                                     record.crash_evidence]}
                    self._persist(record)
                    REGISTRY.counter("service.jobs.quarantined").inc()
                    REGISTRY.counter("service.jobs.poisoned").inc()
                    self._journal("quarantine", record,
                                  reason="crash-budget",
                                  crashes=record.crashes)
                    return record
                record.transition("queued")
                self._persist(record)
            self._journal(
                "requeue", record,
                reason=f"worker-crash:{evidence.get('kind', 'crash')}")
            REGISTRY.counter("service.jobs.crash_requeued").inc()
            return record

    def release(self, job_id: str) -> JobRecord:
        """Un-lease a job at graceful drain -- back to ``queued``
        *without* consuming requeue budget (nothing went wrong)."""
        with self._lock:
            record = self._require(job_id)
            with self._rollback_on_failure(record):
                record.transition("queued")
                record.lease = None
                self._persist(record)
            self._journal("requeue", record, reason="drain")
            return record

    def requeue_expired(self, now: float | None = None) -> list[str]:
        """Requeue every in-flight job whose lease expired; returns
        their ids.  Exactly-once per expiry: the lock serializes the
        scan and each requeue re-arms a fresh lease-free record."""
        with self._lock:
            if now is None:
                now = self.clock()
            expired = [r for r in self._jobs.values()
                       if r.state in ("leased", "running")
                       and r.lease_expired(now)]
            for record in expired:
                self._requeue_locked(record, reason="lease-expired")
            return [r.id for r in expired]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> Iterator[JobRecord]:
        with self._lock:
            return iter(list(self._jobs.values()))

    def counts(self) -> dict[str, int]:
        """Jobs per state (always includes every state, 0-filled)."""
        with self._lock:
            counts = {state: 0 for state in
                      ("queued", "leased", "running") + TERMINAL_STATES}
            for record in self._jobs.values():
                counts[record.state] = counts.get(record.state, 0) + 1
            return counts

    def depth(self) -> int:
        """Jobs not yet terminal (the admission queue bound)."""
        with self._lock:
            return sum(1 for r in self._jobs.values() if not r.terminal())

    def idle(self) -> bool:
        """True when every known job is terminal."""
        return self.depth() == 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict[str, list[str]]:
        """Load the queue directory and repair interrupted work.

        Returns ``{"requeued": [...], "quarantined": [...],
        "corrupt": [...]}``.  Every ``leased``/``running`` record was
        held by a process that no longer exists (recovery runs before
        any worker starts), so each is requeued -- once -- against its
        budget.  Unreadable records are renamed ``.corrupt`` and listed.
        """
        with self._lock:
            requeued: list[str] = []
            quarantined: list[str] = []
            corrupt: list[str] = []
            for entry in sorted(os.listdir(self.jobs_dir)):
                if entry.startswith(".") or not entry.endswith(".json"):
                    # Dot-files are atomic-write temp debris a kill left
                    # behind -- by the protocol the real record is
                    # intact, so the debris is just deleted.
                    if entry.startswith("."):
                        try:
                            os.unlink(os.path.join(self.jobs_dir, entry))
                        except OSError:
                            pass
                    continue
                path = os.path.join(self.jobs_dir, entry)
                try:
                    record = load_job(path)
                except JobStateError:
                    os.rename(path, path + ".corrupt")
                    corrupt.append(entry)
                    REGISTRY.counter("service.jobs.corrupt").inc()
                    continue
                self._jobs[record.id] = record
                if record.state in ("leased", "running"):
                    before = record.requeues
                    self._requeue_locked(record, reason="recovery")
                    if record.state == "quarantined":
                        quarantined.append(record.id)
                    else:
                        requeued.append(record.id)
                        assert record.requeues == before + 1
            return {"requeued": requeued, "quarantined": quarantined,
                    "corrupt": corrupt}
