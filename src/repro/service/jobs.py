"""Durable job records: states, legal transitions, atomic persistence.

One job = one file ``<queue root>/jobs/<id>.json`` (format
``repro-job``, version 2, sha256 checksum over the canonical JSON;
version-1 records -- written before trace context existed -- load
compatibly with ``trace_id``/``span_id`` as ``None``).
Every record is a :mod:`repro.records` envelope written by its atomic
write, so a crash at any point leaves either the previous record or the
new one -- never a torn file.  The write path visits the
``service.persist`` fault-injection site; the service chaos suite kills
the process there to prove the claim.

Lifecycle::

    queued -> leased -> running -> done
       ^________|_________|-----> failed        (terminal)
       (requeue, budgeted)ꞌ-----> quarantined   (terminal)

``queued -> quarantined`` also exists: a requeue that exhausts the
budget quarantines instead of looping forever.  The transition table is
the single source of truth -- :meth:`JobRecord.transition` refuses
anything else with a :class:`~repro.errors.JobStateError`, which is how
a drained worker racing a requeued job is caught instead of corrupting
state.

See ``docs/file_formats.md`` (job-record section) for the field
reference.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from typing import Any

from .. import records
from ..errors import JobStateError
from ..faultplane.hooks import fault_point
from ..runtime.manifest import result_checksum

JOB_FORMAT = "repro-job"
#: Version 2 added the ``trace_id``/``span_id`` observability fields;
#: version-1 records (no trace context) still load cleanly.
JOB_VERSION = 2
COMPATIBLE_JOB_VERSIONS = (1, 2)

#: Every job state, in rough lifecycle order.
JOB_STATES = ("queued", "leased", "running", "done", "failed", "quarantined")
#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "quarantined")

#: Legal state transitions.  ``leased/running -> queued`` is the
#: requeue/release edge (crash recovery, expired leases, graceful
#: drain); ``* -> quarantined`` fires when the requeue budget runs out.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "queued": ("leased", "quarantined"),
    "leased": ("running", "queued", "quarantined"),
    "running": ("done", "failed", "queued", "quarantined"),
    "done": (),
    "failed": (),
    "quarantined": (),
}


def new_job_id() -> str:
    """A fresh collision-free job id (``j-`` + 12 hex chars)."""
    return "j-" + uuid.uuid4().hex[:12]


def job_result_digest(name: str, record: dict[str, Any]) -> str:
    """The determinism digest of one circuit record, service-side.

    Wraps the record exactly the way a single-circuit manifest would
    (``{"completed": {name: record}}``) and reuses the manifest's
    :func:`~repro.runtime.manifest.result_checksum`, so a job result
    computed by the service -- warm cache, any worker, any restart
    count -- carries the *same* digest as the same circuit in a clean
    serial ``table1`` manifest.  The kill-loop harness leans on this
    equality as its correctness oracle.
    """
    return result_checksum({"completed": {name: record}})


@dataclass
class JobRecord:
    """Everything the queue keeps for one job.

    Attributes
    ----------
    id:
        Stable job id (also the record's file stem).
    tenant:
        Admission tenant the job was accepted under (rate-limit key).
    state:
        One of :data:`JOB_STATES`.
    spec:
        The normalized job spec produced by admission (circuit name or
        inline netlist, plus experiment knobs).
    submitted_at / updated_at:
        Unix timestamps (wall clock, advisory -- never part of any
        digest).
    attempts:
        Execution attempts started (leases taken).
    requeues:
        Budgeted crash/expiry requeues consumed (a graceful-drain
        release is *not* a requeue and does not consume budget).
    max_requeues:
        Requeue budget; exhausting it quarantines the job.
    crashes:
        Times this job killed the worker executing it (a sandboxed
        worker subprocess that segfaulted, blew its memory rlimit or
        hung past the watchdog).  A separate budget from ``requeues``
        so the quarantine verdict names the real culprit: poison input,
        not flaky infrastructure.
    max_crashes:
        Crash budget; a job that kills its worker this many times is
        quarantined as poison with the evidence attached.
    crash_evidence:
        The most recent crash reports (bounded list of dicts: fault
        kind, exit code / signal, stderr tail, elapsed seconds), kept
        so a quarantined poison job carries its own post-mortem.
    lease:
        ``{"worker": str, "expires_at": float}`` while leased/running,
        else ``None``.
    result:
        Terminal payload of a ``done`` job: ``{"name", "status",
        "record", "digest"}`` where ``record`` is the
        :class:`~repro.runtime.manifest.CircuitRecord` dict and
        ``digest`` its :func:`job_result_digest`.
    error:
        Terminal payload of a ``failed``/``quarantined`` job.
    trace_id / span_id:
        Request-scoped trace context minted at admission (the trace id
        and the ``http.request`` root span id of the submitting POST).
        Every lifecycle span of this job -- across requeues, worker
        restarts and sandbox subprocesses -- parents to ``span_id`` and
        carries ``trace_id``, and the executions journal repeats both,
        so audit lines join to traces.  ``None`` on version-1 records
        and untraced submissions.
    """

    id: str
    tenant: str = "default"
    state: str = "queued"
    spec: dict[str, Any] = field(default_factory=dict)
    submitted_at: float = 0.0
    updated_at: float = 0.0
    attempts: int = 0
    requeues: int = 0
    max_requeues: int = 2
    crashes: int = 0
    max_crashes: int = 3
    crash_evidence: list[dict[str, Any]] = field(default_factory=list)
    lease: dict[str, Any] | None = None
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    trace_id: str | None = None
    span_id: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, enforcing the transition table."""
        if new_state not in JOB_STATES:
            raise JobStateError(f"unknown job state {new_state!r}",
                                job_id=self.id)
        if new_state not in TRANSITIONS[self.state]:
            raise JobStateError(
                f"illegal transition {self.state!r} -> {new_state!r}",
                job_id=self.id)
        self.state = new_state

    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def lease_expired(self, now: float) -> bool:
        """True when leased/running past the lease expiry."""
        return (self.lease is not None
                and now >= float(self.lease.get("expires_at", 0.0)))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "tenant": self.tenant, "state": self.state,
            "spec": self.spec,
            "submitted_at": float(self.submitted_at),
            "updated_at": float(self.updated_at),
            "attempts": int(self.attempts),
            "requeues": int(self.requeues),
            "max_requeues": int(self.max_requeues),
            "crashes": int(self.crashes),
            "max_crashes": int(self.max_crashes),
            "crash_evidence": [dict(e) for e in self.crash_evidence],
            "lease": self.lease, "result": self.result, "error": self.error,
            "trace_id": self.trace_id, "span_id": self.span_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRecord":
        try:
            record = cls(
                id=str(data["id"]), tenant=str(data.get("tenant", "default")),
                state=str(data["state"]), spec=dict(data.get("spec", {})),
                submitted_at=float(data.get("submitted_at", 0.0)),
                updated_at=float(data.get("updated_at", 0.0)),
                attempts=int(data.get("attempts", 0)),
                requeues=int(data.get("requeues", 0)),
                max_requeues=int(data.get("max_requeues", 2)),
                crashes=int(data.get("crashes", 0)),
                max_crashes=int(data.get("max_crashes", 3)),
                crash_evidence=[dict(e) for e in
                                data.get("crash_evidence", [])],
                lease=data.get("lease"), result=data.get("result"),
                error=data.get("error"),
                trace_id=(None if data.get("trace_id") is None
                          else str(data["trace_id"])),
                span_id=(None if data.get("span_id") is None
                         else str(data["span_id"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise JobStateError(f"malformed job record: {exc}") from exc
        if record.state not in JOB_STATES:
            raise JobStateError(f"unknown job state {record.state!r}",
                                job_id=record.id)
        return record


def save_job(record: JobRecord, path: str | os.PathLike[str]) -> None:
    """Durably and atomically write one job record
    (:func:`repro.records.atomic_write`).

    The ``service.persist`` fault site fires *before* the write begins,
    so an injected crash there models losing the entire persist -- the
    on-disk record stays at the previous state and recovery requeues
    from it.
    """
    fault_point("service.persist", job=record.id, state=record.state)
    payload = record.to_dict()
    payload["format"] = JOB_FORMAT
    payload["version"] = JOB_VERSION
    records.atomic_write(path, records.dumps(records.seal(payload)))


def load_job(path: str | os.PathLike[str]) -> JobRecord:
    """Read and checksum-verify one job record.

    Raises :class:`~repro.errors.JobStateError` on unreadable, torn or
    tampered files; the queue's recovery pass quarantines those aside as
    ``.corrupt`` instead of crashing the whole service.
    """
    payload = records.load_record(
        path, fmt=JOB_FORMAT, versions=COMPATIBLE_JOB_VERSIONS,
        error=JobStateError, what="job record",
        hint="recovery sets it aside as .corrupt")
    body = {key: value for key, value in payload.items()
            if key not in ("format", "version", "checksum")}
    return JobRecord.from_dict(body)
