"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """A netlist is malformed (bad references, duplicate names, arity)."""


class ParseError(NetlistError):
    """A netlist file could not be parsed.

    Attributes
    ----------
    path:
        File the error occurred in, or ``None`` when parsing a string.
    line:
        1-based line number of the offending line, or ``None``.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        location = ""
        if path is not None:
            location = f"{path}:"
        if line is not None:
            location += f"{line}:"
        if location:
            message = f"{location} {message}"
        super().__init__(message)


class CombinationalCycleError(NetlistError):
    """The combinational part of a circuit contains a cycle.

    A synchronous sequential circuit must break every feedback loop with at
    least one register; a register-free cycle makes timing and simulation
    undefined.

    Attributes
    ----------
    cycle:
        A list of gate names forming the cycle, in order.
    """

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__(
            "combinational cycle: " + " -> ".join(self.cycle + self.cycle[:1])
        )


class LibraryError(ReproError):
    """A cell type is unknown or used with an unsupported arity."""


class RetimingError(ReproError):
    """A retiming operation failed (infeasible constraints, invalid label)."""


class InfeasibleError(RetimingError):
    """No retiming satisfies the requested constraints.

    Raised e.g. when the requested clock period is below the min achievable
    period, or when an initial feasible retiming cannot be constructed.
    """


class ExecutionError(ReproError):
    """A resilient-execution stage failed (see :mod:`repro.runtime`)."""


class DeadlineExceeded(ExecutionError):
    """A stage ran past its wall-clock deadline (or was cancelled).

    Cooperative stages (the retiming solvers) raise this from inside
    their main loop, so the partial progress is not lost:

    Attributes
    ----------
    stage:
        Name of the stage that timed out, or ``None``.
    elapsed:
        Seconds the stage ran before giving up, or ``None``.
    best_r:
        The best *feasible* retiming labels found before the deadline
        (solvers only commit feasible moves, so this is always usable),
        or ``None`` when the stage has no retiming to offer.
    partial:
        Optional richer partial result (e.g. a
        :class:`~repro.core.minobswin.RetimingResult` built from
        ``best_r`` plus the solver counters at the moment of cancellation).
    """

    def __init__(self, message: str, stage: str | None = None,
                 elapsed: float | None = None, best_r=None, partial=None):
        self.stage = stage
        self.elapsed = elapsed
        self.best_r = best_r
        self.partial = partial
        super().__init__(message)


class VerificationError(ExecutionError):
    """A post-retime verification guard rejected a result.

    Attributes
    ----------
    report:
        The :class:`~repro.runtime.guards.GuardReport` that failed, or
        ``None``.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class ManifestError(ExecutionError):
    """A run manifest is malformed or incompatible with the run."""


class WorkerCrashError(ExecutionError):
    """A parallel suite worker process died abruptly.

    Raised by :mod:`repro.runtime.parallel`, naming the circuits that
    were unfinished.  The parent checkpoints every circuit as its result
    arrives, so a ``--resume`` rerun loses at most those circuits.
    The CLI maps it to the kill exit code
    (:data:`repro.faultplane.plan.KILL_EXIT_CODE`) so the chaos restart
    harness treats a killed worker like a killed process: restart and
    resume.
    """


class ServiceError(ReproError):
    """A retiming-service operation failed (see :mod:`repro.service`)."""


class JobStateError(ServiceError):
    """A job-lifecycle transition is illegal or a job record is damaged.

    Attributes
    ----------
    job_id:
        The job the transition was attempted on, or ``None``.
    """

    def __init__(self, message: str, job_id: str | None = None):
        self.job_id = job_id
        super().__init__(message)


class AdmissionError(ServiceError):
    """A job submission was rejected at the service front door.

    Carries enough structure for the HTTP layer to produce a located
    error response without string matching.

    Attributes
    ----------
    status:
        The HTTP status the rejection maps to (400, 413, 429...).
    field:
        The offending request field, or ``None`` for whole-request
        rejections (rate limit, full queue).
    retry_after:
        Seconds after which a retry may succeed (rate limit / full
        queue), or ``None`` for permanent rejections.
    """

    def __init__(self, message: str, status: int = 400,
                 field: str | None = None,
                 retry_after: float | None = None):
        self.status = int(status)
        self.field = field
        self.retry_after = retry_after
        super().__init__(message)


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (unknown site, bad kind...)."""


class TimingError(ReproError):
    """Timing analysis failed (e.g. negative delay, inconsistent labels)."""


class SimulationError(ReproError):
    """Logic simulation failed (e.g. mismatched vector lengths)."""


class AnalysisError(ReproError):
    """SER / observability analysis failed."""


class FlatCoreError(ReproError):
    """A flat-core arena is invalid or could not be built.

    Raised by :func:`repro.flatcore.arena.lower` when a circuit cannot
    be lowered (e.g. a gate reads an undefined net) and by
    :func:`repro.flatcore.arena.validate_flat` when an arena fails a
    structural or cross-check invariant.  Messages always locate the
    offending element (node index and net name) so a corrupted arena is
    a loud, placed error -- never a silent wrong result.
    """


class TelemetryError(ReproError):
    """A telemetry operation failed (bad trace file, metric kind clash).

    Instrumentation call sites never raise this -- a broken tracer must
    not take the pipeline down -- only the explicit telemetry APIs do:
    registering a metric under a conflicting kind, absorbing an unreadable
    shard trace, or loading a malformed trace file in the viewer.
    """
