"""The resilient stage executor: retries, deadlines, degradation ladders.

Every expensive stage of the Table I flow (observability simulation,
Sec. V initialization, the MinObs/MinObsWin solves, SER re-analysis) runs
through :func:`run_ladder`: an ordered ladder of *rungs*, each a named
callable implementing the stage at a decreasing level of fidelity
(e.g. ``minobswin -> minobs -> identity``).  Per attempt the executor

* hands the rung a fresh :class:`~repro.runtime.deadline.Deadline` and an
  attempt index (stochastic stages reseed from it),
* converts any failure into a structured :class:`FailureRecord` instead
  of propagating,
* retries the rung up to ``max_retries`` times -- except for
  deterministic failures (:class:`~repro.errors.DeadlineExceeded`,
  :class:`~repro.errors.VerificationError`), which skip straight to the
  next rung, and
* falls through the ladder until some rung produces a value.

``strict=True`` disables all of this: the first failure propagates, which
is the debugging mode of the ``--strict`` CLI flag.  Only
:class:`Exception` is caught -- ``KeyboardInterrupt`` / ``SystemExit``
always abort the run (that is what checkpoint/resume is for).

The executor is deliberately process-local: it holds no global state
beyond the failure list its caller passes in, so the parallel
suite (:mod:`repro.runtime.parallel`) runs one independent ladder per
circuit inside each worker process -- per-stage deadlines, retries and
degradations are enforced in-worker exactly as in a serial run, and the
resulting :class:`FailureRecord` lists travel back to the parent inside
the per-circuit records, preserving the serial failure ordering.
"""

from __future__ import annotations

import random
import time
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..errors import DeadlineExceeded, ExecutionError, VerificationError
from .deadline import Deadline

#: Exception classes whose failures are deterministic: retrying the same
#: rung with the same inputs cannot help, so the executor degrades
#: immediately instead of burning retries.  ``MemoryError`` qualifies
#: because the same rung re-allocates the same footprint -- only a lower
#: rung (smaller working set) changes the outcome.
NON_RETRYABLE = (DeadlineExceeded, VerificationError, MemoryError)

#: Growth factor of the exponential retry backoff.
BACKOFF_FACTOR = 2.0
#: Ceiling on a single backoff sleep, in seconds.
BACKOFF_CAP = 30.0

#: Module-level sleep hook so tests can observe/suppress backoff sleeps
#: without monkeypatching the stdlib for every caller.
_sleep = time.sleep


def backoff_rng(seed: int, stage: str, circuit: str = "") -> random.Random:
    """The jitter stream of one stage's retries.

    Seeded from ``seed`` and a CRC of the stage/circuit identity --
    *not* ``hash()``, which string randomization makes nondeterministic
    across processes.  The same (seed, stage, circuit) triple therefore
    reproduces the exact same jitter sequence everywhere: serial runs,
    parallel workers, chaos replays.
    """
    tag = zlib.crc32(f"{circuit}/{stage}".encode("utf-8"))
    return random.Random(seed ^ tag)


def backoff_delay(base: float, attempt: int, rng: random.Random,
                  factor: float = BACKOFF_FACTOR,
                  cap: float = BACKOFF_CAP) -> float:
    """One jittered exponential-backoff delay, in seconds.

    ``base * factor**attempt`` capped at ``cap``, scaled by a jitter
    factor drawn uniformly from ``[0.5, 1.0)`` -- retries against a
    shared resource (a contended disk-cache tier, a flaky filesystem)
    must decorrelate instead of hot-looping in lockstep.  Pure given the
    RNG state, so a fixed seed fixes the whole delay sequence.
    """
    if base <= 0.0:
        return 0.0
    return min(cap, base * (factor ** attempt)) * (0.5 + 0.5 * rng.random())


@dataclass
class FailureRecord:
    """One captured failure (or noteworthy recovery) of a stage attempt.

    Attributes
    ----------
    circuit:
        Circuit the stage was running for ("" outside suite runs).
    stage:
        Stage name (e.g. ``"solve:minobswin"``).
    rung:
        Ladder rung label that failed (e.g. ``"minobswin"``).
    error:
        Exception class name.
    message:
        ``str(exception)`` (truncated to keep manifests bounded).
    elapsed:
        Seconds the failing attempt ran.
    attempt:
        0-based attempt index within the rung.
    action:
        What the executor did next: ``"retry"``, ``"degrade"``,
        ``"gave-up"``, ``"partial-result"`` or
        ``"completed-over-deadline"``.
    """

    circuit: str
    stage: str
    rung: str
    error: str
    message: str
    elapsed: float
    attempt: int
    action: str

    MAX_MESSAGE = 500

    def __post_init__(self) -> None:
        if len(self.message) > self.MAX_MESSAGE:
            self.message = self.message[:self.MAX_MESSAGE] + "..."

    def to_dict(self) -> dict[str, Any]:
        return {
            "circuit": self.circuit, "stage": self.stage,
            "rung": self.rung, "error": self.error,
            "message": self.message, "elapsed": float(self.elapsed),
            "attempt": int(self.attempt), "action": self.action,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FailureRecord":
        return cls(circuit=str(data.get("circuit", "")),
                   stage=str(data["stage"]), rung=str(data.get("rung", "")),
                   error=str(data.get("error", "")),
                   message=str(data.get("message", "")),
                   elapsed=float(data.get("elapsed", 0.0)),
                   attempt=int(data.get("attempt", 0)),
                   action=str(data.get("action", "")))


@dataclass
class Attempt:
    """Execution context handed to a rung callable.

    Attributes
    ----------
    deadline:
        Fresh per-attempt deadline (``remaining()`` feeds the solvers).
    attempt:
        0-based retry index within the rung -- stochastic stages derive a
        fresh seed from it (retry-with-reseed).
    failures:
        Sink the rung may append informational :class:`FailureRecord`\\ s
        to (e.g. the solve rung records a ``partial-result`` entry when
        it recovers the best-so-far retiming from a
        :class:`~repro.errors.DeadlineExceeded`).
    circuit, stage, rung:
        Identification, pre-filled for :meth:`record`.
    """

    deadline: Deadline
    attempt: int
    failures: list[FailureRecord]
    circuit: str = ""
    stage: str = ""
    rung: str = ""

    def record(self, error: BaseException | str, action: str) -> None:
        """Append a failure/recovery record for this attempt."""
        if isinstance(error, BaseException):
            name, message = type(error).__name__, str(error)
        else:
            name, message = str(error), str(error)
        self.failures.append(FailureRecord(
            circuit=self.circuit, stage=self.stage, rung=self.rung,
            error=name, message=message,
            elapsed=self.deadline.elapsed(), attempt=self.attempt,
            action=action))


@dataclass
class Rung:
    """One fidelity level of a stage ladder."""

    label: str
    fn: Callable[[Attempt], Any]


@dataclass
class StageOutcome:
    """What :func:`run_ladder` produced for one stage.

    Attributes
    ----------
    value:
        The first rung result obtained.
    rung:
        Label of the producing rung.
    degraded:
        True when a lower rung than the first produced the value.
    attempts:
        Total attempts across all rungs.
    elapsed:
        Total wall-clock seconds spent in the stage.
    failures:
        Every failure recorded along the way (also appended to the
        caller-provided sink, when given).
    """

    value: Any
    rung: str
    degraded: bool
    attempts: int
    elapsed: float
    failures: list[FailureRecord] = field(default_factory=list)


def run_ladder(stage: str, rungs: Sequence[Rung | tuple[str, Callable]],
               *, circuit: str = "", max_retries: int = 1,
               deadline: float | None = None, strict: bool = False,
               failures: list[FailureRecord] | None = None,
               backoff: float = 0.0, backoff_seed: int = 0) -> StageOutcome:
    """Run a stage through its degradation ladder.

    Parameters
    ----------
    stage:
        Stage name for records (e.g. ``"solve:minobswin"``).
    rungs:
        Ordered fidelity ladder; each rung is a :class:`Rung` or a
        ``(label, fn)`` pair where ``fn`` takes an :class:`Attempt`.
    circuit:
        Circuit name for records.
    max_retries:
        Extra attempts per rung after the first (deterministic failures
        skip retries, see :data:`NON_RETRYABLE`).
    deadline:
        Per-attempt wall-clock budget in seconds (``None`` = unlimited).
        Cooperative stages are cancelled mid-flight via the attempt's
        :class:`~repro.runtime.deadline.Deadline`; non-cooperative stages
        that finish past the budget keep their result (discarding
        finished work helps nobody) and log a
        ``completed-over-deadline`` record.
    strict:
        Re-raise the first failure instead of retrying/degrading.
    failures:
        Optional external sink that also receives every record.
    backoff:
        Base seconds of the seeded exponential-backoff-with-jitter sleep
        between retries of the *same* rung (``0`` -- the default --
        retries immediately, the historical behavior).  Degrading to a
        lower rung never sleeps: a lower-fidelity attempt uses different
        resources, so there is nothing to back off from.  Deterministic
        failures (:data:`NON_RETRYABLE`) skip retries and therefore
        never sleep either.
    backoff_seed:
        Seed of the jitter stream (see :func:`backoff_rng`); a fixed
        seed makes the whole delay sequence reproducible.

    Raises
    ------
    ExecutionError
        When every rung is exhausted without a value (the chained cause
        is the last underlying failure); ladders ending in an infallible
        rung (e.g. ``identity``) never get here.
    """
    ladder = [r if isinstance(r, Rung) else Rung(r[0], r[1]) for r in rungs]
    if not ladder:
        raise ExecutionError(f"stage {stage!r} has an empty ladder")
    sink: list[FailureRecord] = []
    start = perf_counter()
    attempts = 0
    last_error: Exception | None = None
    rng = backoff_rng(backoff_seed, stage, circuit) if backoff > 0 else None

    def emit(record_list: list[FailureRecord]) -> None:
        if failures is not None:
            failures.extend(record_list)

    for rung_idx, rung in enumerate(ladder):
        attempt_idx = 0
        while True:
            attempts += 1
            ctx = Attempt(deadline=Deadline(deadline), attempt=attempt_idx,
                          failures=sink, circuit=circuit, stage=stage,
                          rung=rung.label)
            before = len(sink)
            try:
                value = rung.fn(ctx)
            except Exception as exc:
                if strict:
                    emit(sink)
                    raise
                last_error = exc
                retryable = not isinstance(exc, NON_RETRYABLE)
                will_retry = retryable and attempt_idx < max_retries
                if will_retry:
                    action = "retry"
                elif rung_idx + 1 < len(ladder):
                    action = "degrade"
                else:
                    action = "gave-up"
                ctx.record(exc, action)
                if will_retry:
                    if rng is not None:
                        delay = backoff_delay(backoff, attempt_idx, rng)
                        if delay > 0.0:
                            _sleep(delay)
                    attempt_idx += 1
                    continue
                break  # next rung
            # Success -- flag silent deadline overruns of stages that
            # cannot be cancelled cooperatively.
            if ctx.deadline.expired() and not any(
                    f.attempt == attempt_idx and f.rung == rung.label
                    for f in sink[before:]):
                ctx.record(
                    f"finished {ctx.deadline.elapsed():.3f}s into a "
                    f"{deadline:g}s budget", "completed-over-deadline")
            emit(sink)
            recovered = any(f.action == "partial-result"
                            for f in sink[before:])
            return StageOutcome(
                value=value, rung=rung.label,
                degraded=rung_idx > 0 or recovered,
                attempts=attempts, elapsed=perf_counter() - start,
                failures=sink)

    emit(sink)
    raise ExecutionError(
        f"stage {stage!r} failed on every ladder rung "
        f"({', '.join(r.label for r in ladder)})") from last_error
