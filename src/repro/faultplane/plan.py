"""Deterministic fault plans and the injector that executes them.

A :class:`FaultPlan` is a seedable, serializable description of *what to
break, where, and when*: a list of :class:`FaultSpec` entries, each
naming an injection site (exact name or glob), a fault kind, a
trigger-on-Nth-call threshold, an arm count and a firing probability.
The :class:`FaultInjector` executes a plan deterministically: the same
plan and seed reproduce the exact same fault sequence, so every chaos
failure is replayable from its seed.

Fault kinds and the real failures they model (the taxonomy of
``docs/algorithm.md`` Sec. 7/8):

=================  ====================================================
``transient``      a stochastic hiccup (``RuntimeError``): retryable
``deadline``       a wall-clock expiry (:class:`DeadlineExceeded`):
                   deterministic, degrades without retry
``memory``         an allocation failure (``MemoryError``):
                   deterministic, degrades without retry
``oserror``        an I/O failure (``OSError``), e.g. a full disk
``kill``           a hard crash: ``os._exit`` with
                   :data:`KILL_EXIT_CODE`, no cleanup handlers -- models
                   SIGKILL / power loss for the crash-consistency
                   harness (subprocess runs only)
``hang``           a call that never returns (stuck native kernel,
                   lost lock): blocks until the sandbox watchdog
                   escalates SIGTERM -> SIGKILL (subprocess runs only)
``oom``            runaway allocation: grows real memory until the
                   worker's rlimit (or the machine) refuses, surfacing
                   the resulting ``MemoryError`` (subprocess runs only)
``segfault``       a native-level crash (``SIGSEGV``), e.g. a bug in a
                   C extension: the worker dies on the signal with no
                   Python-level cleanup (subprocess runs only)
``torn``           truncate a byte payload (a write torn by a crash)
``garbage``        overwrite the tail of a byte payload with random
                   bytes (a corrupted sector / hand-edited file)
``corrupt-labels`` perturb a solver's result labels (a wrong answer the
                   recovery machinery must catch, never report)
=================  ====================================================

The plan can also be installed from the environment
(:func:`install_from_env`, variable ``REPRO_FAULT_PLAN`` holding inline
JSON or a path), which is how the crash harness arms child processes;
``REPRO_FAULT_STATS`` names a JSONL file injection events are appended
to so the harness can build a scorecard across kills.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any

from ..errors import DeadlineExceeded, FaultPlanError
from ..telemetry import REGISTRY, spans as telemetry
from . import hooks
from .sites import FAULT_KINDS, FILTER_KINDS, VISIT_KINDS

PLAN_FORMAT = "repro-fault-plan"
PLAN_VERSION = 1

#: Exit code of a ``kill`` fault -- distinguishable from ordinary
#: failures (1) and signal deaths (> 128) in the restart harness.
KILL_EXIT_CODE = 86

ENV_PLAN = "REPRO_FAULT_PLAN"
ENV_STATS = "REPRO_FAULT_STATS"


class InjectedTransientError(RuntimeError):
    """An injected stochastic/transient failure (retryable)."""


class InjectedMemoryError(MemoryError):
    """An injected allocation failure (deterministic, degrades)."""


class InjectedIOError(OSError):
    """An injected I/O failure (e.g. write hitting a full disk)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes
    ----------
    site:
        Injection-site name or ``fnmatch`` glob (``"solve.*"``).
    kind:
        One of the kinds above.
    trigger:
        1-based call threshold: the fault becomes eligible on the Nth
        visit of a matching site (1 = immediately).
    arms:
        How many times the fault may fire before disarming
        (``-1`` = unlimited).
    probability:
        Per-eligible-visit firing probability, drawn from the plan's
        seeded RNG (1.0 = always fire once eligible).
    """

    site: str
    kind: str
    trigger: int = 1
    arms: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.trigger < 1:
            raise FaultPlanError("trigger is 1-based and must be >= 1")
        if self.arms == 0 or self.arms < -1:
            raise FaultPlanError("arms must be positive or -1 (unlimited)")
        if not 0.0 < self.probability <= 1.0:
            raise FaultPlanError("probability must be in (0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return {"site": self.site, "kind": self.kind,
                "trigger": self.trigger, "arms": self.arms,
                "probability": self.probability}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        try:
            return cls(site=str(data["site"]), kind=str(data["kind"]),
                       trigger=int(data.get("trigger", 1)),
                       arms=int(data.get("arms", 1)),
                       probability=float(data.get("probability", 1.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault spec {data!r}: {exc}") \
                from exc


@dataclass
class FaultPlan:
    """A seedable set of faults to inject."""

    seed: int = 0
    faults: list[FaultSpec] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {"format": PLAN_FORMAT, "version": PLAN_VERSION,
                "seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or data.get("format") != PLAN_FORMAT:
            raise FaultPlanError("not a fault plan (missing format tag)")
        if data.get("version") != PLAN_VERSION:
            raise FaultPlanError(
                f"fault plan version {data.get('version')!r} unsupported")
        return cls(seed=int(data.get("seed", 0)),
                   faults=[FaultSpec.from_dict(f)
                           for f in data.get("faults", [])])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") \
                from exc
        return cls.from_dict(data)


def derive_job_plan(plan: FaultPlan, job_name: str,
                    attempt: int) -> FaultPlan:
    """The plan a sandboxed worker subprocess runs under.

    Also the plan of each parallel suite task, with the circuit name as
    ``job_name`` and attempt 0.  Every sandbox child starts with fresh
    injector state, so a plan
    installed verbatim from the environment would replay the *same*
    first probability draw in every child -- a probabilistic worker
    fault would then fire for either every job attempt or none,
    livelocking the worker kill-loop.  Mixing a CRC of the job identity
    and the attempt number into the seed decorrelates the draws while
    keeping the whole fault sequence a pure function of
    ``(base seed, job name, attempt)`` -- chaos failures stay
    replayable.
    """
    import zlib

    tag = zlib.crc32(f"{job_name}#{attempt}".encode("utf-8"))
    return FaultPlan(seed=plan.seed ^ tag, faults=list(plan.faults))


@dataclass
class InjectionEvent:
    """One fault that actually fired."""

    site: str
    kind: str
    call: int  # which matching visit fired it (1-based)
    context: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        context = {key: value for key, value in self.context.items()
                   if isinstance(value, (str, int, float, bool))
                   or value is None}
        return {"site": self.site, "kind": self.kind, "call": self.call,
                "context": context}


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically.

    Per spec the injector tracks how many matching visits happened and
    how many times the fault fired; firing decisions for
    ``probability < 1`` come from one ``random.Random(plan.seed)``
    stream, so the full fault sequence is a pure function of the plan.
    """

    def __init__(self, plan: FaultPlan,
                 stats_path: str | None = None) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.calls = [0] * len(plan.faults)
        self.fired = [0] * len(plan.faults)
        self.events: list[InjectionEvent] = []
        self.stats_path = stats_path

    # ------------------------------------------------------------------
    # Firing machinery
    # ------------------------------------------------------------------
    def _eligible(self, index: int, spec: FaultSpec, site: str) -> bool:
        if not fnmatchcase(site, spec.site) and site != spec.site:
            return False
        self.calls[index] += 1
        if spec.arms != -1 and self.fired[index] >= spec.arms:
            return False
        if self.calls[index] < spec.trigger:
            return False
        if spec.probability < 1.0 and \
                self.rng.random() >= spec.probability:
            return False
        return True

    def _record(self, index: int, spec: FaultSpec, site: str,
                context: dict[str, Any]) -> InjectionEvent:
        self.fired[index] += 1
        event = InjectionEvent(site=site, kind=spec.kind,
                               call=self.calls[index], context=context)
        # Telemetry crossover: the firing becomes a trace event, and the
        # id of the span it fired inside lands in the event context --
        # scorecards serialize scalar context values, so a chaos report
        # can cite exactly which traced region each fault hit.
        span_id = telemetry.current_span_id()
        if span_id is not None:
            event.context.setdefault("span_id", span_id)
        telemetry.event("fault.fired", site=site, kind=spec.kind,
                        call=event.call)
        REGISTRY.counter("faultplane.fired",
                         help="Fault-plane injections that fired").inc()
        self.events.append(event)
        return event

    def visit(self, site: str, context: dict[str, Any]) -> None:
        """Hook target for :func:`repro.faultplane.hooks.fault_point`."""
        for index, spec in enumerate(self.plan.faults):
            if spec.kind not in VISIT_KINDS:
                continue
            if not self._eligible(index, spec, site):
                continue
            event = self._record(index, spec, site, context)
            self._raise(spec, site, event)

    def filter_bytes(self, site: str, data: bytes) -> bytes:
        """Hook target for ``filter_bytes`` (torn/garbage corruption)."""
        for index, spec in enumerate(self.plan.faults):
            if spec.kind not in ("torn", "garbage"):
                continue
            if not self._eligible(index, spec, site):
                continue
            self._record(index, spec, site, {"bytes": len(data)})
            if not data:
                continue
            # Keep a strict prefix so the tear is always detectable.
            keep = self.rng.randrange(0, len(data))
            if spec.kind == "torn":
                data = data[:keep]
            else:
                tail = bytes(self.rng.randrange(256)
                             for _ in range(len(data) - keep))
                data = data[:keep] + tail
        return data

    def filter_labels(self, site: str, labels):
        """Hook target for ``filter_labels`` (result corruption).

        Perturbs one non-host label of a retiming vector by a large
        decrease -- a structurally wrong answer that the post-retime
        guards / differential checks must catch (never report).
        """
        for index, spec in enumerate(self.plan.faults):
            if spec.kind != "corrupt-labels":
                continue
            if not self._eligible(index, spec, site):
                continue
            self._record(index, spec, site,
                         {"n_labels": int(len(labels))})
            if len(labels) > 1:
                labels = labels.copy()
                victim = self.rng.randrange(1, len(labels))
                labels[victim] -= 3
        return labels

    def _raise(self, spec: FaultSpec, site: str,
               event: InjectionEvent) -> None:
        # The message deliberately names only the fault, not the call
        # count or plan seed: it ends up in FailureRecords and hence in
        # manifests, where it must be identical however the visits were
        # distributed (serial, parallel, resumed).  The injector-local
        # provenance (call index, seed) lives in the event log.
        message = f"injected {spec.kind} fault at site {site!r}"
        if spec.kind == "transient":
            raise InjectedTransientError(message)
        if spec.kind == "deadline":
            raise DeadlineExceeded(message, stage=site, elapsed=0.0)
        if spec.kind == "memory":
            raise InjectedMemoryError(message)
        if spec.kind == "oserror":
            raise InjectedIOError(message)
        if spec.kind == "kill":
            # Flush the event so the restart harness can count kills,
            # then die without cleanup -- SIGKILL/power-loss semantics.
            self.flush_stats()
            os._exit(KILL_EXIT_CODE)
        if spec.kind == "hang":
            # A call that never returns.  Only meaningful inside a
            # sandboxed worker whose watchdog escalates SIGTERM ->
            # SIGKILL; the sleep loop keeps the GIL released so the
            # process stays signalable.
            self.flush_stats()
            import time as _time

            while True:  # pragma: no cover - killed by the watchdog
                _time.sleep(3600.0)
        if spec.kind == "oom":
            # Real allocation pressure, not a synthetic raise: grow
            # until the worker rlimit (or Python itself) refuses, then
            # surface the genuine MemoryError.  64 MiB chunks reach a
            # few-hundred-MiB rlimit in a handful of iterations.
            self.flush_stats()
            hog: list[bytearray] = []
            while True:
                hog.append(bytearray(64 * 1024 * 1024))
        if spec.kind == "segfault":
            # Die on the signal itself -- no Python cleanup, exactly
            # like a crashing native kernel.
            self.flush_stats()
            import signal as _signal

            _signal.raise_signal(_signal.SIGSEGV)
        raise FaultPlanError(f"unrealizable fault kind {spec.kind!r}")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Summary of what fired: per-site/kind counts plus the events."""
        counts: dict[str, int] = {}
        for event in self.events:
            key = f"{event.site}/{event.kind}"
            counts[key] = counts.get(key, 0) + 1
        return {"seed": self.plan.seed,
                "injected": sum(counts.values()),
                "by_site": dict(sorted(counts.items())),
                "events": [event.to_dict() for event in self.events]}

    def flush_stats(self) -> None:
        """Append this process's events to ``stats_path`` (JSONL)."""
        if self.stats_path is None or not self.events:
            return
        try:
            with open(self.stats_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(self.stats()) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass  # stats are advisory; never break the run over them


def load_plan_from_env(environ: Any = None) -> FaultPlan | None:
    """Read and validate the ``REPRO_FAULT_PLAN`` plan, or ``None``.

    The variable holds either inline plan JSON (starts with ``{``) or a
    path to a plan file.  Callers that need to transform the plan
    before installing it (the sandbox worker decorrelates the seed per
    job attempt) use this instead of :func:`install_from_env`.
    """
    if environ is None:
        environ = os.environ
    raw = environ.get(ENV_PLAN)
    if not raw:
        return None
    if raw.lstrip().startswith("{"):
        plan = FaultPlan.from_json(raw)
    else:
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                plan = FaultPlan.from_json(handle.read())
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {raw!r}: {exc}") from exc
    from .sites import check_plan

    check_plan(plan)
    return plan


def install_from_env(environ: Any = None):
    """Install a :class:`FaultInjector` from ``REPRO_FAULT_PLAN``.

    Returns the installed injector, or ``None`` when the variable is
    unset.  ``REPRO_FAULT_STATS``, when set, names the JSONL file
    injection events are appended to.
    """
    if environ is None:
        environ = os.environ
    plan = load_plan_from_env(environ)
    if plan is None:
        return None
    injector = FaultInjector(plan, stats_path=environ.get(ENV_STATS))
    hooks.install(injector)
    return injector
