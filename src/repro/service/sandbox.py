"""Process-isolated job execution: one job, one subprocess, hard budgets.

Thread workers (the default) share one process, so a single
pathological netlist -- a solver that hangs past its deadline hook, an
analysis that OOMs, a native-level crash inside a numpy kernel -- takes
down the whole front door and every in-flight job with it.  Process
isolation (``repro-ser serve --isolation process``) shrinks that blast
radius to one job:

* the job runs in a fresh subprocess under ``resource.setrlimit``
  memory/CPU budgets, so runaway allocation dies inside the sandbox
  instead of the service;
* a wall-clock watchdog escalates SIGTERM -> SIGKILL on a hung worker;
* the child shares the service's *disk* cache tier
  (:mod:`repro.cache`), so the warm-cache story survives isolation --
  a resubmitted circuit still reuses the expensive simulation results;
* the result crosses back through one atomically-written
  ``output.json``, and the claiming worker thread records it on the
  durable job record exactly as in thread mode -- the queue's
  exactly-once and digest-parity guarantees are isolation-agnostic.

A worker death is *classified*, not merely observed: the child reports
clean exceptions and OOMs itself (structured ``error``/``oom``
payloads), the parent attributes timeouts and signal deaths, and the
resulting evidence feeds :meth:`repro.service.queue.JobQueue.record_crash`
-- the poison-job budget that quarantines a job which keeps killing its
workers.

The child visits two fault sites before executing
(``service.worker.execute`` and the name-keyed family
``service.worker.job.<name>``), which is how the chaos harness injects
hangs, OOMs and segfaults into individual workers.  Because every child
starts with fresh injector state, the plan's seed is decorrelated per
job attempt (:func:`repro.faultplane.plan.derive_job_plan`) so
probabilistic worker faults do not fire in lockstep across attempts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from ..records import atomic_write

#: Exit code a sandbox child uses to report that the job's execution
#: died of a ``MemoryError`` (its rlimit refused an allocation).
#: Distinct from :data:`repro.faultplane.plan.KILL_EXIT_CODE` (86) so
#: the parent can tell an OOM from an injected hard kill.
OOM_EXIT_CODE = 84

INPUT_NAME = "input.json"
OUTPUT_NAME = "output.json"
STDERR_NAME = "stderr.log"

#: Characters of child stderr kept as crash evidence.
STDERR_TAIL_CHARS = 800

#: Seconds between SIGTERM and SIGKILL when the watchdog fires.
TERM_GRACE = 2.0


@dataclass(frozen=True)
class SandboxLimits:
    """Hard per-job budgets enforced on the worker subprocess.

    ``memory_mb`` caps the child's virtual address space
    (``RLIMIT_AS``), so it must leave room for the interpreter + numpy
    baseline (several hundred MiB) on top of the job's working set.
    ``cpu_seconds`` is ``RLIMIT_CPU`` (the kernel SIGKILLs past the
    hard limit); ``wall_seconds`` is the parent-side watchdog for jobs
    that hang without burning CPU.  ``None`` disables a budget.
    """

    memory_mb: float | None = None
    cpu_seconds: float | None = None
    wall_seconds: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"memory_mb": self.memory_mb,
                "cpu_seconds": self.cpu_seconds,
                "wall_seconds": self.wall_seconds}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SandboxLimits":
        return cls(memory_mb=data.get("memory_mb"),
                   cpu_seconds=data.get("cpu_seconds"),
                   wall_seconds=data.get("wall_seconds"))


@dataclass
class SandboxOutcome:
    """What became of one sandboxed job execution.

    ``kind`` is one of:

    ``result``
        The child produced a result payload (which may itself be a
        deterministic pipeline failure, ``status == "failed:<stage>"``
        -- the worker routes that to terminal ``failed`` exactly as in
        thread mode).
    ``error``
        The child caught an ordinary exception and reported it cleanly
        -- infrastructure-flavored, routed to a budgeted requeue.
    ``oom`` / ``timeout`` / ``crash``
        The worker process died (rlimit OOM, watchdog kill, signal or
        unexplained exit).  ``evidence`` carries the post-mortem and
        the outcome feeds the job's crash budget.
    """

    kind: str
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    evidence: dict[str, Any] = field(default_factory=dict)


def job_display_name(spec: dict[str, Any]) -> str:
    """The human name of a job spec (circuit row or inline name)."""
    return str(spec.get("circuit") or spec.get("name") or "inline")


def _write_json_atomic(path: str, payload: dict[str, Any]) -> None:
    atomic_write(path, (json.dumps(payload, sort_keys=True) + "\n")
                 .encode("utf-8"))


# ----------------------------------------------------------------------
# Parent side: spawn, watch, classify
# ----------------------------------------------------------------------
def run_sandboxed(spec: dict[str, Any], defaults: Any, *,
                  job_id: str, attempt: int,
                  limits: SandboxLimits | None = None,
                  cache_dir: str | None = None,
                  python: str | None = None,
                  telemetry: dict[str, Any] | None = None
                  ) -> SandboxOutcome:
    """Execute one job spec in a fresh worker subprocess.

    ``defaults`` is the pool's
    :class:`~repro.service.workers.ExecutionDefaults`; ``attempt`` is
    the job's attempt count (decorrelates injected worker faults across
    retries).  ``telemetry`` (optional) is the trace handoff --
    ``{"path", "prefix", "trace", "parent"}`` -- that tells the child
    where to write its span shard and which parent span/trace id to
    hang its tree under; the *caller* absorbs the shard afterwards (the
    shard path must live outside the throwaway workdir).  Never raises
    for child misbehavior -- every way the child can die comes back as
    a classified :class:`SandboxOutcome`.
    """
    limits = limits or SandboxLimits()
    workdir = tempfile.mkdtemp(prefix=f"repro-sandbox-{job_id}-")
    try:
        _write_json_atomic(os.path.join(workdir, INPUT_NAME), {
            "spec": spec,
            "defaults": dataclasses.asdict(defaults),
            "limits": limits.to_dict(),
            "cache_dir": cache_dir,
            "job": {"id": job_id, "attempt": int(attempt),
                    "name": job_display_name(spec)},
            "telemetry": telemetry,
        })
        stderr_path = os.path.join(workdir, STDERR_NAME)
        env = dict(os.environ)
        # The child must import repro regardless of how the parent was
        # launched; prepend the package's own source root.
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        argv = [python or sys.executable, "-m", "repro.service.sandbox",
                workdir]
        started = time.monotonic()
        timed_out = False
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL,
                                    stderr=err, env=env)
            try:
                returncode = proc.wait(limits.wall_seconds)
            except subprocess.TimeoutExpired:
                timed_out = True
                proc.terminate()
                try:
                    returncode = proc.wait(TERM_GRACE)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    returncode = proc.wait()
        elapsed = time.monotonic() - started
        return _classify(workdir, returncode, timed_out, elapsed,
                         job_id=job_id, attempt=attempt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _stderr_tail(workdir: str) -> str:
    try:
        with open(os.path.join(workdir, STDERR_NAME), "r",
                  encoding="utf-8", errors="replace") as handle:
            return handle.read()[-STDERR_TAIL_CHARS:]
    except OSError:
        return ""


def _read_output(workdir: str) -> dict[str, Any] | None:
    try:
        with open(os.path.join(workdir, OUTPUT_NAME), "r",
                  encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _classify(workdir: str, returncode: int, timed_out: bool,
              elapsed: float, *, job_id: str,
              attempt: int) -> SandboxOutcome:
    """Turn a child's exit into a :class:`SandboxOutcome`.

    Output-file payloads win over exit codes (the output is written
    atomically, so if it exists it is complete and trustworthy);
    otherwise the parent attributes the death: watchdog timeout, OOM
    exit, signal, or an unexplained exit code.
    """
    def evidence(kind: str) -> dict[str, Any]:
        signal_name = None
        if returncode is not None and returncode < 0:
            try:
                signal_name = signal.Signals(-returncode).name
            except ValueError:
                signal_name = f"signal {-returncode}"
        return {"kind": kind, "exit_code": returncode,
                "signal": signal_name, "elapsed": round(elapsed, 3),
                "attempt": int(attempt), "job": job_id,
                "stderr_tail": _stderr_tail(workdir)}

    output = _read_output(workdir)
    if output is not None:
        if "result" in output:
            return SandboxOutcome(kind="result", result=output["result"])
        if "error" in output:
            return SandboxOutcome(kind="error", error=output["error"])
        if "oom" in output:
            report = evidence("oom")
            report.update(output["oom"])
            return SandboxOutcome(kind="oom", evidence=report)
    if returncode == OOM_EXIT_CODE:
        return SandboxOutcome(kind="oom", evidence=evidence("oom"))
    if timed_out:
        return SandboxOutcome(kind="timeout", evidence=evidence("timeout"))
    return SandboxOutcome(kind="crash", evidence=evidence("crash"))


# ----------------------------------------------------------------------
# Child side: rlimits, fault sites, execute, hand off
# ----------------------------------------------------------------------
def _apply_rlimits(limits: SandboxLimits) -> None:
    """Install the kernel-enforced budgets (POSIX only; no-op absent
    :mod:`resource`).  Called *after* the heavy imports, so the budget
    bounds growth beyond the interpreter + numpy baseline rather than
    preventing startup."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    if limits.memory_mb is not None:
        cap = int(limits.memory_mb * 1024 * 1024)
        try:
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        except (ValueError, OSError):  # pragma: no cover - tiny caps
            pass
    if limits.cpu_seconds is not None:
        soft = max(1, int(limits.cpu_seconds))
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 5))
        except (ValueError, OSError):  # pragma: no cover
            pass


def _install_child_faults(job_name: str, attempt: int) -> None:
    """Arm the env fault plan, decorrelated for this job attempt."""
    from ..faultplane import hooks
    from ..faultplane.plan import (ENV_STATS, FaultInjector,
                                   derive_job_plan, load_plan_from_env)

    plan = load_plan_from_env()
    if plan is None:
        return
    plan = derive_job_plan(plan, job_name, attempt)
    hooks.install(FaultInjector(plan,
                                stats_path=os.environ.get(ENV_STATS)))


def _start_child_telemetry(handoff: dict[str, Any] | None,
                           job: dict[str, Any]) -> tuple[Any, Any]:
    """Install the shard tracer described by the ``input.json`` handoff.

    Opens the child's root span (``job.sandbox``) with the *parent-side*
    ``job.execute`` span id as its explicit parent and the job's trace
    id, so the shard's whole tree re-roots correctly once the claiming
    worker absorbs it into the main trace.  Returns ``(None, None)``
    when no handoff came (tracing off in the service).
    """
    if not handoff or not handoff.get("path"):
        return None, None
    from ..telemetry import spans as telemetry

    tracer = telemetry.Tracer(handoff["path"],
                              prefix=str(handoff.get("prefix", "")),
                              meta={"kind": "sandbox",
                                    "job": job.get("id")})
    telemetry.install(tracer)
    span = tracer.begin("job.sandbox",
                        {"job": job.get("id"),
                         "attempt": job.get("attempt"),
                         "pid": os.getpid()},
                        parent=handoff.get("parent"),
                        trace=handoff.get("trace"))
    return tracer, span


def _stop_child_telemetry(tracer: Any, span: Any,
                          error: str | None = None) -> None:
    if tracer is None:
        return
    from ..telemetry import spans as telemetry

    try:
        if error is not None:
            span.attrs.setdefault("error", error)
        tracer.end(span)
        telemetry.uninstall()
        tracer.close()
    except Exception:
        pass  # telemetry must never change the child's exit protocol


def child_main(workdir: str) -> int:
    """Entry point of the worker subprocess (``-m repro.service.sandbox``).

    Protocol: read ``input.json``, apply rlimits, share the disk cache
    tier, visit the worker fault sites, execute, atomically write
    ``output.json``.  Exit 0 whenever an output was written (including
    clean ``error`` reports); :data:`OOM_EXIT_CODE` on MemoryError
    (best-effort evidence write first); any other death is attributed
    by the parent.
    """
    from .. import cache as analysis_cache
    from ..faultplane.hooks import fault_point
    from .workers import ExecutionDefaults, execute_job

    with open(os.path.join(workdir, INPUT_NAME), "r",
              encoding="utf-8") as handle:
        payload = json.load(handle)
    spec = payload["spec"]
    raw_defaults = dict(payload["defaults"])
    raw_defaults["algorithms"] = tuple(raw_defaults["algorithms"])
    defaults = ExecutionDefaults(**raw_defaults)
    limits = SandboxLimits.from_dict(payload.get("limits") or {})
    job = payload.get("job") or {}
    name = str(job.get("name", "inline"))
    attempt = int(job.get("attempt", 1))

    _apply_rlimits(limits)
    _install_child_faults(name, attempt)
    if payload.get("cache_dir"):
        analysis_cache.configure(payload["cache_dir"])

    output_path = os.path.join(workdir, OUTPUT_NAME)
    tracer, root_span = _start_child_telemetry(payload.get("telemetry"),
                                               job)
    try:
        fault_point("service.worker.execute", job=job.get("id"),
                    name=name, attempt=attempt)
        fault_point(f"service.worker.job.{name}", job=job.get("id"),
                    attempt=attempt)
        result = execute_job(spec, defaults)
    except MemoryError:
        # Drop the hog first so the evidence write itself can allocate.
        import gc

        gc.collect()
        _stop_child_telemetry(tracer, root_span, error="MemoryError")
        try:
            _write_json_atomic(output_path, {"oom": {
                "message": "worker MemoryError (memory budget "
                           f"{limits.memory_mb} MiB)"}})
        except (OSError, MemoryError):
            pass
        return OOM_EXIT_CODE
    except Exception as exc:
        _stop_child_telemetry(tracer, root_span,
                              error=type(exc).__name__)
        _write_json_atomic(output_path, {"error": {
            "type": type(exc).__name__, "message": str(exc)[:500]}})
        return 0
    _stop_child_telemetry(tracer, root_span)
    _write_json_atomic(output_path, {"result": result})
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(child_main(sys.argv[1]))
