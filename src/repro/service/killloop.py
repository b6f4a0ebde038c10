"""The service kill-loop: crash the service until the queue drains, then
prove nothing was lost, duplicated or silently wrong.

The harness seeds a queue directory with jobs offline, then repeatedly
launches ``repro-ser serve --drain-after-idle`` as a subprocess armed
(via ``REPRO_FAULT_PLAN``) with ``kill`` faults at ``service.persist``
-- every durable job-record write is a potential crash point, which
covers every lifecycle transition: admission persists, lease persists,
start/complete/fail persists, recovery's requeue persists.  Each launch
reseeds the plan (``seed + launch``) so restarts die at different
points instead of livelocking on one.

The launches run on the chaos harness's one restart loop,
:func:`repro.faultplane.chaos.restart_until_complete`: exit
:data:`~repro.faultplane.plan.KILL_EXIT_CODE` (injected kill) restarts
and lets startup recovery repair the queue, exit 0 (the queue drained
idle) stops, and anything else -- a real bug, a hung launch or an
exhausted launch budget -- becomes a violation.

Verification after the drain:

* **no lost jobs** -- every seeded job exists and is ``done``;
* **exactly-once completion** -- the execution journal holds at most
  one ``done`` per job, and no ``start`` after a ``done`` (a completed
  job was never re-executed);
* **digest parity** -- each job's result digest equals the clean
  in-process reference for the same spec
  (:func:`~repro.service.workers.execute_job` with no faults and no
  cache), i.e. crash recovery plus the warm shared cache changed
  *nothing* about the answer.

**Worker-kill mode** (``--mode worker``) turns the gun on individual
workers instead of the server: the service runs once, in process
isolation, while ``segfault`` faults at ``service.worker.execute``
SIGSEGV the sandboxed worker subprocesses mid-job.  The service itself
must survive every one of those deaths, classify them, and converge --
plus one deliberately **poison** job (an inline netlist named
``poison``, armed with an always-fire fault at the name-keyed site
``service.worker.job.poison``) that kills its worker on every attempt
and must land in ``quarantined`` with crash evidence after exactly its
crash budget, while the unrelated jobs complete with clean digests.

Run it directly (CI does, across several seeds)::

    PYTHONPATH=src python -m repro.service.killloop \\
        --circuits s13207 s15850.1 --scale 0.004 --seeds 0 1 2
    PYTHONPATH=src python -m repro.service.killloop --mode worker \\
        --circuits s27 s208.1 --seeds 0 1
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ExecutionError, JobStateError
from ..faultplane.chaos import cli_argv, restart_until_complete
from ..faultplane.plan import FaultPlan, FaultSpec
from .jobs import TERMINAL_STATES, load_job
from .queue import JobQueue, read_journal
from .workers import ExecutionDefaults, execute_job

#: The poison job's inline netlist (tiny but valid) and canonical name
#: -- the name keys the always-fire fault site
#: ``service.worker.job.poison``.
POISON_NAME = "poison"
POISON_NETLIST = ("INPUT(a)\nOUTPUT(y)\ns1 = DFF(g1)\n"
                  "g1 = NAND(a, s1)\ny = NOT(s1)\n")


@dataclass
class KillLoopResult:
    """Scorecard of one seeded kill-loop run."""

    seed: int
    mode: str = "server"
    launches: int = 0
    kills: int = 0
    jobs: int = 0
    requeues: int = 0
    #: Worker-kill mode: total worker-process deaths absorbed and jobs
    #: that ended ``quarantined`` (the poison job, and only it).
    worker_crashes: int = 0
    quarantined: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "mode": self.mode,
                "launches": self.launches,
                "kills": self.kills, "jobs": self.jobs,
                "requeues": self.requeues,
                "worker_crashes": self.worker_crashes,
                "quarantined": self.quarantined, "ok": self.ok,
                "violations": list(self.violations)}


def job_specs(circuits: list[str], scale: float, frames: int,
              patterns: int, seed: int) -> list[dict[str, Any]]:
    """Fully explicit specs (every knob pinned) so the service-side and
    reference-side executions agree field-for-field."""
    return [{"circuit": name, "scale": scale, "seed": seed,
             "frames": frames, "patterns": patterns}
            for name in circuits]


def seed_queue(root: str, specs: list[dict[str, Any]],
               max_requeues: int,
               max_crashes: int = 3) -> dict[str, dict[str, Any]]:
    """Offline-enqueue the jobs; returns ``{job id: spec}``."""
    queue = JobQueue(root, max_requeues=max_requeues,
                     max_crashes=max_crashes)
    return {queue.submit(spec).id: spec for spec in specs}


def reference_digests(specs: list[dict[str, Any]],
                      scale: float) -> dict[str, str]:
    """Clean in-process digests, keyed by circuit name.

    No injector, no cache: the plainest possible execution of each
    spec, the oracle every crash-recovered service result must match.
    """
    defaults = ExecutionDefaults(scale=scale)
    results = {}
    for spec in specs:
        result = execute_job(spec, defaults)
        results[result["name"]] = result["digest"]
    return results


def kill_plan(seed: int, kill_prob: float, trigger: int) -> FaultPlan:
    """Kills at a durable job-record write, with probability.

    ``trigger`` escalates with the launch number: the fault only
    becomes eligible on the Nth persist, so launch N is guaranteed to
    survive at least N-1 persists.  That makes convergence *monotone*:
    a job needs a few consecutive clean persists (claim -> start ->
    complete) to reach a terminal state, and a fixed trigger of 1 at
    high probability would tear that chain on every single launch --
    measured livelock, not a hypothetical.
    """
    return FaultPlan(seed=seed, faults=[
        FaultSpec(site="service.persist", kind="kill", trigger=trigger,
                  arms=1, probability=kill_prob)])


def worker_plan(seed: int, crash_prob: float) -> FaultPlan:
    """SIGSEGVs sandboxed workers; always kills the poison job's worker.

    Each sandbox child reinstalls this plan with a per-(job, attempt)
    derived seed (:func:`~repro.faultplane.plan.derive_job_plan`), so
    the ``service.worker.execute`` fault fires independently per
    attempt -- a job that crashed once is not doomed to crash forever.
    The poison fault needs no such decorrelation: probability 1.0 fires
    under every seed, which is the point.
    """
    return FaultPlan(seed=seed, faults=[
        FaultSpec(site="service.worker.execute", kind="segfault",
                  trigger=1, arms=1, probability=crash_prob),
        FaultSpec(site=f"service.worker.job.{POISON_NAME}",
                  kind="segfault", trigger=1, arms=1, probability=1.0)])


def serve_argv(root: str, *, pool: int, scale: float,
               max_requeues: int, isolation: str = "thread",
               max_crashes: int | None = None) -> list[str]:
    argv = cli_argv("serve", "--root", root, "--port", "0",
                    "--pool", str(pool), "--scale", str(scale),
                    "--max-requeues", str(max_requeues),
                    "--lease-seconds", "30", "--drain-after-idle",
                    "--idle-grace", "1.0", "--isolation", isolation)
    if max_crashes is not None:
        argv += ["--max-crashes", str(max_crashes)]
    return argv


def _progress(label: str, verbose: bool) -> Callable[[str], None] | None:
    """``-v``: one stderr line per launch, as ``repro-ser chaos -v``."""
    return (lambda line: print(f"[killloop {label}] {line}",
                               file=sys.stderr, flush=True)) \
        if verbose else None


def verify(root: str, seeded: dict[str, dict[str, Any]],
           references: dict[str, str], result: KillLoopResult,
           poison_ids: frozenset[str] = frozenset()) -> None:
    """Check the three invariants; appends violations to ``result``.

    Jobs in ``poison_ids`` invert the success criterion: they must end
    ``quarantined`` with their crash budget spent and crash evidence
    attached -- a poison job that *completed* (or requeued forever)
    is the violation.

    Reads the job records straight off disk (no
    :meth:`~repro.service.queue.JobQueue.recover`): the verifier must
    inspect the evidence, not repair it.
    """
    records = {}
    jobs_dir = os.path.join(root, "jobs")
    for entry in sorted(os.listdir(jobs_dir)):
        if entry.startswith("."):
            continue  # atomic-write temp debris; harmless by protocol
        if entry.endswith(".corrupt"):
            result.violations.append(
                f"torn job record survived the atomic-write protocol: "
                f"{entry}")
            continue
        if not entry.endswith(".json"):
            continue
        try:
            record = load_job(os.path.join(jobs_dir, entry))
        except JobStateError as exc:
            result.violations.append(f"unreadable job record: {exc}")
            continue
        records[record.id] = record

    for job_id, spec in seeded.items():
        record = records.get(job_id)
        if record is None:
            result.violations.append(f"job {job_id} was lost")
            continue
        result.requeues += record.requeues
        result.worker_crashes += record.crashes
        if record.state == "quarantined":
            result.quarantined += 1
        if job_id in poison_ids:
            if record.state != "quarantined":
                result.violations.append(
                    f"poison job {job_id} ended {record.state!r}, "
                    f"expected quarantined")
            elif record.crashes < record.max_crashes:
                result.violations.append(
                    f"poison job {job_id} quarantined after only "
                    f"{record.crashes} crashes (budget "
                    f"{record.max_crashes})")
            elif not record.crash_evidence:
                result.violations.append(
                    f"poison job {job_id} quarantined without crash "
                    f"evidence")
            continue
        if record.state != "done":
            result.violations.append(
                f"job {job_id} ({spec.get('circuit')}) ended "
                f"{record.state!r}, not done: {record.error}")
            continue
        name = record.result["name"]
        digest = record.result["digest"]
        expected = references.get(name)
        if digest != expected:
            result.violations.append(
                f"job {job_id} ({name}) digest {digest} != clean "
                f"reference {expected}")
    for job_id, record in records.items():
        if job_id not in seeded:
            result.violations.append(f"phantom job {job_id} appeared")
        if record.state not in TERMINAL_STATES:
            result.violations.append(
                f"job {job_id} left non-terminal ({record.state})")

    done_at: dict[str, int] = {}
    for index, event in enumerate(read_journal(root)):
        job_id, kind = str(event.get("job")), event.get("event")
        if kind == "done":
            if job_id in done_at:
                result.violations.append(
                    f"job {job_id} completed twice (journal)")
            done_at.setdefault(job_id, index)
        elif kind == "start" and job_id in done_at:
            result.violations.append(
                f"job {job_id} re-executed after completion (journal)")


def run_kill_loop(root: str, circuits: list[str], *, seed: int = 0,
                  scale: float = 0.004, frames: int = 2,
                  patterns: int = 64, pool: int = 2,
                  kill_prob: float = 0.35, max_launches: int = 40,
                  max_requeues: int = 100,
                  verbose: bool = False) -> KillLoopResult:
    """One seeded kill-loop over a fresh queue directory.

    ``max_requeues`` is deliberately huge: the production budget guards
    against requeue livelock, but here every crash is *injected* and
    ``max_launches`` already bounds the loop -- quarantining a job for
    surviving many induced crashes would fail the run for doing its job.
    """
    result = KillLoopResult(seed=seed)
    os.makedirs(root, exist_ok=True)
    specs = job_specs(circuits, scale, frames, patterns, seed)
    seeded = seed_queue(root, specs, max_requeues)
    result.jobs = len(seeded)
    references = reference_digests(specs, scale)

    argv = serve_argv(root, pool=pool, scale=scale,
                      max_requeues=max_requeues)
    plans = (kill_plan(seed + launch, kill_prob, trigger=launch)
             for launch in itertools.count(1))
    try:
        harness = restart_until_complete(
            argv, plans, root, max_restarts=max_launches - 1,
            progress=_progress(f"seed={seed}", verbose))
    except ExecutionError as exc:
        result.violations.append(str(exc))
        return result
    result.launches = len(harness.attempts)
    result.kills = harness.kills

    verify(root, seeded, references, result)
    return result


def run_worker_kill_loop(root: str, circuits: list[str], *, seed: int = 0,
                         scale: float = 0.004, frames: int = 2,
                         patterns: int = 64, pool: int = 2,
                         crash_prob: float = 0.35,
                         max_requeues: int = 100,
                         max_crashes: int = 100,
                         poison_budget: int = 3,
                         verbose: bool = False) -> KillLoopResult:
    """One seeded worker-kill run: one launch, many worker deaths.

    The service runs *once* in process isolation; injected ``segfault``
    faults SIGSEGV its sandboxed worker subprocesses, never the server.
    Legitimate jobs carry an effectively unlimited crash budget
    (``max_crashes``) -- every crash here is induced, so quarantining a
    legitimate job for surviving them would fail the run for doing its
    job -- while the seeded poison job carries the *production* budget
    (``poison_budget``) and must spend it and land in ``quarantined``.
    """
    result = KillLoopResult(seed=seed, mode="worker")
    os.makedirs(root, exist_ok=True)
    specs = job_specs(circuits, scale, frames, patterns, seed)
    seeded = seed_queue(root, specs, max_requeues,
                        max_crashes=max_crashes)
    poison_spec = {"netlist": POISON_NETLIST, "name": POISON_NAME,
                   "frames": frames, "patterns": min(patterns, 8),
                   "seed": seed}
    poison_queue = JobQueue(root, max_requeues=max_requeues,
                            max_crashes=poison_budget)
    poison_id = poison_queue.submit(poison_spec).id
    seeded[poison_id] = poison_spec
    result.jobs = len(seeded)
    references = reference_digests(specs, scale)

    argv = serve_argv(root, pool=pool, scale=scale,
                      max_requeues=max_requeues, isolation="process",
                      max_crashes=max_crashes)
    try:
        # No restarts: any non-zero exit, the kill code included, is
        # exactly the containment failure this mode exists to catch.
        harness = restart_until_complete(
            argv, [worker_plan(seed, crash_prob)], root, max_restarts=0,
            progress=_progress(f"seed={seed} mode=worker", verbose))
    except ExecutionError as exc:
        result.violations.append(
            f"service failed (worker faults must not kill the server): "
            f"{exc}")
        return result
    result.launches = len(harness.attempts)

    verify(root, seeded, references, result,
           poison_ids=frozenset({poison_id}))
    result.kills = result.worker_crashes
    if result.worker_crashes < poison_budget:
        result.violations.append(
            f"only {result.worker_crashes} worker crashes recorded; the "
            f"poison job alone should have caused {poison_budget}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="service kill-loop chaos harness")
    parser.add_argument("--mode", choices=("server", "worker"),
                        default="server",
                        help="server: SIGKILL the whole service at "
                             "persist points across restarts; worker: "
                             "one launch in process isolation, SIGSEGV "
                             "individual sandboxed workers + a poison "
                             "job that must be quarantined")
    parser.add_argument("--circuits", nargs="+",
                        default=["s13207", "s15850.1"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--scale", type=float, default=0.004)
    parser.add_argument("--frames", type=int, default=2)
    parser.add_argument("--patterns", type=int, default=64)
    parser.add_argument("--pool", type=int, default=2)
    parser.add_argument("--kill-prob", type=float, default=0.35)
    parser.add_argument("--crash-prob", type=float, default=0.35,
                        help="worker mode: per-attempt probability a "
                             "sandboxed worker is SIGSEGVed")
    parser.add_argument("--poison-budget", type=int, default=3,
                        help="worker mode: the poison job's crash "
                             "budget (quarantined after this many)")
    parser.add_argument("--max-launches", type=int, default=40)
    parser.add_argument("--workdir", default=None,
                        help="parent of the per-seed queue dirs "
                             "(default: a fresh temp dir)")
    parser.add_argument("--json", default=None,
                        help="write the scorecards here as JSON")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    workdir = args.workdir
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-killloop-")
    print(f"kill-loop working in {workdir}", file=sys.stderr)

    cards = []
    for seed in args.seeds:
        started = time.monotonic()
        if args.mode == "worker":
            card = run_worker_kill_loop(
                os.path.join(workdir, f"seed-{seed}"), args.circuits,
                seed=seed, scale=args.scale, frames=args.frames,
                patterns=args.patterns, pool=args.pool,
                crash_prob=args.crash_prob,
                poison_budget=args.poison_budget,
                verbose=args.verbose)
        else:
            card = run_kill_loop(
                os.path.join(workdir, f"seed-{seed}"), args.circuits,
                seed=seed, scale=args.scale, frames=args.frames,
                patterns=args.patterns, pool=args.pool,
                kill_prob=args.kill_prob,
                max_launches=args.max_launches,
                verbose=args.verbose)
        cards.append(card)
        status = "ok" if card.ok else "FAIL"
        extra = (f" worker_crashes={card.worker_crashes} "
                 f"quarantined={card.quarantined}"
                 if card.mode == "worker" else "")
        print(f"seed {seed} [{card.mode}]: {status}  "
              f"launches={card.launches} kills={card.kills} "
              f"requeues={card.requeues} jobs={card.jobs}{extra} "
              f"({time.monotonic() - started:.1f}s)")
        for violation in card.violations:
            print(f"  violation: {violation}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([c.to_dict() for c in cards], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    return 0 if all(card.ok for card in cards) else 1


if __name__ == "__main__":
    sys.exit(main())
