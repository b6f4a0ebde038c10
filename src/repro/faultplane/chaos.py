"""The chaos harness: run the Table I suite under a fault plan and prove
the recovery runtime recovers.

Three layers:

* :func:`run_chaos` -- in-process chaos: install a
  :class:`~repro.faultplane.plan.FaultInjector`, run
  :func:`repro.runtime.suite.run_suite`, then run the *same* configuration
  clean and differentially verify that recovery never produced a wrong
  answer (see :func:`verify_run` / :func:`oracle_check`).
* :func:`restart_until_complete` -- the crash-consistency harness: run the
  ``table1`` CLI in a child process armed (via ``REPRO_FAULT_PLAN``) with
  ``kill`` faults, restart with ``--resume`` until it completes, and
  record for every attempt which circuits were computed vs resumed and
  whether the on-disk manifest stayed loadable (it must: the atomic
  fsync+rename protocol guarantees a never-torn checkpoint).
* :class:`ChaosScorecard` -- the recovery scorecard: faults injected /
  retried / degraded / quarantined / gave-up / wrong-answer counts, which
  the ``repro-ser chaos`` subcommand prints and CI archives.

"Recovered" must never mean "silently wrong": a chaos run *fails* (the
scorecard reports ``wrong_answers > 0``) if any row with status ``ok``
differs from the clean reference, any ``identity``-rung outcome differs
from the original circuit's row, any reported retiming violates the
Problem 1 constraint system it claims to satisfy, or (small circuits)
any reported objective beats the brute-force oracle.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ExecutionError, ManifestError
from . import hooks
from .plan import (ENV_PLAN, ENV_STATS, KILL_EXIT_CODE, FaultInjector,
                   FaultPlan, FaultSpec)
from .sites import SITES, check_plan, match_sites

#: Fault kinds a recovery run must survive without a wrong answer (the
#: ``corrupt-labels`` kind is the negative control: it manufactures wrong
#: answers to prove the detection machinery catches them).
RECOVERABLE_KINDS = ("transient", "deadline", "memory", "oserror",
                    "torn", "garbage")

#: Wall-clock row fields -- the only nondeterministic report columns.
TIME_FIELDS = ("ref_time", "new_time")

_TIME_RE = re.compile(r"\d+\.\d\d(?=\s|$)")


def build_plan(seed: int = 0, sites: list[str] | None = None,
               kinds: list[str] | None = None, trigger: int = 1,
               arms: int = 1, probability: float = 1.0,
               kill_prob: float = 0.0) -> FaultPlan:
    """Assemble a plan: one spec per (site, representative kind).

    ``sites`` are catalog names or globs (default: every site);
    ``kinds`` restricts the fault kinds used (default: every
    recoverable kind each site lists).  ``kill_prob > 0`` additionally
    arms every ``kill``-capable site with that firing probability
    (subprocess harness mode).
    """
    wanted = sorted({name for pattern in (sites or ["*"])
                     for name in match_sites(pattern)})
    specs: list[FaultSpec] = []
    for name in wanted:
        for kind in SITES[name].kinds:
            if kind == "kill":
                continue
            if kinds is not None and kind not in kinds:
                continue
            if kinds is None and kind not in RECOVERABLE_KINDS:
                continue
            specs.append(FaultSpec(site=name, kind=kind, trigger=trigger,
                                   arms=arms, probability=probability))
    if kill_prob > 0.0:
        for name in wanted:
            if "kill" in SITES[name].kinds:
                specs.append(FaultSpec(site=name, kind="kill", trigger=1,
                                       arms=-1, probability=kill_prob))
    plan = FaultPlan(seed=seed, faults=specs)
    check_plan(plan)
    return plan


# ----------------------------------------------------------------------
# Differential verification
# ----------------------------------------------------------------------
def strip_times(row: dict[str, Any]) -> dict[str, Any]:
    """A row minus its wall-clock columns (the only nondeterminism)."""
    return {key: value for key, value in row.items()
            if key not in TIME_FIELDS}


def mask_report_times(report: str) -> str:
    """Blank the ``t_ref``/``t_new`` columns of a formatted report."""
    return _TIME_RE.sub("T", report)


def labels_from_status(status: str,
                       algorithms: tuple[str, ...]) -> dict[str, str]:
    """Final ladder rung per algorithm, parsed from a row status."""
    labels = {algorithm: algorithm for algorithm in algorithms}
    for part in status.split(";"):
        if "=" in part:
            key, value = part.split("=", 1)
            if key in labels:
                labels[key] = value
    return labels


def verify_run(run, reference, algorithms: tuple[str, ...]) -> list[str]:
    """Row-level wrongness checks for one chaos-run circuit.

    * status ``ok`` claims full recovery: the row must equal the clean
      reference row (wall-clock columns excluded);
    * an ``identity`` final rung claims "original circuit reported
      unchanged": its columns must equal the original's.

    ``failed:*`` rows are clearly-labeled losses, not wrong answers.
    """
    issues: list[str] = []
    if run.status.startswith("failed:"):
        return issues
    if run.status == "ok":
        if strip_times(run.row) != strip_times(reference.row):
            issues.append(
                f"{run.name}: status 'ok' but the row differs from the "
                f"clean reference run")
        return issues
    labels = labels_from_status(run.status, algorithms)
    for algorithm, alias in (("minobs", "ref"), ("minobswin", "new")):
        if algorithm not in algorithms:
            continue
        if labels[algorithm] != "identity":
            continue
        if run.row.get(f"{alias}_ser") != run.row.get("ser") or \
                run.row.get(f"{alias}_ff") != run.row.get("FF"):
            issues.append(
                f"{run.name}/{algorithm}: identity rung must reproduce "
                f"the original circuit's columns")
    return issues


def oracle_check(run, circuit, n_patterns: int,
                 algorithms: tuple[str, ...],
                 max_points: int = 300_000,
                 ) -> tuple[int, int, list[str]]:
    """Cross-check reported retimings against the small-circuit oracle.

    For every non-identity outcome: the reported labels must satisfy the
    constraint system they claim (P0 ∧ P1′, plus P2′ for minobswin
    rungs), and on circuits small enough for
    :func:`repro.core.oracle.brute_force_optimum` the reported objective
    must not *beat* the exhaustive optimum over the decrease-reachable
    box (an impossibly good answer is a corrupted one).

    Returns ``(checked, skipped, issues)``; circuits too large for the
    brute-force oracle count as skipped, never as wrong.
    """
    from ..core.constraints import check_constraints
    from ..core.oracle import brute_force_optimum
    from ..graph.retiming_graph import RetimingGraph
    from ..pipeline import build_problem

    if run.result is None:
        return 0, 1, []
    checked = skipped = 0
    issues: list[str] = []
    graph = RetimingGraph.from_circuit(circuit)
    init = run.result.init
    problem = build_problem(graph, init, run.result.obs, n_patterns,
                            circuit.library.setup_time,
                            circuit.library.hold_time)
    status = "" if run.status == "ok" else run.status
    labels = labels_from_status(status, algorithms)
    for algorithm, outcome in run.result.outcomes.items():
        label = labels.get(algorithm, algorithm)
        if label == "identity":
            continue
        r = outcome.result.r
        skip_p2 = label.startswith("minobs") \
            and not label.startswith("minobswin")
        violation = check_constraints(problem, r, skip_p2=skip_p2)
        if violation is not None:
            issues.append(
                f"{run.name}/{algorithm}: reported retiming ({label}) "
                f"violates {violation.kind}: {violation.note}")
            checked += 1
            continue
        radius = int(max(2, (init.r0 - r).max()))
        try:
            _, optimum = brute_force_optimum(
                problem, base=init.r0, radius=radius,
                decreases_only=True, skip_p2=skip_p2,
                max_points=max_points)
        except MemoryError:
            skipped += 1
            continue
        checked += 1
        objective = int(problem.objective(r))
        if objective > optimum:
            issues.append(
                f"{run.name}/{algorithm}: reported objective "
                f"{objective} beats the brute-force optimum {optimum} "
                f"-- the result is corrupted")
    return checked, skipped, issues


# ----------------------------------------------------------------------
# Scorecard
# ----------------------------------------------------------------------
@dataclass
class ChaosScorecard:
    """The recovery scorecard of one chaos run."""

    seed: int
    injected: int = 0
    injected_by_site: dict[str, int] = field(default_factory=dict)
    retried: int = 0
    degraded: int = 0
    gave_up: int = 0
    partial_results: int = 0
    quarantined: int = 0
    rows_total: int = 0
    rows_ok: int = 0
    rows_degraded: int = 0
    rows_failed: int = 0
    rows_resumed: int = 0
    kills: int = 0
    restarts: int = 0
    oracle_checked: int = 0
    oracle_skipped: int = 0
    wrong_answers: int = 0
    wrong_details: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro-chaos-scorecard", "version": 1,
            "seed": self.seed, "injected": self.injected,
            "injected_by_site": dict(sorted(
                self.injected_by_site.items())),
            "retried": self.retried, "degraded": self.degraded,
            "gave_up": self.gave_up,
            "partial_results": self.partial_results,
            "quarantined": self.quarantined,
            "rows": {"total": self.rows_total, "ok": self.rows_ok,
                     "degraded": self.rows_degraded,
                     "failed": self.rows_failed,
                     "resumed": self.rows_resumed},
            "kills": self.kills, "restarts": self.restarts,
            "oracle": {"checked": self.oracle_checked,
                       "skipped": self.oracle_skipped},
            "wrong_answers": self.wrong_answers,
            "wrong_details": list(self.wrong_details),
        }

    def tally_failures(self, failures) -> None:
        for record in failures:
            if record.action == "retry":
                self.retried += 1
            elif record.action == "degrade":
                self.degraded += 1
            elif record.action == "gave-up":
                self.gave_up += 1
            elif record.action == "partial-result":
                self.partial_results += 1
            if record.error == "VerificationError":
                self.quarantined += 1

    def tally_rows(self, runs) -> None:
        self.rows_total += len(runs)
        for run in runs:
            if run.status == "ok":
                self.rows_ok += 1
            elif run.status.startswith("failed:"):
                self.rows_failed += 1
            else:
                self.rows_degraded += 1
            if getattr(run, "resumed", False):
                self.rows_resumed += 1

    def tally_stats(self, stats: dict[str, Any]) -> None:
        self.injected += int(stats.get("injected", 0))
        for key, count in stats.get("by_site", {}).items():
            self.injected_by_site[key] = \
                self.injected_by_site.get(key, 0) + int(count)
            if key.endswith("/kill"):
                self.kills += int(count)


def format_scorecard(card: ChaosScorecard) -> str:
    lines = [f"chaos scorecard (fault seed {card.seed})"]
    top = sorted(card.injected_by_site.items(),
                 key=lambda item: (-item[1], item[0]))
    where = ", ".join(f"{site} x{count}" for site, count in top[:6])
    lines.append(f"  faults injected : {card.injected}"
                 + (f"  ({where})" if where else ""))
    lines.append(f"  retried         : {card.retried}")
    lines.append(f"  degraded        : {card.degraded}")
    lines.append(f"  quarantined     : {card.quarantined}")
    lines.append(f"  gave up         : {card.gave_up}")
    lines.append(f"  partial results : {card.partial_results}")
    lines.append(f"  rows            : {card.rows_total} total, "
                 f"{card.rows_ok} ok, {card.rows_degraded} degraded, "
                 f"{card.rows_failed} failed, "
                 f"{card.rows_resumed} resumed")
    if card.kills or card.restarts:
        lines.append(f"  kills/restarts  : {card.kills} kills, "
                     f"{card.restarts} restarts")
    lines.append(f"  oracle          : {card.oracle_checked} checked, "
                 f"{card.oracle_skipped} skipped")
    lines.append(f"  wrong answers   : {card.wrong_answers}")
    for detail in card.wrong_details:
        lines.append(f"    !! {detail}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# In-process chaos
# ----------------------------------------------------------------------
def run_chaos(config, plan: FaultPlan,
              circuit_factory: Callable[[str], Any] | None = None,
              manifest_path: str | None = None, verify: bool = True,
              oracle: bool = False,
              progress: Callable[[str], None] | None = None):
    """Run a suite under ``plan``, verify recovery, build the scorecard.

    Returns ``(SuiteResult, ChaosScorecard)``.  With ``verify`` the same
    configuration is re-run clean (no faults) as the differential
    reference; with ``oracle`` every outcome is additionally
    cross-checked against the small-circuit brute-force oracle
    (``circuit_factory`` circuits must be oracle-scale).
    """
    from ..runtime.suite import run_suite

    check_plan(plan)
    injector = FaultInjector(plan)
    with hooks.installed(injector):
        suite = run_suite(config, manifest_path=manifest_path,
                          progress=progress,
                          circuit_factory=circuit_factory)

    card = ChaosScorecard(seed=plan.seed)
    card.tally_stats(injector.stats())
    for stats in suite.fault_stats:
        # workers > 1: each shard worker ran its own derived injector.
        card.tally_stats(stats)
    card.tally_rows(suite.runs)
    card.tally_failures(suite.failures)

    if verify:
        # The clean reference must not trace: a second pass appending to
        # the same trace file would duplicate every span of the chaos
        # run it is meant to verify.
        from dataclasses import replace

        reference = run_suite(replace(config, trace_path=None),
                              circuit_factory=circuit_factory)
        for run, ref in zip(suite.runs, reference.runs):
            issues = verify_run(run, ref, config.algorithms)
            card.wrong_details.extend(issues)
    if oracle:
        if circuit_factory is None:
            from ..circuits.suites import table1_circuit

            def circuit_factory(name, _config=config):
                return table1_circuit(name, scale=_config.scale,
                                      seed=_config.seed)
        for run in suite.runs:
            if run.status.startswith("failed:"):
                continue
            checked, skipped, issues = oracle_check(
                run, circuit_factory(run.name), config.n_patterns,
                config.algorithms)
            card.oracle_checked += checked
            card.oracle_skipped += skipped
            card.wrong_details.extend(issues)
    card.wrong_answers = len(card.wrong_details)
    return suite, card


# ----------------------------------------------------------------------
# Crash-consistency harness (subprocess kill loop)
# ----------------------------------------------------------------------
@dataclass
class HarnessAttempt:
    """One child-process run of the kill loop."""

    exit_code: int
    computed: list[str]
    resumed: list[str]
    manifest_loadable: bool
    completed_after: set[str]
    double_ran: list[str]
    stdout: str = ""
    stderr: str = ""


@dataclass
class HarnessResult:
    """Everything the kill loop observed."""

    attempts: list[HarnessAttempt]
    stdout: str  # final (successful) report
    stats: list[dict[str, Any]]

    @property
    def kills(self) -> int:
        return sum(1 for a in self.attempts
                   if a.exit_code == KILL_EXIT_CODE)

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def double_runs(self) -> list[str]:
        return [name for a in self.attempts for name in a.double_ran]

    @property
    def torn_manifests(self) -> int:
        return sum(1 for a in self.attempts if not a.manifest_loadable)


#: A freshly computed circuit's ``--verbose`` progress line
#: (``"<name>: <status> (1.23s)"``).
_COMPUTED_RE = re.compile(r"^(?P<name>\S+): \S.*\(\d+\.\d+s\)$")
#: A checkpoint-skipped circuit's progress line.
_RESUMED_RE = re.compile(r"^(?P<name>\S+): resumed from manifest")


def table1_argv(circuits: list[str], manifest_path: str, *,
                scale: float, seed: int = 0, frames: int = 15,
                patterns: int = 256, workers: int = 1,
                extra: list[str] | None = None) -> list[str]:
    """CLI argv for one resumable ``table1`` child run."""
    argv = ["table1", *circuits, "--scale", repr(scale),
            "--seed", str(seed), "--frames", str(frames),
            "--patterns", str(patterns), "--resume", manifest_path,
            "--verbose"]
    if workers > 1:
        argv.extend(["--workers", str(workers)])
    if extra:
        argv.extend(extra)
    return argv


def restart_until_complete(argv: list[str], plan: FaultPlan,
                           manifest_path: str, workdir: str,
                           max_restarts: int = 40,
                           reseed_per_attempt: bool = True,
                           progress: Callable[[str], None] | None = None,
                           ) -> HarnessResult:
    """Run ``repro.cli`` with ``argv`` in a kill loop until it exits 0.

    Each attempt arms the child (via ``REPRO_FAULT_PLAN``) with ``plan``;
    with ``reseed_per_attempt`` attempt *i* uses ``plan.seed + i`` so
    probabilistic kills cannot pin the run in a livelock while staying
    fully reproducible from the base seed.  After every attempt the
    on-disk manifest is re-loaded (it must never be torn) and the
    progress log is diffed against the previously completed set (a
    checkpointed circuit must never be computed again).
    """
    os.makedirs(workdir, exist_ok=True)
    stats_path = os.path.join(workdir, "fault-stats.jsonl")
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    attempts: list[HarnessAttempt] = []
    completed: set[str] = set()
    final_stdout = ""
    fruitless = 0
    for attempt_index in range(max_restarts + 1):
        attempt_plan = FaultPlan(
            seed=plan.seed + (attempt_index if reseed_per_attempt else 0),
            faults=list(plan.faults))
        env = dict(os.environ)
        env[ENV_PLAN] = attempt_plan.to_json()
        env[ENV_STATS] = stats_path
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, env=env, cwd=workdir)
        computed: list[str] = []
        resumed: list[str] = []
        for line in proc.stderr.splitlines():
            line = line.strip()
            if line.startswith("warning:"):
                continue
            match = _RESUMED_RE.match(line)
            if match is not None:
                resumed.append(match.group("name"))
                continue
            match = _COMPUTED_RE.match(line)
            if match is not None:
                computed.append(match.group("name"))
        loadable = True
        completed_after: set[str] = set(completed)
        if os.path.exists(manifest_path):
            from ..runtime.manifest import RunManifest

            try:
                manifest = RunManifest.load(manifest_path)
                completed_after = set(manifest.completed)
            except ManifestError:
                loadable = False
        double_ran = sorted(set(computed) & completed)
        attempts.append(HarnessAttempt(
            exit_code=proc.returncode, computed=computed, resumed=resumed,
            manifest_loadable=loadable, completed_after=completed_after,
            double_ran=double_ran, stdout=proc.stdout,
            stderr=proc.stderr))
        completed = completed_after
        if progress is not None:
            progress(f"attempt {attempt_index}: exit {proc.returncode}, "
                     f"computed {len(computed)}, resumed {len(resumed)}, "
                     f"{len(completed)} checkpointed")
        if proc.returncode == 0:
            final_stdout = proc.stdout
            break
        # Fail fast on deterministic livelock: an ordinary (non-kill)
        # failure that made no checkpoint progress will repeat forever.
        progressed = len(completed) > len(
            attempts[-2].completed_after) if len(attempts) > 1 else \
            bool(completed)
        if proc.returncode != KILL_EXIT_CODE and not progressed:
            fruitless += 1
            if fruitless >= 3:
                tail = "\n".join(proc.stderr.splitlines()[-5:])
                raise ExecutionError(
                    f"chaos child failed {fruitless} consecutive times "
                    f"(exit {proc.returncode}) without progress; the "
                    f"fault plan is not survivable. Last stderr:\n{tail}")
        else:
            fruitless = 0
    else:
        raise ExecutionError(
            f"chaos kill loop did not complete within {max_restarts} "
            f"restarts (fault seed {plan.seed}; lower --kill-prob or "
            f"raise --max-restarts)")
    stats: list[dict[str, Any]] = []
    if os.path.exists(stats_path):
        with open(stats_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    try:
                        stats.append(json.loads(line))
                    except json.JSONDecodeError:
                        pass  # a kill can tear the advisory stats line
    return HarnessResult(attempts=attempts, stdout=final_stdout,
                         stats=stats)


def run_kill_chaos(config, plan: FaultPlan, workdir: str,
                   max_restarts: int = 40, verify: bool = True,
                   progress: Callable[[str], None] | None = None):
    """Full kill-loop chaos on a suite config; returns
    ``(HarnessResult, ChaosScorecard)``.

    Runs the resumable ``table1`` CLI under ``plan`` in the restart
    harness, then builds the scorecard from the stats log, the final
    manifest and (with ``verify``) a clean in-process reference run.
    Torn manifests and double-run circuits are wrong answers: they mean
    the checkpoint protocol lied.
    """
    from ..runtime.manifest import RunManifest
    from ..runtime.suite import CircuitRun, run_suite

    manifest_path = os.path.join(workdir, "chaos-manifest.json")
    argv = table1_argv(list(config.circuits), manifest_path,
                       scale=config.scale, seed=config.seed,
                       frames=config.n_frames, patterns=config.n_patterns,
                       workers=config.workers)
    harness = restart_until_complete(argv, plan, manifest_path, workdir,
                                     max_restarts=max_restarts,
                                     progress=progress)
    card = ChaosScorecard(seed=plan.seed)
    for entry in harness.stats:
        card.tally_stats(entry)
    card.kills = max(card.kills, harness.kills)
    card.restarts = harness.restarts

    manifest = RunManifest.load(manifest_path)
    runs = [CircuitRun.from_record(manifest.completed[name])
            for name in config.circuits if name in manifest.completed]
    for run in runs:
        run.resumed = False  # "resumed" here means skipped mid-harness
    card.tally_rows(runs)
    card.rows_resumed = sum(len(a.resumed) for a in harness.attempts)
    for run in runs:
        card.tally_failures(run.failures)

    for name in harness.double_runs:
        card.wrong_details.append(
            f"{name}: computed again after being checkpointed")
    if harness.torn_manifests:
        card.wrong_details.append(
            f"manifest was unreadable after {harness.torn_manifests} "
            f"attempt(s) -- the checkpoint tore")
    if len(runs) != len(config.circuits):
        missing = [name for name in config.circuits
                   if name not in manifest.completed]
        card.wrong_details.append(
            f"final manifest is missing circuits: {', '.join(missing)}")
    if verify:
        from dataclasses import replace

        # Clean reference: no faults and no tracing (see run_chaos).
        reference = run_suite(replace(config, trace_path=None))
        by_name = {run.name: run for run in reference.runs}
        for run in runs:
            card.wrong_details.extend(
                verify_run(run, by_name[run.name], config.algorithms))
    card.wrong_answers = len(card.wrong_details)
    return harness, card
