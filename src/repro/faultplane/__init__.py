"""Deterministic fault-injection plane (see ``docs/algorithm.md`` Sec. 8).

Public surface:

* :mod:`repro.faultplane.hooks` -- the no-op-by-default hot-path hooks
  (``fault_point`` / ``filter_bytes`` / ``filter_labels``) instrumented
  modules call at their named sites;
* :class:`FaultPlan` / :class:`FaultSpec` / :class:`FaultInjector` -- a
  seedable, serializable description of what to break and the engine
  that executes it deterministically;
* :data:`SITES` -- the injection-site catalog plans are validated
  against;
* :mod:`repro.faultplane.chaos` -- the chaos harness (in-process
  differential runs, the one subprocess kill/restart loop -- also the
  service kill-loop's -- and the recovery scorecard).
"""

from .chaos import (ChaosScorecard, HarnessAttempt, HarnessResult,
                    build_plan, format_scorecard, mask_report_times,
                    oracle_check, restart_until_complete, run_chaos,
                    run_kill_chaos, strip_times, table1_argv, verify_run)
from .hooks import (active, fault_point, filter_bytes, filter_labels,
                    install, installed, uninstall)
from .plan import (ENV_PLAN, ENV_STATS, KILL_EXIT_CODE, FaultInjector,
                   FaultPlan, FaultSpec, InjectedIOError,
                   InjectedMemoryError, InjectedTransientError,
                   InjectionEvent, install_from_env)
from .sites import (FAULT_KINDS, FILTER_KINDS, SITES, VISIT_KINDS, Site,
                    check_plan, match_sites, sites_for_kind)

__all__ = [
    "ChaosScorecard", "HarnessAttempt", "HarnessResult", "build_plan",
    "format_scorecard", "mask_report_times", "oracle_check",
    "restart_until_complete", "run_chaos", "run_kill_chaos",
    "strip_times", "table1_argv", "verify_run",
    "active", "fault_point", "filter_bytes", "filter_labels", "install",
    "installed", "uninstall",
    "ENV_PLAN", "ENV_STATS", "KILL_EXIT_CODE", "FaultInjector",
    "FaultPlan", "FaultSpec", "InjectedIOError", "InjectedMemoryError",
    "InjectedTransientError", "InjectionEvent", "install_from_env",
    "FAULT_KINDS", "FILTER_KINDS", "SITES", "VISIT_KINDS", "Site",
    "check_plan", "match_sites", "sites_for_kind",
]
