"""Resilient execution runtime: deadlines, retries, degradation ladders,
crash-isolated suite runs with checkpoint/resume, and post-retime
verification guards.

Layering: :mod:`repro.core` and :mod:`repro.pipeline` stay importable
without this package (the solvers take plain ``deadline`` /
``should_stop`` arguments); everything here builds on top of them.
"""

from .deadline import Deadline
from .executor import (NON_RETRYABLE, Attempt, FailureRecord, Rung,
                       StageOutcome, run_ladder)
from .guards import GuardReport, default_flush_cycles, verify_retimed
from .manifest import (MANIFEST_FORMAT, MANIFEST_VERSION, CircuitRecord,
                       RunManifest)
from .suite import (AlgorithmRun, CircuitRun, SuiteConfig, SuiteResult,
                    optimize_resilient, run_suite)

__all__ = [
    "Deadline",
    "NON_RETRYABLE", "Attempt", "FailureRecord", "Rung", "StageOutcome",
    "run_ladder",
    "GuardReport", "default_flush_cycles", "verify_retimed",
    "MANIFEST_FORMAT", "MANIFEST_VERSION", "CircuitRecord", "RunManifest",
    "AlgorithmRun", "CircuitRun", "SuiteConfig", "SuiteResult",
    "optimize_resilient", "run_suite",
]
