"""The scenario matrix: corpus x fault model x solver config.

Each *cell* of the matrix is one corpus circuit run through the full
resilient Table I flow under one scenario -- a (fault model, solver
preset) pair.  A scenario maps to one :func:`repro.runtime.suite.run_suite`
invocation over the tier's circuits, so every cell inherits the
production execution substrate for free: per-circuit crash isolation,
retry/degradation ladders, manifest checkpointing with resume, the
parallel executor and the content-addressed analysis cache.

The per-cell *digest* is the suite's time-masked determinism digest
(:func:`repro.runtime.manifest.result_checksum`) scoped to one circuit
record: identical across serial and parallel runs, cold and warm
caches, resumed and fresh runs, and clean and transient-fault runs that
recovered through retries.  The digest table over all cells is the
repo's deepest regression surface -- a change that shifts *any*
result-determining quantity anywhere in the pipeline moves at least one
cell digest, and the committed golden table
(``corpus/small/matrix-golden.json``) turns that into a CI failure.

Fault models here are *SER fault models* (the simulated soft-error
depth: time frames and signature patterns), not to be confused with the
injected infrastructure faults of :mod:`repro.faultplane` -- those are
the orthogonal chaos axis whose whole point is to leave cell digests
unchanged.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .. import records
from ..errors import ManifestError, NetlistError
from ..runtime.manifest import RunManifest, result_checksum
from ..runtime.suite import SuiteConfig, SuiteResult, run_suite
from .families import corpus_circuit, tier_specs

MATRIX_FORMAT = "repro-matrix-digests"
MATRIX_VERSION = 1

#: Default name of the committed golden digest table for a tier.
GOLDEN_BASENAME = "matrix-golden.json"

#: Seed shared by every matrix scenario (circuit generation is pinned by
#: the tier specs; this seed drives observability patterns and guards).
MATRIX_SEED = 0


@dataclass(frozen=True)
class FaultModel:
    """One SER fault-model depth: the simulated soft-error statistics."""

    name: str
    n_frames: int
    n_patterns: int


@dataclass(frozen=True)
class SolverPreset:
    """One solver configuration under test."""

    name: str
    algorithms: tuple[str, ...]
    epsilon: float
    maximal_start: bool = False


@dataclass(frozen=True)
class Scenario:
    """A (fault model, solver preset) pair -- one matrix plane."""

    fault: FaultModel
    solver: SolverPreset

    @property
    def name(self) -> str:
        return f"{self.fault.name}-{self.solver.name}"


FAULT_MODELS: dict[str, FaultModel] = {
    m.name: m for m in (
        FaultModel("shallow", n_frames=2, n_patterns=64),
        FaultModel("deep", n_frames=4, n_patterns=128),
    )
}

SOLVER_PRESETS: dict[str, SolverPreset] = {
    p.name: p for p in (
        SolverPreset("both", algorithms=("minobs", "minobswin"),
                     epsilon=0.10),
        SolverPreset("tight", algorithms=("minobswin",), epsilon=0.05,
                     maximal_start=True),
    )
}

SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (
        Scenario(FAULT_MODELS["shallow"], SOLVER_PRESETS["both"]),
        Scenario(FAULT_MODELS["deep"], SOLVER_PRESETS["both"]),
        Scenario(FAULT_MODELS["shallow"], SOLVER_PRESETS["tight"]),
    )
}

#: Scenario names each tier runs.  The large tier has no matrix cells:
#: it exists for generation/emission scaling (ROADMAP item 1 owns
#: solving at that scale).
TIER_SCENARIOS: dict[str, tuple[str, ...]] = {
    "small": ("shallow-both", "deep-both", "shallow-tight"),
    "medium": ("shallow-both",),
    "large": (),
}


def scenario_config(tier: str, scenario: Scenario,
                    circuits: tuple[str, ...] | None = None,
                    workers: int = 1, cache: bool = False,
                    cache_dir: str | None = None,
                    max_retries: int = 1,
                    trace_path: str | None = None) -> SuiteConfig:
    """The :class:`SuiteConfig` executing one scenario over a tier.

    Guard knobs follow the golden-test sizing; resilience and execution
    knobs (workers, cache, retries) stay out of the fingerprint,
    so one scenario manifest resumes across any of them.
    """
    names = circuits if circuits is not None else \
        tuple(spec.name for spec in tier_specs(tier))
    return SuiteConfig(
        circuits=names,
        scale=None,
        seed=MATRIX_SEED,
        n_frames=scenario.fault.n_frames,
        n_patterns=scenario.fault.n_patterns,
        epsilon=scenario.solver.epsilon,
        algorithms=scenario.solver.algorithms,
        maximal_start=scenario.solver.maximal_start,
        max_retries=max_retries,
        guard=True, guard_cycles=8, guard_patterns=32,
        workers=workers, cache=cache, cache_dir=cache_dir,
        trace_path=trace_path)


def cell_digest(record: dict[str, Any]) -> str:
    """The time-masked digest of one completed circuit record.

    Scoped to the *result*: the Table I row and the report, minus the
    status chain and the failure history, masked by the same rules as
    the suite manifests' ``result_checksum``.  Recovery provenance is
    excluded on purpose -- a transient infrastructure fault retried
    into the same answer annotates the status (``obs=attempt2``) and
    records the failure, and must still digest identically to a clean
    run (the chaos-axis contract).  Anything that changes the *answer*
    moves the digest through the row and report values themselves.
    Statuses are reported separately in the digest table's
    ``statuses`` column, so a degradation is still visible there.
    """
    volatile = ("status", "failures")
    scoped: dict[str, Any] = {}
    row = record.get("row")
    if isinstance(row, dict):
        scoped["row"] = {key: value for key, value in row.items()
                         if key not in volatile}
    report = record.get("report")
    if isinstance(report, dict):
        scoped["report"] = {key: value for key, value in report.items()
                            if key not in volatile}
    return result_checksum({"completed": {"cell": scoped}})


def scenario_manifest_path(out_dir: str, tier: str, scenario: str) -> str:
    return os.path.join(out_dir, f"matrix-{tier}-{scenario}.json")


@dataclass
class MatrixResult:
    """Everything one matrix run produced."""

    tier: str
    #: ``"<scenario>/<circuit>" -> "sha256:<hex>"``.
    cells: dict[str, str]
    #: ``"<scenario>/<circuit>" -> row status`` (``"ok"`` or the
    #: degradation chain).
    statuses: dict[str, str]
    #: Scenario name -> suite result.
    suites: dict[str, SuiteResult]
    #: Scenario name -> checkpoint manifest path (when checkpointing).
    manifest_paths: dict[str, str]

    def digest_table(self) -> dict[str, Any]:
        """The serializable digest table (``repro-matrix-digests`` v1)."""
        payload: dict[str, Any] = {
            "format": MATRIX_FORMAT,
            "version": MATRIX_VERSION,
            "tier": self.tier,
            "cells": dict(sorted(self.cells.items())),
            "statuses": dict(sorted(self.statuses.items())),
        }
        return records.seal(payload)


def run_matrix(tier: str,
               out_dir: str | os.PathLike[str] | None = None,
               scenarios: tuple[str, ...] | None = None,
               circuits: tuple[str, ...] | None = None,
               workers: int = 1, cache: bool = False,
               cache_dir: str | None = None, max_retries: int = 1,
               trace_path: str | None = None,
               progress: Callable[[str], None] | None = None) -> MatrixResult:
    """Execute the scenario matrix for a tier.

    Parameters
    ----------
    out_dir:
        Checkpoint directory: each scenario keeps one run manifest at
        ``matrix-<tier>-<scenario>.json`` there, so a killed matrix run
        resumes exactly where it stopped (completed cells are loaded
        verbatim, never recomputed, never duplicated).  ``None``
        disables checkpointing.
    scenarios / circuits:
        Optional subsets; defaults are the tier's full scenario list
        and circuit roster.  Unknown names raise
        :class:`~repro.errors.NetlistError`.
    workers / cache / cache_dir / max_retries / trace_path:
        Passed through to the suite layer -- execution knobs only,
        digests are invariant to all of them.
    """
    chosen = scenarios if scenarios is not None else \
        TIER_SCENARIOS.get(tier)
    if chosen is None:
        tier_specs(tier)  # raises the canonical unknown-tier error
        chosen = ()
    unknown = [s for s in chosen if s not in SCENARIOS]
    if unknown:
        raise NetlistError(
            f"unknown matrix scenario(s) {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(SCENARIOS))})")
    if circuits is not None:
        known = {spec.name for spec in tier_specs(tier)}
        missing = [c for c in circuits if c not in known]
        if missing:
            raise NetlistError(
                f"tier {tier!r} has no circuit(s) "
                f"{', '.join(sorted(missing))}")

    if out_dir is not None:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)

    factory = functools.partial(corpus_circuit, tier)
    cells: dict[str, str] = {}
    statuses: dict[str, str] = {}
    suites: dict[str, SuiteResult] = {}
    manifest_paths: dict[str, str] = {}
    for scenario_name in chosen:
        scenario = SCENARIOS[scenario_name]
        scenario_trace = None
        if trace_path is not None:
            base, ext = os.path.splitext(trace_path)
            scenario_trace = f"{base}-{scenario_name}{ext or '.jsonl'}"
        config = scenario_config(tier, scenario, circuits=circuits,
                                 workers=workers, cache=cache,
                                 cache_dir=cache_dir,
                                 max_retries=max_retries,
                                 trace_path=scenario_trace)
        manifest_path = None
        if out_dir is not None:
            manifest_path = scenario_manifest_path(out_dir, tier,
                                                   scenario_name)
            manifest_paths[scenario_name] = manifest_path

        def note(line: str, _scenario: str = scenario_name) -> None:
            if progress is not None:
                progress(f"[{_scenario}] {line}")

        result = run_suite(config, manifest_path=manifest_path,
                           progress=note, circuit_factory=factory,
                           workers=workers)
        suites[scenario_name] = result
        for run in result.runs:
            key = f"{scenario_name}/{run.name}"
            cells[key] = cell_digest(run.to_record().to_dict())
            statuses[key] = run.status
    return MatrixResult(tier=tier, cells=cells, statuses=statuses,
                        suites=suites, manifest_paths=manifest_paths)


def cells_from_manifest(manifest_path: str | os.PathLike[str],
                        scenario: str) -> dict[str, str]:
    """Recover a scenario's cell digests from its checkpoint manifest."""
    manifest = RunManifest.load(manifest_path)
    return {f"{scenario}/{name}": cell_digest(record.to_dict())
            for name, record in manifest.completed.items()}


# ----------------------------------------------------------------------
# Digest tables
# ----------------------------------------------------------------------

def write_digest_table(table: dict[str, Any],
                       path: str | os.PathLike[str]) -> None:
    """Atomically write a digest table (stable bytes everywhere)."""
    records.atomic_write(path, records.dumps(table))


def load_digest_table(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read and integrity-check a digest table."""
    payload = records.load_record(
        path, fmt=MATRIX_FORMAT, versions=(MATRIX_VERSION,),
        error=ManifestError, what="matrix digest table",
        hint="regenerate it with 'repro-ser matrix'")
    if not isinstance(payload.get("cells"), dict):
        raise ManifestError(f"{os.fspath(path)!r} has no 'cells' object")
    return payload


def compare_digest_tables(actual: dict[str, Any],
                          golden: dict[str, Any]) -> list[str]:
    """Cell-level diff of two digest tables (empty = identical).

    Compares only the cells present in *golden* that the actual table
    claims to cover plus any extra/missing keys, so a subset run
    (``--circuits`` / ``--scenarios``) can still be checked against the
    full golden table by pre-filtering.
    """
    problems: list[str] = []
    actual_cells = actual.get("cells", {})
    golden_cells = golden.get("cells", {})
    for key in sorted(set(actual_cells) | set(golden_cells)):
        if key not in actual_cells:
            problems.append(f"{key}: missing from this run")
        elif key not in golden_cells:
            problems.append(f"{key}: not in the golden table")
        elif actual_cells[key] != golden_cells[key]:
            problems.append(
                f"{key}: digest {actual_cells[key]} differs from golden "
                f"{golden_cells[key]}")
    return problems
