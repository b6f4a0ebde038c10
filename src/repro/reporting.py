"""Machine-readable experiment reporting (JSON export/import, Table I AVG).

The pipeline's :class:`~repro.pipeline.PipelineResult` carries live
objects (circuits, numpy arrays); this module flattens results to plain
JSON-serializable dictionaries so experiment sweeps can be archived,
diffed, and re-plotted without re-running the flow, and loads them back
for comparison.  :func:`summarize` is the one place the Table I
averages are computed from those flattened reports.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence
from typing import Any

from ._util import percent
from .errors import AnalysisError
from .pipeline import PipelineResult


def result_to_dict(result: PipelineResult,
                   include_labels: bool = False) -> dict[str, Any]:
    """Flatten a pipeline result into JSON-serializable primitives.

    ``include_labels=True`` additionally stores each algorithm's raw
    retiming label vector (enough to re-apply the retiming to the
    original netlist with :func:`repro.retime.apply.apply_retiming`).
    """
    out: dict[str, Any] = {
        "circuit": result.name,
        "vertices": result.vertices,
        "edges": result.edges,
        "registers": result.registers,
        "phi": float(result.phi),
        "rmin": float(result.init.rmin),
        "phi_base": float(result.init.phi_base),
        "used_fallback": bool(result.init.used_fallback),
        "obs_runtime": float(result.obs_runtime),
        "ser_original": {
            "total": result.ser_original.total,
            "comb": result.ser_original.comb,
            "reg": result.ser_original.reg,
            "no_timing": result.ser_original.total_no_timing,
        },
        "algorithms": {},
    }
    for name, outcome in result.outcomes.items():
        entry: dict[str, Any] = {
            "registers": outcome.registers,
            "ser_total": outcome.ser.total,
            "ser_comb": outcome.ser.comb,
            "ser_reg": outcome.ser.reg,
            "objective": int(outcome.result.objective),
            "commits": int(outcome.result.commits),
            "iterations": int(outcome.result.iterations),
            "passes": int(outcome.result.passes),
            "constraints": int(outcome.result.constraints_added),
            "blocked": int(outcome.result.blocked),
            "runtime": float(outcome.result.runtime),
        }
        if include_labels:
            entry["retiming"] = [int(x) for x in outcome.result.r]
        out["algorithms"][name] = entry
    return out


def save_results(results: Sequence[PipelineResult | Mapping[str, Any]],
                 path: str | os.PathLike[str],
                 include_labels: bool = False) -> None:
    """Write a list of pipeline results as a JSON report.

    Accepts live :class:`~repro.pipeline.PipelineResult` objects or
    already-flattened mappings (e.g. reports resumed from a
    :class:`~repro.runtime.manifest.RunManifest`, for which the live
    objects no longer exist); mappings are stored verbatim.
    """
    payload = {
        "format": "repro-results",
        "version": 1,
        "results": [dict(r) if isinstance(r, Mapping)
                    else result_to_dict(r, include_labels)
                    for r in results],
    }
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_results(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Load a JSON report written by :func:`save_results`."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, Mapping) or \
            payload.get("format") != "repro-results":
        raise AnalysisError(f"{path!s} is not a repro results file")
    return list(payload["results"])


def summarize(reports: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """The Table I averages of paper Sec. VI over flattened reports.

    Failure reports (no ``algorithms``) are skipped, so a circuit that
    failed does not move an average.  Keys: ``rows`` (reports used);
    the mean ``dser_*`` / ``dff_*`` changes in percent against the
    original circuit; ``ser_ratio`` (mean SER_MinObs / SER_MinObsWin in
    percent) with its ``ser_ratio_min`` / ``ser_ratio_max``; and
    ``time_ratio``, total MinObsWin over total MinObs solve time, which
    ``time_ratio_no_fallback`` repeats over the ``rows_no_fallback``
    rows whose initialization did not fall back -- the paper's ratio
    "excluding immediate-exit rows".  A mean with no values is omitted.
    """
    used = [r for r in reports if "algorithms" in r]
    d_ref, d_new, ratio, ff_ref, ff_new = [], [], [], [], []
    times: list[tuple[float, float]] = []  # (MinObsWin, MinObs) per row
    no_fallback: list[tuple[float, float]] = []
    for r in used:
        algs = r["algorithms"]
        base = r["ser_original"]["total"]
        ref, new = algs.get("minobs"), algs.get("minobswin")
        if ref is not None:
            d_ref.append(percent(ref["ser_total"], base))
            ff_ref.append(percent(ref["registers"], r["registers"]))
        if new is not None:
            d_new.append(percent(new["ser_total"], base))
            ff_new.append(percent(new["registers"], r["registers"]))
        if ref is not None and new is not None:
            if new["ser_total"]:
                ratio.append(100.0 * ref["ser_total"] / new["ser_total"])
            times.append((new["runtime"], ref["runtime"]))
            if not r["used_fallback"]:
                no_fallback.append(times[-1])
    out: dict[str, float] = {"rows": len(used),
                             "rows_no_fallback": len(no_fallback)}
    for key, values in (("dser_minobs", d_ref), ("dser_minobswin", d_new),
                        ("ser_ratio", ratio), ("dff_minobs", ff_ref),
                        ("dff_minobswin", ff_new)):
        if values:
            out[key] = sum(values) / len(values)
    if ratio:
        out["ser_ratio_min"] = min(ratio)
        out["ser_ratio_max"] = max(ratio)
    for key, pairs in (("time_ratio", times),
                       ("time_ratio_no_fallback", no_fallback)):
        t_ref = sum(t[1] for t in pairs)
        if t_ref > 0:
            out[key] = sum(t[0] for t in pairs) / t_ref
    return out


def format_averages(summary: Mapping[str, float]) -> str:
    """The AVG line under a Table I report, from :func:`summarize`."""
    nan = float("nan")
    get = summary.get
    return (f"AVG of {summary['rows']} rows  "
            f"dSER_ref {get('dser_minobs', nan):+.1f}%  "
            f"dSER_new {get('dser_minobswin', nan):+.1f}%  "
            f"SER_ref/SER_new {get('ser_ratio', nan):.0f}%  "
            f"dFF_ref {get('dff_minobs', nan):+.1f}%  "
            f"dFF_new {get('dff_minobswin', nan):+.1f}%  "
            f"t_new/t_ref {get('time_ratio', nan):.2f}x "
            f"({summary['rows_no_fallback']} rows without fallback: "
            f"{get('time_ratio_no_fallback', nan):.2f}x)")
