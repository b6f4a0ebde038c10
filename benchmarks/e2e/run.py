"""End-to-end benchmark of the reproduction, with outside-in layer tracing.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace 0|1] [--repeat N] [--pin]

For each workload (all four by default, one at a time) the runner starts
fresh ``workloads.py`` processes, one cold iteration each, until about
``--seconds`` have passed, and reports medians over the iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics; the end-to-end metrics always come from untraced
iterations.  ``--repeat N`` makes N such runs and reports the median and
quartiles of each metric over them.

Every metric is printed by name with its unit, the results go to
``benchmarks/e2e/results/latest.json``, and the last line of standard
output is one JSON object: ``correct``, ``attempted`` (circuits run),
``failed`` (circuits whose status is ``failed:*``) and ``metrics`` --
the end-to-end metrics, or the per-layer metrics under ``--trace 1``.
The exit code is 0 only when every correctness check passed.

``--pin`` (seed 0 only) rewrites ``expected-seed0.json`` with this run's
result digests.  Only a change that means to change results re-pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
CHILD = HERE / "workloads.py"
EXPECTED = HERE / "expected-seed0.json"

try:
    import workloads
except ImportError as exc:
    sys.exit(f"e2e benchmark: cannot import the program from this "
             f"checkout ({exc})")

import layers  # noqa: E402

#: A run stops starting iterations once the next would end after
#: ``--seconds``, and always within this many seconds.
RUN_LIMIT_S = 150.0
#: Untraced iterations per run (at least); a traced run needs one of
#: each kind.
MIN_ITERATIONS = 2
#: Seconds one iteration may take before it is killed.
CHILD_TIMEOUT_S = 150.0

#: The pinned digest each workload must reproduce at seed 0.  The
#: parallel run must reproduce the serial one; the matrix is pinned
#: by its committed golden table instead.
PIN_KEY = {"table1": "table1", "table1_w2": "table1",
           "analyze_large": "analyze_large"}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which an end-to-end metric may
    #: worsen before a change counts as a regression.
    bound: float | None = None


#: The time bounds are the widest allowed: on the shared 2-core host that
#: set them, the same code ran up to 25% slower in one set of ten runs
#: than in the next.  Memory does not drift.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Printed and recorded beside the end-to-end metrics, but not bounded.
#: The per-circuit median moved by up to 30% over ten seeds on the same
#: host, more than any bound allows.  The rest are 0, negative or
#: constant by design, and the correctness gate and pinned digests hold
#: them instead.
OUTCOME = (
    Metric("circuit_s_p50", "s", "lower"),
    Metric("failed_frac", "ratio", "lower"),
    Metric("degraded_frac", "ratio", "lower"),
    Metric("ser_change_new_pct", "%", "lower"),
    Metric("ser_change_ref_pct", "%", "lower"),
    Metric("outputs_ok", "0/1", "higher"),
)

_HIGHER_IS_BETTER = ("commit_ratio", "exact_frac", "ok_ratio",
                     "reuse_ratio", "busy_frac")


def _layer_metric(name: str) -> Metric:
    if name.endswith(".calls"):
        return Metric(name, "count", "lower")
    if name.endswith("_s"):
        return Metric(name, "s", "lower")
    if name.endswith("_pct"):
        return Metric(name, "%", "lower")
    better = "higher" if name.endswith(_HIGHER_IS_BETTER) else "lower"
    return Metric(name, "ratio", better)


PER_LAYER = tuple(_layer_metric(name) for name in
                  layers.metric_names()
                  + ["runtime.parallel.busy_frac", "trace.overhead_pct"])

UNITS = {metric.name: metric.unit
         for metric in END_TO_END + OUTCOME + PER_LAYER}


class BenchError(RuntimeError):
    """An iteration crashed, hung or printed no result."""


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------

def spawn(workload: str, seed: int,
          trace_path: Path | None = None) -> dict[str, Any]:
    """Run one iteration in a fresh process; its payload plus the
    set-up time (process start to first timed call) and the whole
    process time."""
    command = [sys.executable, str(CHILD), workload, "--seed", str(seed)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    started = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{workload}: iteration killed after "
                         f"{CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        try:  # pool workers the iteration may have orphaned
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(f"{workload}: iteration exited with "
                         f"{child.returncode}:\n{err[-2000:]}")
    payload = json.loads(lines[-1])
    payload["setup_s"] = payload["t_first"] - started
    payload["process_s"] = time.monotonic() - started
    return payload


@dataclass
class Measurement:
    """The iterations of one run of one workload."""

    workload: str
    seed: int
    untraced: list[dict[str, Any]] = field(default_factory=list)
    traced: list[dict[str, Any]] = field(default_factory=list)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Measurement:
    """Run iterations until the next one would end after ``seconds``."""
    run = Measurement(workload, seed)
    start = time.monotonic()
    trace_path = workloads.RESULTS / f"trace-{workload}.jsonl"
    durations: list[float] = []
    while True:
        traced = trace and len(run.traced) < len(run.untraced)
        payload = spawn(workload, seed, trace_path if traced else None)
        (run.traced if traced else run.untraced).append(payload)
        durations.append(payload["process_s"])
        finish = time.monotonic() - start + statistics.median(durations)
        enough = len(run.untraced) >= (1 if trace else MIN_ITERATIONS) \
            and (run.traced or not trace)
        if (enough and finish > seconds) or finish > RUN_LIMIT_S:
            return run


# ----------------------------------------------------------------------
# Metrics and checks
# ----------------------------------------------------------------------

def evaluate(run: Measurement,
             expected: dict[str, str]) -> dict[str, Any]:
    """Metrics, correctness problems and counts of one measurement."""
    iterations = run.untraced + run.traced
    problems = [problem for it in iterations for problem in it["problems"]]
    statuses = [status for it in iterations
                for _, _, status in it["circuits"]]
    failed = sum(status.startswith("failed") for status in statuses)
    degraded = sum(status != "ok" for status in statuses)

    digests = sorted({it["digest"] for it in iterations})
    if len(digests) > 1:
        problems.append(f"iterations disagree on the result digest: "
                        f"{digests}")
    pin = expected.get(PIN_KEY.get(run.workload, ""))
    if run.seed == 0 and pin is not None and digests != [pin]:
        problems.append(f"result digest {digests} differs from the "
                        f"pinned {pin}")

    # Contention on a shared host only ever slows an iteration, so the
    # iterations of a run are summarized by their lower median: with
    # two iterations it is the faster one.
    untraced = run.untraced
    per_circuit: dict[str, list[float]] = {}
    for it in untraced:
        for name, elapsed, _ in it["circuits"]:
            per_circuit.setdefault(name, []).append(elapsed)
    metrics: dict[str, float] = {
        "wall_s": statistics.median_low(it["wall_s"] for it in untraced),
        "circuit_s_p50": statistics.median(
            statistics.median_low(times) for times in per_circuit.values()),
        "peak_rss_mb": statistics.median_low(it["peak_rss_mb"]
                                             for it in untraced),
        "setup_s": statistics.median_low(it["setup_s"] for it in untraced),
        "failed_frac": failed / len(statuses),
        "degraded_frac": degraded / len(statuses),
        "outputs_ok": float(not problems and not failed),
        "runtime.parallel.busy_frac": statistics.median(
            sum(elapsed for _, elapsed, _ in it["circuits"])
            / (it["workers"] * it["wall_s"]) for it in untraced),
    }
    for key in ("ser_change_new_pct", "ser_change_ref_pct"):
        values = [it[key] for it in untraced if it[key] is not None]
        if values:
            metrics[key] = statistics.median(values)
    if run.traced:
        names = {name for it in run.traced for name in it["layers"]}
        for name in names:
            metrics[name] = statistics.median(
                it["layers"][name] for it in run.traced
                if name in it["layers"])
        traced_wall = statistics.median_low(it["wall_s"]
                                            for it in run.traced)
        metrics["trace.overhead_pct"] = \
            100.0 * (traced_wall / metrics["wall_s"] - 1.0)
    return {
        "metrics": metrics, "problems": problems,
        "attempted": len(statuses), "failed": failed,
        "digests": digests,
        "iterations": [len(run.untraced), len(run.traced)],
        "missing_targets": sorted({target for it in run.traced
                                   for target in it["missing"]}),
    }


def combine(results: list[dict[str, Any]]) -> dict[str, Any]:
    """Median and quartiles of each metric over repeated runs."""
    metrics: dict[str, dict[str, Any]] = {}
    names = sorted({name for result in results
                    for name in result["metrics"]})
    for name in names:
        values = [result["metrics"][name] for result in results
                  if name in result["metrics"]]
        entry = {"value": statistics.median(values),
                 "unit": UNITS.get(name, ""), "n": len(values)}
        if len(values) > 1:
            entry["q1"], _, entry["q3"] = statistics.quantiles(values, n=4)
        metrics[name] = entry
    problems = [problem for result in results
                for problem in result["problems"]]
    return {
        "correct": not problems and all(
            result["failed"] == 0 for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "problems": problems,
        "digests": sorted({digest for result in results
                           for digest in result["digests"]}),
        "iterations": [result["iterations"] for result in results],
        "missing_targets": sorted({target for result in results
                                   for target in result["missing_targets"]}),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def _format(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, result: dict[str, Any]) -> str:
    metrics = result["metrics"]
    lines = [f"{workload}  seed {seed}  iterations (untraced, traced) "
             f"per run {result['iterations']}  circuits "
             f"{result['attempted']}"]

    def line(metric: Metric, extra: str = "") -> None:
        entry = metrics.get(metric.name)
        if entry is None:
            return
        spread = ""
        if "q1" in entry:
            spread = f"  [q1 {_format(entry['q1'])}, q3 " \
                     f"{_format(entry['q3'])}, n={entry['n']}]"
        lines.append(f"  {metric.name:<44} {_format(entry['value']):>12} "
                     f"{metric.unit:<6}{extra}{spread}")

    for metric in END_TO_END:
        line(metric, f"  {metric.better} is better, bound "
                     f"+{metric.bound:.0%}")
    for metric in OUTCOME:
        line(metric)
    if "trace.overhead_pct" in metrics:
        lines.append("  per layer (traced), by share of traced wall:")
        for layer in sorted(layers.LAYERS, key=lambda layer: -metrics[
                f"{layer.name}.share"]["value"]):
            for name in sorted(metrics):
                if name.startswith(f"{layer.name}."):
                    line(_layer_metric(name))
        for name in ("runtime.parallel.busy_frac", "trace.overhead_pct",
                     "trace.unattributed_s", "trace.unattributed_share"):
            line(_layer_metric(name))
    for target in result["missing_targets"]:
        lines.append(f"  layer target not found (calls = 0): {target}")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def contract_line(result: dict[str, Any], trace: bool) -> str:
    catalog = PER_LAYER if trace else END_TO_END
    metrics = {metric.name: {"value": result["metrics"][metric.name]["value"],
                             "unit": metric.unit}
               for metric in catalog}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def host_facts() -> dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with layer tracing.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run of a workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected-seed0.json from this run")
    args = parser.parse_args(argv)
    if args.pin and args.seed != 0:
        parser.error("--pin pins seed 0 only")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    expected: dict[str, str] = {}
    if EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text())
    if args.pin:
        pinned, expected = expected, {}

    names = args.workload or list(workloads.WORKLOADS)
    summary: dict[str, Any] = {}
    ok = True
    for name in names:
        try:
            results = [evaluate(measure(name, args.seed, args.seconds,
                                        bool(args.trace)), expected)
                       for _ in range(args.repeat)]
        except BenchError as exc:
            print(f"e2e benchmark: {exc}", file=sys.stderr)
            return 1
        result = combine(results)
        summary[name] = result
        ok = ok and result["correct"]
        print(report(name, args.seed, result))
        print(contract_line(result, bool(args.trace)), flush=True)

    workloads.RESULTS.mkdir(exist_ok=True)
    latest = {"format": "repro-e2e-bench", "version": 1,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "repeat": args.repeat,
              "host": host_facts(), "workloads": summary}
    (workloads.RESULTS / "latest.json").write_text(
        json.dumps(latest, indent=2, sort_keys=True) + "\n")
    if args.pin:
        for name, result in summary.items():
            if PIN_KEY.get(name) == name and len(result["digests"]) == 1:
                pinned[name] = result["digests"][0]
        EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True)
                            + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
