"""The end-to-end benchmark's workloads.

Each invocation runs one iteration of one workload cold, in its own
process, and prints its measurements as one JSON line::

    python3 benchmarks/e2e/workloads.py table1 --seed 0 [--trace FILE]

``benchmarks/e2e/run.py`` drives this script; see the README for the
workloads and why each one is here.  The timed region runs from the
first call into the program to its last result.  Set-up before it
(interpreter start, ``import repro``, netlist emission) and the
correctness checks after it are untimed.  With ``--trace`` the layer
wrappers of :mod:`layers` are installed around the timed region, and the
spans are written to FILE in ``repro-trace`` v1 format.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import resource
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
GOLDEN = ROOT / "corpus" / "small" / "matrix-golden.json"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro was imported from {repro.__file__}, "
                      f"not from this checkout's {SRC}")

from repro.circuits.suites import TABLE1_ROWS, table1_circuit  # noqa: E402
from repro.corpus.families import (build_circuit,  # noqa: E402
                                   corpus_circuit, resolve_library,
                                   tier_specs)
from repro.corpus.matrix import (SCENARIOS, cell_digest,  # noqa: E402
                                 compare_digest_tables,
                                 load_digest_table, scenario_config,
                                 scenario_manifest_path)
from repro.graph.retiming_graph import RetimingGraph  # noqa: E402
from repro.graph.timing import achieved_period  # noqa: E402
from repro.netlist.bench_format import dumps_bench, loads_bench  # noqa: E402
from repro.runtime.manifest import RunManifest  # noqa: E402
from repro.runtime.suite import (SuiteConfig, SuiteResult,  # noqa: E402
                                 run_suite)
from repro.ser.analysis import analyze_ser  # noqa: E402
from repro.sim.odc import observability  # noqa: E402

import layers  # noqa: E402

#: Table I suite knobs.  At scale 0.008 one pass over all 21 rows takes
#: about 8 s on a 2-core host and the solver's forest DP is the largest
#: layer; at 0.004 the pass is initialization-bound like the matrix.
TABLE1_SCALE = 0.008
TABLE1_FRAMES = 8
TABLE1_PATTERNS = 128
#: The Table I circuits are generated at seed 0, a fixed suite like the
#: paper's; the benchmark seed drives simulation patterns and guards.
#: Regenerating the circuits per seed moved the time of a pass by 10%
#: over three seeds; with the circuits fixed, six seeds stayed within 5%.
TABLE1_FACTORY = functools.partial(table1_circuit, scale=TABLE1_SCALE,
                                   seed=0)

#: The small-tier matrix scenario each matrix iteration runs: the
#: deeper fault model with both solvers.  All three small-tier scenarios
#: (36 cells) take about 27 s, too long for one iteration.
MATRIX_SCENARIO = "deep-both"

#: The large-tier circuit of the analysis workload (10^5 gates) and its
#: simulation depth.
ANALYZE_CIRCUIT = "pipe_l"
ANALYZE_FRAMES = 2
ANALYZE_PATTERNS = 64

#: Seconds a pool worker may take to exit after its suite returned.
WORKER_JOIN_TIMEOUT = 30.0


@dataclasses.dataclass
class Prepared:
    """One set-up workload iteration: ``run`` is the timed region and
    ``check`` turns its return value into the reported outcome."""

    run: Callable[[], Any]
    check: Callable[[Any], dict[str, Any]]
    workers: int = 1


# ----------------------------------------------------------------------
# Outcome checks
# ----------------------------------------------------------------------

def period_problems(result: SuiteResult) -> list[str]:
    """Every in-process retimed netlist must meet its clock period,
    recomputed on a fresh retiming graph."""
    problems = []
    for run in result.runs:
        if run.result is None:
            continue  # parallel runs keep records, not live netlists
        for algorithm, outcome in run.result.outcomes.items():
            circuit = outcome.circuit
            graph = RetimingGraph.from_circuit(circuit)
            period = achieved_period(graph, graph.zero_retiming(),
                                     circuit.library.setup_time)
            if period > run.result.phi + 1e-6:
                problems.append(f"{run.name}/{algorithm}: period "
                                f"{period} exceeds phi {run.result.phi}")
    return problems


def ser_change_pct(rows: list[dict[str, Any]], key: str) -> float | None:
    """Mean over rows of 100 * (SER_<key> - SER) / SER."""
    changes = [100.0 * (row[key] - row["ser"]) / row["ser"]
               for row in rows
               if key in row and math.isfinite(row[key])
               and math.isfinite(row["ser"]) and row["ser"] > 0]
    return sum(changes) / len(changes) if changes else None


def suite_digest(result: SuiteResult, config: SuiteConfig) -> str:
    """The run manifest's result digest (wall-clock fields masked)."""
    manifest = RunManifest(config=config.fingerprint(),
                           circuits=list(config.circuits))
    for run in result.runs:
        manifest.record(run.to_record())
    return manifest.result_digest()


def suite_outcome(result: SuiteResult, digest: str) -> dict[str, Any]:
    rows = result.rows
    return {
        "circuits": [[run.name, run.elapsed, run.status]
                     for run in result.runs],
        "digest": digest,
        "problems": period_problems(result),
        "ser_change_new_pct": ser_change_pct(rows, "new_ser"),
        "ser_change_ref_pct": ser_change_pct(rows, "ref_ser"),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def table1(seed: int, scratch: Path, workers: int = 1) -> Prepared:
    """``run_suite`` over the 21 Table I rows, analysis cache off."""
    config = SuiteConfig(
        circuits=tuple(row.name for row in TABLE1_ROWS),
        scale=TABLE1_SCALE, seed=seed, n_frames=TABLE1_FRAMES,
        n_patterns=TABLE1_PATTERNS, workers=workers)

    return Prepared(
        run=lambda: run_suite(config, circuit_factory=TABLE1_FACTORY),
        check=lambda result: suite_outcome(result,
                                           suite_digest(result, config)),
        workers=workers)


def table1_w2(seed: int, scratch: Path) -> Prepared:
    """:func:`table1` on the parallel executor with two workers."""
    return table1(seed, scratch, workers=2)


def matrix_small(seed: int, scratch: Path) -> Prepared:
    """One small-tier matrix scenario over the 12 committed corpus
    circuits, checkpointing to ``scratch`` exactly as ``repro-ser matrix
    small`` does; every cell must match the committed golden table.

    ``seed`` is not used: the corpus and the scenario's configuration are
    what the golden table pins.  Reseeding the configuration is not safe
    either: at seeds 4, 5 and 6 the equivalence guard rejects both
    solvers' retimings of ``fsmdp_b`` (outputs still diverge after the
    flush window), and the circuit degrades to the identity retiming.
    """
    config = scenario_config("small", SCENARIOS[MATRIX_SCENARIO])
    manifest = scenario_manifest_path(str(scratch), "small",
                                      MATRIX_SCENARIO)
    factory = functools.partial(corpus_circuit, "small")

    def check(result: SuiteResult) -> dict[str, Any]:
        outcome = suite_outcome(result, suite_digest(result, config))
        golden = load_digest_table(GOLDEN)
        keys = [f"{MATRIX_SCENARIO}/{run.name}" for run in result.runs]
        cells = {key: cell_digest(run.to_record().to_dict())
                 for key, run in zip(keys, result.runs)}
        outcome["problems"] += compare_digest_tables(
            {"cells": cells},
            {"cells": {key: golden["cells"].get(key) for key in keys}})
        outcome["problems"] += [
            f"{key}: status {run.status!r}, golden "
            f"{golden['statuses'].get(key)!r}"
            for key, run in zip(keys, result.runs)
            if golden["statuses"].get(key) != run.status]
        return outcome

    return Prepared(run=lambda: run_suite(config, manifest_path=manifest,
                                          circuit_factory=factory),
                    check=check)


def analyze_large(seed: int, scratch: Path) -> Prepared:
    """The ``repro-ser analyze`` flow on one 10^5-gate large-tier
    circuit: parse, graph and achieved period, observability, SER."""
    spec = next(spec for spec in tier_specs("large")
                if spec.name == ANALYZE_CIRCUIT)
    spec = dataclasses.replace(spec, seed=spec.seed + seed)
    text = dumps_bench(build_circuit(spec))
    library = resolve_library(spec.library)

    def run() -> tuple[Any, float]:
        start = time.perf_counter()
        circuit = loads_bench(text, name=spec.name, library=library)
        setup = circuit.library.setup_time
        hold = circuit.library.hold_time
        graph = RetimingGraph.from_circuit(circuit)
        phi = achieved_period(graph, graph.zero_retiming(), setup)
        obs = observability(circuit, n_frames=ANALYZE_FRAMES,
                            n_patterns=ANALYZE_PATTERNS, seed=seed).obs
        analysis = analyze_ser(circuit, phi, setup, hold, obs=obs)
        return analysis, time.perf_counter() - start

    def check(outcome: tuple[Any, float]) -> dict[str, Any]:
        analysis, elapsed = outcome
        values = [spec.name, analysis.total, analysis.comb, analysis.reg,
                  analysis.total_no_timing]
        problems = []
        if not 0.0 <= analysis.total <= analysis.total_no_timing:
            problems.append(f"{spec.name}: SER {analysis.total} outside "
                            f"[0, {analysis.total_no_timing}]")
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
        return {"circuits": [[spec.name, elapsed, "ok"]],
                "digest": f"sha256:{digest}", "problems": problems,
                "ser_change_new_pct": None, "ser_change_ref_pct": None}

    return Prepared(run=run, check=check)


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "table1": table1,
    "matrix_small": matrix_small,
    "analyze_large": analyze_large,
    "table1_w2": table1_w2,
}


# ----------------------------------------------------------------------
# One iteration
# ----------------------------------------------------------------------

def reap_workers() -> None:
    """Wait for pool workers, so their memory counts as our children's."""
    for child in multiprocessing.active_children():
        child.join(WORKER_JOIN_TIMEOUT)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_iteration(workload: str, seed: int,
                  trace_path: str | None = None) -> dict[str, Any]:
    """Set up, run and check one iteration; the child's JSON payload."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS,
                                     prefix=".scratch-") as scratch:
        prepared = WORKLOADS[workload](seed, Path(scratch))
        recorder = layers.Recorder() if trace_path else None
        tracing = layers.Tracing(recorder) if recorder \
            else contextlib.nullcontext()
        with tracing:
            t_first = time.monotonic()
            start = time.perf_counter()
            with recorder.span(layers.ROOT) if recorder \
                    else contextlib.nullcontext():
                value = prepared.run()
            wall_s = time.perf_counter() - start
        outcome = prepared.check(value)
    reap_workers()
    payload = {"workload": workload, "seed": seed, "t_first": t_first,
               "wall_s": wall_s, "workers": prepared.workers,
               "peak_rss_mb": peak_rss_mb(), **outcome}
    if recorder is not None:
        payload["layers"] = layers.layer_metrics(recorder, wall_s)
        payload["missing"] = tracing.missing
        layers.write_trace(trace_path, recorder,
                           {"kind": "e2e-bench", "workload": workload,
                            "seed": seed})
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    print(json.dumps(run_iteration(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
