"""Command-line interface: ``repro-ser`` (or ``python -m repro.cli``).

Subcommands
-----------
``analyze``
    SER analysis (eq. 4) of a ``.bench``/BLIF netlist.
``retime``
    Run MinObs or MinObsWin on a netlist and write the retimed netlist.
``compare``
    The per-circuit Table I experiment: original vs MinObs vs MinObsWin.
``table1``
    Regenerate the whole Table I on the synthetic suite.
``generate``
    Emit a synthetic benchmark circuit to a file.
``chaos``
    Run the suite under deterministic fault injection and print a
    recovery scorecard (see :mod:`repro.faultplane`).
``trace``
    Render a span trace written by ``--trace`` (``summarize`` / ``top``
    / ``flame``; see :mod:`repro.telemetry`).
``serve``
    Run the resident retiming service: a durable job queue behind a
    small HTTP API (see :mod:`repro.service` and ``docs/service.md``).
    ``--trace``/``--access-log``/``--profile`` turn on the service
    observability plane (``docs/observability.md``).
``ops``
    Live terminal console over a running service: queue depth, worker
    liveness, breaker state, per-endpoint latency quantiles.
``corpus``
    Generate, verify or list the synthetic workload corpus tiers
    (see :mod:`repro.corpus` and ``docs/corpus.md``).
``matrix``
    Run the scenario matrix (corpus x fault model x solver config) and
    emit / check its per-cell golden digest table.

``table1``, ``chaos`` and ``matrix`` handle SIGTERM/SIGINT gracefully:
every finished circuit is already checkpointed (parallel runs too: the
parent saves each circuit as its result arrives) and the process exits with
:data:`INTERRUPT_EXIT_CODE` so callers can distinguish "operator
stopped it, resume later" from real failures.

``table1``, ``chaos`` and ``matrix`` accept ``--trace FILE``
(structured span trace of the run) and ``--metrics-out``
(metrics-registry dump); ``analyze`` accepts ``--trace FILE``
(one span per phase: parse, graph and period, observability, SER);
``table1`` and ``serve`` additionally accept
``--profile`` (periodic stack-sampling profiler, rendered by ``trace
flame``).

Every command honours the ``REPRO_FAULT_PLAN`` environment variable
(inline fault-plan JSON or a path): when set, the named injection sites
are armed before the command runs -- this is how the chaos harness
breaks child processes.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._util import percent
from .errors import ReproError, WorkerCrashError

#: Exit code of an operator interrupt (SIGTERM/SIGINT) of a suite run:
#: the checkpointed manifest is intact and ``--resume`` continues the
#: run.  75 is sysexits' EX_TEMPFAIL ("try again later") -- distinct
#: from ordinary failures (1) and injected kills
#: (:data:`repro.faultplane.plan.KILL_EXIT_CODE`).
INTERRUPT_EXIT_CODE = 75

#: Subcommands whose checkpoint/resume machinery makes an interrupt
#: safe to convert into a clean "stopped, resume later" exit.
_INTERRUPTIBLE = ("table1", "chaos", "matrix")


#: Extensions `_load` understands, mapped to their reader names.
_LOADERS = {".bench": "load_bench", ".blif": "load_blif"}


def _load(path: str):
    import os

    from . import netlist

    ext = os.path.splitext(path)[1].lower()
    reader = _LOADERS.get(ext)
    if reader is None:
        supported = ", ".join(sorted(_LOADERS))
        raise ReproError(
            f"unsupported netlist extension {ext or '(none)'!r} for "
            f"{path!r}: supported input formats are {supported} "
            f"(.v is write-only)")
    return getattr(netlist, reader)(path)


def _save(circuit, path: str) -> None:
    from .netlist import dump_bench, dump_blif, dump_verilog

    if path.endswith(".blif"):
        dump_blif(circuit, path)
    elif path.endswith(".v"):
        dump_verilog(circuit, path)
    else:
        dump_bench(circuit, path)


def cmd_analyze(args: argparse.Namespace) -> int:
    from .graph.retiming_graph import RetimingGraph
    from .graph.timing import achieved_period
    from .ser.analysis import analyze_ser
    from .ser.report import format_ser_report
    from .sim.odc import observability
    from .telemetry import Tracer
    from .telemetry import spans as telemetry

    trace_path = args.trace
    tracer = Tracer(trace_path, meta={"kind": "analyze",
                                      "netlist": args.netlist}) \
        if trace_path else None
    # One span per phase, so a traced run splits its own wall time.
    try:
        with telemetry.installed(tracer), telemetry.span("circuit"):
            with telemetry.span("stage:parse"):
                circuit = _load(args.netlist)
            telemetry.add_attrs(circuit=circuit.name)
            # Use the library's register characterization exactly the
            # way pipeline.optimize_circuit does, so the SER reported
            # here matches the pipeline's numbers for the same netlist
            # and clock period.
            setup = circuit.library.setup_time
            hold = circuit.library.hold_time
            if args.phi is None:
                with telemetry.span("stage:graph"):
                    graph = RetimingGraph.from_circuit(circuit)
                    args.phi = achieved_period(graph, graph.zero_retiming(),
                                               setup)
            with telemetry.span("stage:observability"):
                obs = observability(circuit, n_frames=args.frames,
                                    n_patterns=args.patterns,
                                    seed=args.seed).obs
            with telemetry.span("stage:ser"):
                analysis = analyze_ser(circuit, args.phi, setup, hold,
                                       obs=obs)
    finally:
        if tracer is not None:
            tracer.close()
    print(format_ser_report(circuit.name, analysis, top=args.top))
    if trace_path:
        print(f"span trace written to {trace_path}", file=sys.stderr)
    return 0


def cmd_retime(args: argparse.Namespace) -> int:
    from .pipeline import optimize_circuit

    circuit = _load(args.netlist)
    result = optimize_circuit(
        circuit, algorithms=(args.algorithm,), n_frames=args.frames,
        n_patterns=args.patterns, seed=args.seed, epsilon=args.epsilon,
        maximal_start=args.maximal_start, deadline=args.deadline)
    outcome = result.outcomes[args.algorithm]
    print(f"circuit      : {circuit.name}")
    print(f"phi / R_min  : {result.phi:.3f} / {result.init.rmin:.3f}"
          f"{'  (fallback init)' if result.init.used_fallback else ''}")
    print(f"registers    : {result.registers} -> {outcome.registers} "
          f"({percent(outcome.registers, result.registers):+.1f}%)")
    print(f"SER (eq. 4)  : {result.ser_original.total:.4e} -> "
          f"{outcome.ser.total:.4e} "
          f"({percent(outcome.ser.total, result.ser_original.total):+.1f}%)")
    print(f"solver       : #J={outcome.result.commits} "
          f"iterations={outcome.result.iterations} "
          f"time={outcome.result.runtime:.2f}s")
    if args.output:
        _save(outcome.circuit, args.output)
        print(f"retimed netlist written to {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .pipeline import optimize_circuit, table1_row
    from .ser.report import format_comparison

    circuit = _load(args.netlist)
    result = optimize_circuit(circuit, n_frames=args.frames,
                              n_patterns=args.patterns, seed=args.seed,
                              epsilon=args.epsilon,
                              maximal_start=args.maximal_start,
                              deadline=args.deadline)
    print(format_comparison([table1_row(result)]))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .circuits.suites import TABLE1_ROWS
    from .reporting import format_averages, save_results, summarize
    from .runtime.suite import SuiteConfig, run_suite
    from .ser.report import format_comparison

    names = args.circuits or [row.name for row in TABLE1_ROWS]
    trace_path = args.trace
    profiler = _start_profiler(args)
    config = SuiteConfig(
        circuits=tuple(names), scale=args.scale, seed=args.seed,
        n_frames=args.frames, n_patterns=args.patterns,
        epsilon=args.epsilon, maximal_start=args.maximal_start,
        deadline=args.deadline, max_retries=args.max_retries,
        strict=args.strict, guard=not args.no_guard,
        workers=args.workers, cache=_use_cache(args),
        cache_dir=args.cache_dir, trace_path=trace_path)
    progress = (lambda line: print(line, file=sys.stderr)) \
        if args.verbose else None
    try:
        suite = run_suite(config, manifest_path=args.resume,
                          progress=progress)
    finally:
        _finish_profiler(args, profiler)
    print(format_comparison(suite.rows))
    print(format_averages(summarize(suite.reports)))
    for failure in suite.failures:
        print(f"warning: {failure.circuit}/{failure.stage}"
              f"[{failure.rung}] {failure.error}: {failure.message} "
              f"-> {failure.action}", file=sys.stderr)
    if args.json:
        save_results(suite.reports, args.json)
        print(f"JSON report written to {args.json}", file=sys.stderr)
    _finish_telemetry(args, trace_path)
    return 0


def _start_profiler(args: argparse.Namespace):
    """Start the sampling profiler when ``--profile`` was given."""
    if not getattr(args, "profile", None):
        return None
    from .telemetry.profiler import StackProfiler

    profiler = StackProfiler(interval=args.profile_interval)
    profiler.start()
    return profiler


def _finish_profiler(args: argparse.Namespace, profiler) -> None:
    """Stop the profiler and write the collapsed-stack file (advisory:
    a kill mid-run still leaves the checkpointed suite state intact, so
    a failed profile write must not fail the command)."""
    if profiler is None:
        return
    profiler.stop()
    try:
        profiler.write(args.profile)
    except OSError as exc:
        print(f"warning: could not write profile {args.profile}: {exc}",
              file=sys.stderr)
        return
    print(f"profile written to {args.profile} "
          f"({profiler.samples} samples); render it with "
          f"'repro-ser trace flame {args.profile}'", file=sys.stderr)


def _finish_telemetry(args: argparse.Namespace,
                      trace_path: str | None) -> None:
    """Post-run telemetry outputs: trace notice and metrics dump."""
    if trace_path:
        print(f"span trace written to {trace_path}", file=sys.stderr)
    if args.metrics_out:
        from .telemetry import REGISTRY

        REGISTRY.write(args.metrics_out)
        print(f"metrics dump written to {args.metrics_out}",
              file=sys.stderr)


def _use_cache(args: argparse.Namespace) -> bool:
    """Resolve the ``--cache`` / ``--no-cache`` / ``--cache-dir`` triple.

    ``--cache-dir`` implies ``--cache``; ``--no-cache`` wins over both
    (useful to prove a result is cache-independent without editing the
    rest of the command line).
    """
    return (args.cache or args.cache_dir is not None) and not args.no_cache


def cmd_chaos(args: argparse.Namespace) -> int:
    from .circuits.suites import TABLE1_ROWS
    from .faultplane.chaos import (build_plan, format_scorecard, run_chaos,
                                   run_kill_chaos)
    from .runtime.suite import SuiteConfig

    names = args.circuits or [row.name for row in TABLE1_ROWS[:5]]
    use_cache = _use_cache(args)
    cache_dir = args.cache_dir
    if use_cache and cache_dir is None:
        # The disk tier is where the interesting cache faults live
        # (torn writes, unreadable entries); a memory-only cache would
        # leave the cache.* sites unvisited.
        import tempfile

        cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
        print(f"analysis cache for chaos run in {cache_dir}",
              file=sys.stderr)
    trace_path = args.trace
    if trace_path and args.kill_prob > 0:
        # The kill harness re-runs the CLI in subprocesses; a hard kill
        # mid-append could tear the shared trace file in the middle of
        # the stream, so tracing covers the in-process modes only.
        print("warning: --trace is ignored with --kill-prob "
              "(subprocess harness)", file=sys.stderr)
        trace_path = None
    config = SuiteConfig(
        circuits=tuple(names), scale=args.scale,
        seed=args.experiment_seed, n_frames=args.frames,
        n_patterns=args.patterns, deadline=args.deadline,
        max_retries=args.max_retries, workers=args.workers,
        cache=use_cache, cache_dir=cache_dir, trace_path=trace_path)
    # Kill mode arms only kill faults by default: a deterministic
    # always-firing fault would make every restart fail identically.
    kinds = args.kinds
    if args.kill_prob > 0 and kinds is None:
        kinds = ["kill"]
    sites = args.sites
    if sites is None and args.kill_prob == 0:
        # In-process default: the sites the recovery ladder wraps.
        # suite.circuit.start is crash-isolation (whole row fails) and
        # manifest/parse sites are not visited without --resume /
        # file-based circuits, so arming them is noise here.  Cache
        # sites only exist when the analysis cache is on.
        sites = ["solve.*", "sim.*", "ser.*"]
        if use_cache:
            sites.append("cache.*")
    plan = build_plan(seed=args.seed, sites=sites, kinds=kinds,
                      trigger=args.trigger, arms=args.arms,
                      probability=args.prob, kill_prob=args.kill_prob)
    progress = (lambda line: print(line, file=sys.stderr)) \
        if args.verbose else None
    if args.kill_prob > 0:
        import tempfile

        workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
        print(f"kill-loop chaos in {workdir}", file=sys.stderr)
        _, card = run_kill_chaos(config, plan, workdir,
                                 max_restarts=args.max_restarts,
                                 verify=not args.no_verify,
                                 progress=progress)
    else:
        _, card = run_chaos(config, plan, verify=not args.no_verify,
                            oracle=args.oracle, progress=progress)
    print(format_scorecard(card))
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(card.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"scorecard written to {args.json}", file=sys.stderr)
    _finish_telemetry(args, trace_path)
    return 1 if card.wrong_answers else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.app import RetimingService, ServiceConfig

    trace_path = args.trace
    config = ServiceConfig(
        root=args.root, host=args.host, port=args.port, pool=args.pool,
        queue_limit=args.queue_limit, rate=args.rate, burst=args.burst,
        lease_seconds=args.lease_seconds, max_requeues=args.max_requeues,
        max_crashes=args.max_crashes, isolation=args.isolation,
        worker_memory_mb=args.worker_memory,
        worker_cpu_seconds=args.worker_cpu,
        worker_wall_seconds=args.worker_wall,
        memory_budget_mb=args.memory_budget, seed=args.seed,
        scale=args.scale, deadline=args.deadline,
        max_retries=args.max_retries, cache=not args.no_cache,
        drain_after_idle=args.drain_after_idle,
        idle_grace=args.idle_grace, drain_timeout=args.drain_timeout,
        verbose=args.verbose, trace_path=trace_path,
        access_log=args.access_log,
        profile_path=args.profile,
        profile_interval=args.profile_interval)
    service = RetimingService(config)
    code = service.serve()
    if args.metrics_out:
        from .telemetry import REGISTRY

        REGISTRY.write(args.metrics_out)
    if trace_path:
        print(f"span trace written to {trace_path}", file=sys.stderr)
    if args.profile:
        print(f"profile written to {args.profile}", file=sys.stderr)
    return code


def cmd_ops(args: argparse.Namespace) -> int:
    from .service.ops import run_console

    try:
        return run_console(args.root, interval=args.interval,
                           count=args.count, once=args.once)
    except KeyboardInterrupt:
        print()  # leave the cursor on a fresh line after ^C
        return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry.profiler import (is_profile_file, load_profile,
                                     render_profile)
    from .telemetry.traceview import (filter_trace, flame, load_trace,
                                      summarize_trace, top_spans)

    if is_profile_file(args.trace_file):
        # Collapsed-stack profiler output (--profile): flame is the one
        # sensible rendering -- the stacks have no spans to rank.
        if args.action != "flame":
            raise ReproError(
                f"{args.trace_file} is a sampling profile; render it "
                f"with 'trace flame' (summarize/top need a span trace)")
        print(render_profile(load_profile(args.trace_file),
                             max_depth=args.depth))
        return 0
    trace = load_trace(args.trace_file)
    if args.job:
        trace = filter_trace(trace, args.job)
    if trace.skipped:
        print(f"note: skipped {trace.skipped} unparsable line(s) "
              f"(torn writes are expected after kills)", file=sys.stderr)
    if args.action == "summarize":
        print(summarize_trace(trace))
    elif args.action == "top":
        print(top_spans(trace, limit=args.limit))
    else:
        print(flame(trace, max_depth=args.depth))
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import FAMILIES, TIERS, tier_specs, verify_corpus, \
        write_corpus

    if args.action == "list":
        print("families:")
        for family in FAMILIES.values():
            scale = "" if family.scalable else "  (not 1e5-scalable)"
            print(f"  {family.name:14s} {family.description}{scale}")
        print("tiers:")
        for tier, specs in TIERS.items():
            print(f"  {tier}: {len(specs)} circuits")
            for spec in specs:
                print(f"    {spec.name:10s} {spec.family:14s} "
                      f"{spec.fmt:5s} {spec.library:14s} seed={spec.seed}")
        return 0
    if args.action == "generate":
        if not args.target:
            raise ReproError("corpus generate needs an output directory")
        payload = write_corpus(args.tier, args.target)
        for name, entry in sorted(payload["circuits"].items()):
            stats = entry["stats"]
            print(f"{name:12s} {entry['file']:18s} "
                  f"gates={stats['gates']:6d} dffs={stats['dffs']:6d} "
                  f"{entry['sha256'][:23]}")
        print(f"wrote {len(payload['circuits'])} circuits + manifest "
              f"to {args.target}")
        return 0
    # verify
    if not args.target:
        raise ReproError("corpus verify needs a manifest path")
    tier_specs(args.tier)  # fail early on a bad --tier (unused otherwise)
    target = args.target
    if os.path.isdir(target):
        from .corpus.manifest import MANIFEST_BASENAME

        target = os.path.join(target, MANIFEST_BASENAME)
    problems = verify_corpus(target)
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}")
        print(f"{len(problems)} problem(s): the corpus is not "
              f"byte-reproducible from this manifest")
        return 1
    print(f"corpus verified: every circuit regenerates byte-identically "
          f"({args.target})")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    from .corpus import run_matrix, write_digest_table

    trace_path = args.trace
    progress = (lambda line: print(line, file=sys.stderr)) \
        if args.verbose else None
    result = run_matrix(
        args.tier, out_dir=args.out,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        circuits=tuple(args.circuits) if args.circuits else None,
        workers=args.workers, cache=_use_cache(args),
        cache_dir=args.cache_dir, max_retries=args.max_retries,
        trace_path=trace_path, progress=progress)
    for key in sorted(result.cells):
        print(f"{key:36s} {result.statuses[key]:24s} "
              f"{result.cells[key][:23]}")
    not_ok = sum(1 for s in result.statuses.values() if s != "ok")
    print(f"{len(result.cells)} cells, {not_ok} degraded")
    table = result.digest_table()
    if args.digests:
        write_digest_table(table, args.digests)
        print(f"digest table written to {args.digests}", file=sys.stderr)
    code = 0
    if args.check:
        from .corpus import compare_digest_tables, load_digest_table

        golden = load_digest_table(args.check)
        if args.scenarios or args.circuits:
            # A subset run checks only the cells it covered.
            golden = dict(golden)
            golden["cells"] = {k: v for k, v in golden["cells"].items()
                               if k in result.cells}
        mismatches = compare_digest_tables(table, golden)
        for mismatch in mismatches:
            print(f"MISMATCH {mismatch}")
        if mismatches:
            print(f"{len(mismatches)} cell(s) deviate from the golden "
                  f"digest table {args.check}")
            code = 1
        else:
            print(f"all {len(table['cells'])} cells match the golden "
                  f"digest table")
    _finish_telemetry(args, trace_path)
    return code


def cmd_generate(args: argparse.Namespace) -> int:
    from .circuits.generators import random_sequential_circuit
    from .circuits.suites import table1_circuit

    if args.row:
        circuit = table1_circuit(args.row, scale=args.scale,
                                 seed=args.seed)
    else:
        circuit = random_sequential_circuit(
            args.name, n_gates=args.gates, n_dffs=args.dffs,
            n_inputs=args.inputs, n_outputs=args.outputs, seed=args.seed)
    _save(circuit, args.output)
    stats = circuit.stats()
    print(f"wrote {args.output}: {stats}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ser",
        description="Soft-error-aware retiming (Lu & Zhou, DATE 2013)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--frames", type=int, default=15,
                       help="time-frame expansion depth (paper: 15)")
        p.add_argument("--patterns", type=int, default=256,
                       help="simulation patterns K")
        p.add_argument("--seed", type=int, default=0)

    def trace_file_opts(p):
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a structured span trace (JSONL) of "
                            "the run here; read it back with "
                            "'repro-ser trace'")

    def trace_opts(p):
        trace_file_opts(p)
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="dump the metrics registry after the run "
                            "(JSON, or Prometheus text for .prom/.txt)")

    p = sub.add_parser("analyze", help="SER analysis of a netlist")
    p.add_argument("netlist")
    p.add_argument("--phi", type=float, default=None,
                   help="clock period (default: combinational period)")
    p.add_argument("--top", type=int, default=10,
                   help="contributors to list")
    common(p)
    trace_file_opts(p)
    p.set_defaults(func=cmd_analyze)

    def solver_opts(p):
        p.add_argument("--epsilon", type=float, default=0.10,
                       help="period relaxation of Sec. V")
        p.add_argument("--maximal-start", action="store_true",
                       help="start from the pointwise-maximal feasible "
                            "retiming instead of the Sec. V start")
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-stage wall-clock budget; an expired "
                            "solve yields its best feasible retiming "
                            "(table1 degrades, retime/compare abort)")

    def profile_opts(p):
        p.add_argument("--profile", default=None, metavar="FILE",
                       help="run the periodic stack-sampling profiler "
                            "and write collapsed stacks here; render "
                            "with 'repro-ser trace flame FILE'")
        p.add_argument("--profile-interval", type=float, default=0.01,
                       metavar="SECONDS",
                       help="sampling period of --profile (default "
                            "0.01s)")

    def cache_opts(p):
        p.add_argument("--cache", action="store_true",
                       help="memoize expensive analyses in a "
                            "content-addressed cache (warm results are "
                            "bit-identical to cold ones)")
        p.add_argument("--no-cache", action="store_true",
                       help="force caching off (overrides --cache and "
                            "--cache-dir)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="on-disk cache tier, shared across runs and "
                            "worker processes (implies --cache)")

    p = sub.add_parser("retime", help="retime a netlist for low SER")
    p.add_argument("netlist")
    p.add_argument("-a", "--algorithm", default="minobswin",
                   choices=("minobs", "minobswin"))
    p.add_argument("-o", "--output", default=None,
                   help="write the retimed netlist (.bench/.blif/.v)")
    common(p)
    solver_opts(p)
    p.set_defaults(func=cmd_retime)

    p = sub.add_parser("compare", help="MinObs vs MinObsWin on a netlist")
    p.add_argument("netlist")
    common(p)
    solver_opts(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table1", help="regenerate Table I")
    p.add_argument("circuits", nargs="*",
                   help="row names (default: all 21)")
    p.add_argument("--scale", type=float, default=None,
                   help="suite scale factor (default from suites module)")
    p.add_argument("--json", default=None,
                   help="also write a machine-readable report here")
    p.add_argument("--resume", default=None, metavar="MANIFEST",
                   help="checkpoint manifest path: completed circuits "
                        "are written there after each row and skipped "
                        "when re-running after an interruption")
    p.add_argument("--max-retries", type=int, default=1,
                   help="extra attempts per stage before degrading "
                        "(stochastic stages reseed on retry)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first failure instead of "
                        "degrading (debugging mode)")
    p.add_argument("--no-guard", action="store_true",
                   help="skip the post-retime verification guard")
    p.add_argument("-w", "--workers", type=int, default=1,
                   help="worker processes; >1 runs one pool task per "
                        "circuit with a deterministic merge (same result "
                        "checksum as a serial run)")
    p.add_argument("-v", "--verbose", action="store_true")
    common(p)
    solver_opts(p)
    cache_opts(p)
    trace_opts(p)
    profile_opts(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "chaos",
        help="run the suite under fault injection, print a recovery "
             "scorecard")
    p.add_argument("circuits", nargs="*",
                   help="row names (default: the 5 smallest Table I rows)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (the whole fault sequence is a "
                        "pure function of it)")
    p.add_argument("--sites", nargs="+", default=None, metavar="GLOB",
                   help="injection sites to arm, names or globs "
                        "(default: all; see repro.faultplane.sites)")
    p.add_argument("--kinds", nargs="+", default=None, metavar="KIND",
                   help="fault kinds to arm (default: every recoverable "
                        "kind each site lists)")
    p.add_argument("--trigger", type=int, default=1,
                   help="fire on the Nth visit of each armed site")
    p.add_argument("--arms", type=int, default=1,
                   help="times each fault may fire (-1 = unlimited)")
    p.add_argument("--prob", type=float, default=1.0,
                   help="per-visit firing probability once triggered")
    p.add_argument("--kill-prob", type=float, default=0.0,
                   help="arm kill-capable sites with this probability and "
                        "run the subprocess kill/restart harness instead "
                        "of the in-process run")
    p.add_argument("--workdir", default=None,
                   help="kill-harness working directory (default: a "
                        "fresh temp dir)")
    p.add_argument("--max-restarts", type=int, default=40,
                   help="restart budget of the kill harness")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every outcome against the "
                        "brute-force oracle (small circuits only)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the clean differential reference run")
    p.add_argument("--scale", type=float, default=None,
                   help="suite scale factor (default from suites module)")
    p.add_argument("--experiment-seed", type=int, default=0,
                   help="experiment seed of the suite under test "
                        "(--seed is the fault-plan seed)")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS", help="per-stage wall-clock budget")
    p.add_argument("--max-retries", type=int, default=1)
    p.add_argument("--json", default=None,
                   help="also write the scorecard as JSON here")
    p.add_argument("--frames", type=int, default=15)
    p.add_argument("--patterns", type=int, default=256)
    p.add_argument("-w", "--workers", type=int, default=1,
                   help="worker processes for the suite under test "
                        "(fault plans propagate with per-circuit seeds)")
    p.add_argument("-v", "--verbose", action="store_true")
    cache_opts(p)
    trace_opts(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "trace",
        help="render a span trace written by --trace (summarize/top/"
             "flame)")
    p.add_argument("action", choices=("summarize", "top", "flame"),
                   help="summarize: per-circuit stage breakdown; top: "
                        "spans ranked by self time; flame: indented "
                        "span tree")
    p.add_argument("trace_file",
                   help="trace JSONL file (or, for 'flame', a "
                        "collapsed-stack profile from --profile)")
    p.add_argument("-n", "--limit", type=int, default=15,
                   help="rows shown by 'top'")
    p.add_argument("--depth", type=int, default=None,
                   help="maximum tree depth shown by 'flame'")
    p.add_argument("--job", default=None, metavar="ID",
                   help="restrict a multi-job service trace to one job "
                        "(job id or trace id)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="run the retiming service (durable job queue + HTTP API)")
    p.add_argument("--root", required=True, metavar="DIR",
                   help="queue directory (job records, journal, cache, "
                        "endpoint file); created if missing")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0: ephemeral, published in "
                        "<root>/service.json)")
    p.add_argument("--pool", type=int, default=2,
                   help="worker threads sharing one warm analysis cache")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="max jobs in flight before submissions get 429")
    p.add_argument("--rate", type=float, default=10.0,
                   help="per-tenant submissions/second refill rate")
    p.add_argument("--burst", type=float, default=20.0,
                   help="per-tenant token-bucket burst")
    p.add_argument("--lease-seconds", type=float, default=60.0,
                   help="job lease duration; an expired lease requeues "
                        "the job exactly once")
    p.add_argument("--max-requeues", type=int, default=2,
                   help="crash/expiry requeues before quarantine")
    p.add_argument("--isolation", choices=("thread", "process"),
                   default="thread",
                   help="worker execution mode: in-process threads "
                        "(default) or one sandboxed subprocess per job "
                        "(rlimit budgets, wall-clock watchdog, crash "
                        "containment)")
    p.add_argument("--max-crashes", type=int, default=3,
                   help="times a job may kill its worker before it is "
                        "quarantined as poison (process isolation)")
    p.add_argument("--worker-memory", type=float, default=None,
                   metavar="MIB",
                   help="per-job address-space rlimit for sandboxed "
                        "workers; leave ~250 MiB headroom for the "
                        "interpreter baseline")
    p.add_argument("--worker-cpu", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job CPU rlimit for sandboxed workers")
    p.add_argument("--worker-wall", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job wall-clock watchdog for sandboxed "
                        "workers (SIGTERM, then SIGKILL)")
    p.add_argument("--memory-budget", type=float, default=None,
                   metavar="MIB",
                   help="shed new submissions (503 + Retry-After) while "
                        "the service's resident set exceeds this")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the supervisor's restart-jitter stream")
    p.add_argument("--scale", type=float, default=None,
                   help="default circuit scale for named Table I jobs")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS", help="per-stage wall-clock budget")
    p.add_argument("--max-retries", type=int, default=1)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared analysis cache")
    p.add_argument("--drain-after-idle", action="store_true",
                   help="exit 0 once the queue has been idle for "
                        "--idle-grace seconds (batch mode)")
    p.add_argument("--idle-grace", type=float, default=2.0)
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds a drain waits for in-flight jobs before "
                        "releasing their leases")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="dump the metrics registry after the drain")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the service's span trace (JSONL) here: "
                        "every job becomes one merged span tree "
                        "(admission -> queue wait -> execute -> "
                        "persist), sandbox subprocesses included")
    p.add_argument("--access-log", default=None, metavar="FILE",
                   help="append one JSONL line per HTTP request here "
                        "(carries the request's trace id)")
    profile_opts(p)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "ops",
        help="live terminal console over a running service (queue "
             "depth, worker liveness, latency quantiles)")
    p.add_argument("--root", required=True, metavar="DIR",
                   help="the service's queue directory (the console "
                        "reads <root>/service.json for the endpoint)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between redraws (default 2)")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="print N snapshots (no screen clearing) and "
                        "exit")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (same as "
                        "--count 1)")
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser(
        "corpus",
        help="generate, verify or list the synthetic workload corpus")
    p.add_argument("action", choices=("generate", "verify", "list"),
                   help="generate: emit a tier + manifest into a "
                        "directory; verify: prove a manifest's corpus "
                        "regenerates byte-identically; list: show "
                        "families and tiers")
    p.add_argument("target", nargs="?", default=None,
                   help="generate: output directory; verify: manifest "
                        "path")
    p.add_argument("--tier", default="small",
                   choices=("small", "medium", "large"),
                   help="corpus tier (default: small)")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser(
        "matrix",
        help="run the scenario matrix (corpus x fault model x solver) "
             "with golden cell digests")
    p.add_argument("tier", nargs="?", default="small",
                   choices=("small", "medium", "large"),
                   help="corpus tier to run (default: small)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="checkpoint directory: one resumable run "
                        "manifest per scenario; rerunning with the same "
                        "DIR resumes after a kill with no duplicate or "
                        "missing cells")
    p.add_argument("--scenarios", nargs="+", default=None,
                   metavar="NAME",
                   help="scenario subset (default: the tier's full "
                        "list; see repro.corpus.matrix.SCENARIOS)")
    p.add_argument("--circuits", nargs="+", default=None, metavar="NAME",
                   help="circuit subset of the tier (default: all)")
    p.add_argument("--digests", default=None, metavar="FILE",
                   help="write the per-cell digest table here "
                        "(repro-matrix-digests JSON)")
    p.add_argument("--check", default=None, metavar="GOLDEN",
                   help="compare cell digests against a golden digest "
                        "table; exit 1 on any deviation")
    p.add_argument("--max-retries", type=int, default=1,
                   help="extra attempts per stage before degrading")
    p.add_argument("-w", "--workers", type=int, default=1,
                   help="worker processes per scenario (same digests "
                        "as a serial run)")
    p.add_argument("-v", "--verbose", action="store_true")
    cache_opts(p)
    trace_opts(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("generate", help="emit a synthetic benchmark")
    p.add_argument("output")
    p.add_argument("--row", default=None,
                   help="Table I row name to mimic")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--gates", type=int, default=400)
    p.add_argument("--dffs", type=int, default=120)
    p.add_argument("--inputs", type=int, default=16)
    p.add_argument("--outputs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)
    return parser


def _install_interrupt_handler() -> None:
    """Map SIGTERM onto :class:`KeyboardInterrupt` for suite commands.

    SIGINT already raises it; with SIGTERM converted too, both
    interrupts unwind through the same ``finally`` blocks (every
    finished circuit's checkpoint is already durable, serial or
    parallel) and :func:`main` turns them into a clean
    :data:`INTERRUPT_EXIT_CODE` exit.  Main-thread only -- under the
    parallel executor the workers are separate processes with their own
    default handlers, which is exactly what we want: the parent decides
    when to stop.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return  # signal registration is a main-thread-only API

    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, raise_interrupt)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "scale", None) is None and \
            args.command in ("table1", "generate", "chaos", "serve"):
        from .circuits.suites import DEFAULT_SCALE

        args.scale = DEFAULT_SCALE
    if args.command in _INTERRUPTIBLE:
        _install_interrupt_handler()
    injector = None
    try:
        import os

        if os.environ.get("REPRO_FAULT_PLAN"):
            from .faultplane.plan import install_from_env

            injector = install_from_env()
        return args.func(args)
    except KeyboardInterrupt:
        if args.command not in _INTERRUPTIBLE:
            raise
        print("interrupted: checkpointed progress is preserved; rerun "
              "with --resume MANIFEST to continue the run",
              file=sys.stderr)
        return INTERRUPT_EXIT_CODE
    except WorkerCrashError as exc:
        # A parallel worker died hard (e.g. an injected kill); every
        # finished circuit is already in the manifest.  Exit with the
        # kill code so the restart harness resumes instead of treating
        # the run as a deterministic failure.
        from .faultplane.plan import KILL_EXIT_CODE

        print(f"error: {exc}", file=sys.stderr)
        return KILL_EXIT_CODE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # unreadable netlists, unwritable outputs / run manifests
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if injector is not None:
            injector.flush_stats()
            from .faultplane import hooks

            hooks.uninstall()


if __name__ == "__main__":
    sys.exit(main())
