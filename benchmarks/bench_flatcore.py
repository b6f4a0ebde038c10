"""Flat core vs object core: analysis wall-clock and peak RSS.

Every measured point runs in a fresh child interpreter (peak RSS is
process-monotonic, so attribution needs isolation) and reports, per
scalable corpus family at ~10^3 / 10^4 / 10^5 gates and per core:

* ``lower_s`` -- the one-time ``Circuit -> FlatCircuit`` lowering
  (object core: ~0).  Timed as its own line item because every stage
  below reuses the arena -- folding it into whichever stage happens to
  run first would misattribute a per-circuit cost to a per-call one;
* ``obs_s``  -- the backward-ODC observability sweep;
* ``elw_s``  -- full-circuit ELW construction;
* ``ser_s``  -- the eq. (4) SER aggregation (obs and ELWs pre-supplied,
  so this times exactly the aggregation stage);
* ``peak_rss_mb`` and a ``checksum`` over every float the stages
  produced.

The checksum equality between cores is asserted *unconditionally* --- a
speedup measured against different answers is meaningless.  The >= 5x
speedup gate applies at the 10^5 point for circuits with enough
per-level width to vectorize (``gates_per_level >= MIN_SIMD_WIDTH``).
Deep-narrow circuits -- the ``random`` family runs ~9 gates per
topological level at 10^5, an ~11000-level critical chain -- are bound
by per-level dispatch in *any* level-synchronous engine, so their
points are measured, checksum-gated and reported, but exempt from the
ratio bar.  (CI runs the 10^3 tier via ``REPRO_BENCH_FLATCORE_MAX=1000``
and gates on equality alone; ratios are uploaded as an artifact.)

Environment knobs:

``REPRO_BENCH_FLATCORE_MAX``
    Largest gate-count tier to run (default 100000).
``REPRO_BENCH_FLATCORE_FAMILIES``
    Comma-separated family subset (default: every scalable family).

Run with ``pytest benchmarks/bench_flatcore.py --benchmark-only``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from .bench_corpus_scaling import _shape
from .conftest import once

TARGETS = (1_000, 10_000, 100_000)

#: Analysis depth for the timed stages.  Small on purpose: stage cost
#: is linear in frames x patterns for both cores, so the ratio -- the
#: quantity under test -- does not depend on the depth, and the object
#: core at 10^5 gates is already minutes-scale at paper depth.
FRAMES, PATTERNS = (2, 64)

_CHILD = r"""
import hashlib, json, resource, sys, time

from repro.core.elw import circuit_elws
from repro.corpus.families import CircuitSpec, build_circuit
from repro.flatcore import arena
from repro.ser.analysis import analyze_ser, extend_obs_to_registers
from repro.sim.odc import observability

family, params, core, frames, patterns = (
    sys.argv[1], json.loads(sys.argv[2]), sys.argv[3],
    int(sys.argv[4]), int(sys.argv[5]))
spec = CircuitSpec(name="bench", family=family, params=params, seed=0)
circuit = build_circuit(spec)
phi = 8.0
setup = circuit.library.setup_time
hold = circuit.library.hold_time

if core == "object":
    # The oracle seam: every engine caller looks flat_for up at call
    # time, so a None-returning substitute runs the object core.
    arena.flat_for = lambda circuit: None
tl = time.perf_counter()
flat = arena.flat_for(circuit)  # one-time lowering, its own line item
t0 = time.perf_counter()
obs = observability(circuit, n_frames=frames, n_patterns=patterns, seed=0)
t1 = time.perf_counter()
elws = circuit_elws(circuit, phi, setup, hold)
t2 = time.perf_counter()
ser = analyze_ser(circuit, phi, setup, hold, obs=obs.obs, elws=elws)
t3 = time.perf_counter()

digest = hashlib.sha256()
for net, value in obs.obs.items():
    digest.update(f"{net}={value!r};".encode())
for net, window in elws.items():
    digest.update(f"{net}={window.intervals!r};".encode())
for net, value in ser.per_element.items():
    digest.update(f"{net}={value!r};".encode())
digest.update(repr((ser.total, ser.comb, ser.reg,
                    ser.total_no_timing)).encode())
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "gates": circuit.n_gates, "dffs": circuit.n_dffs, "core": core,
    "levels": len(flat.programs) if flat is not None else 0,
    "lower_s": t0 - tl,
    "obs_s": t1 - t0, "elw_s": t2 - t1, "ser_s": t3 - t2,
    "peak_rss_mb": rss_kb / 1024.0,
    "checksum": "sha256:" + digest.hexdigest()}))
"""

STAGES = ("obs", "elw", "ser")

#: Mean gates per topological level below which a circuit is too narrow
#: for level-synchronous SIMD to pay off (the >= 5x bar is not applied).
#: Wide corpus families run 25000+ gates/level at 10^5; ``random`` runs
#: ~9 -- the margin on either side is three orders of magnitude.
MIN_SIMD_WIDTH = 16


def _measure(family: str, n: int, core: str) -> dict:
    src_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, family,
         json.dumps(_shape(family, n)), core, str(FRAMES), str(PATTERNS)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def compare_cores(family: str, n: int) -> dict:
    """Measure both cores at one point; checksum equality is mandatory."""
    obj = _measure(family, n, "object")
    flat = _measure(family, n, "flat")
    assert flat["checksum"] == obj["checksum"], \
        f"core results diverge for {family}@{n}"
    point = {"family": family, "target": n, "gates": obj["gates"],
             "dffs": obj["dffs"], "checksum": obj["checksum"],
             "lower_flat_s": flat["lower_s"], "levels": flat["levels"],
             "gates_per_level": obj["gates"] / max(1, flat["levels"])}
    for stage in STAGES:
        point[f"{stage}_object_s"] = obj[f"{stage}_s"]
        point[f"{stage}_flat_s"] = flat[f"{stage}_s"]
        point[f"{stage}_speedup"] = (
            obj[f"{stage}_s"] / flat[f"{stage}_s"]
            if flat[f"{stage}_s"] > 0 else float("inf"))
    point["rss_object_mb"] = obj["peak_rss_mb"]
    point["rss_flat_mb"] = flat["peak_rss_mb"]
    return point


def _max_target() -> int:
    return int(os.environ.get("REPRO_BENCH_FLATCORE_MAX", TARGETS[-1]))


def _families() -> list[str]:
    names = os.environ.get("REPRO_BENCH_FLATCORE_FAMILIES")
    if names:
        return [n.strip() for n in names.split(",") if n.strip()]
    from repro.corpus.families import FAMILIES

    return [name for name, family in FAMILIES.items() if family.scalable]


def _points() -> list[tuple[str, int]]:
    return [(family, n) for family in _families()
            for n in TARGETS if n <= _max_target()]


@pytest.mark.parametrize("family,n", _points(),
                         ids=[f"{f}-{n}" for f, n in _points()])
def test_flatcore_equal_and_fast(benchmark, family, n):
    point = once(benchmark, compare_cores, family, n)
    benchmark.extra_info.update(point)
    ratios = "  ".join(f"{s}={point[f'{s}_speedup']:6.1f}x"
                       for s in STAGES)
    print(f"\n{family:13s} n={n:>7d} gates={point['gates']:>7d} "
          f"{ratios}  lower {point['lower_flat_s']:5.2f}s  "
          f"rss {point['rss_object_mb']:6.1f}->"
          f"{point['rss_flat_mb']:6.1f}MB")
    if n >= 100_000:
        best = max(point[f"{s}_speedup"] for s in STAGES)
        if point["gates_per_level"] >= MIN_SIMD_WIDTH:
            assert best >= 5.0, \
                f"flat core below the 5x bar at 10^5 gates: best {best:.1f}x"
        else:
            print(f"  (deep-narrow: {point['gates_per_level']:.1f} "
                  f"gates/level over {point['levels']} levels -- "
                  f"5x bar not applied)")
