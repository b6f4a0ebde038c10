"""Parallel suite speedup: ``table1 --workers 4`` vs ``--workers 1``.

Both configurations run as fresh child interpreters (the CLI path users
actually take), each writing its own manifest.  Two claims are checked:

* determinism -- the ``result_checksum`` of the parallel manifest equals
  the serial one, unconditionally;
* speedup -- with at least four CPUs, four workers finish the suite at
  least twice as fast as one (asserted only when the host has the
  cores: on smaller machines the timing is reported, not judged).

Knobs: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_FRAMES`` /
``REPRO_BENCH_PATTERNS`` (see :mod:`benchmarks.conftest`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.runtime.manifest import RunManifest

from .conftest import bench_frames, bench_patterns, bench_scale, once

#: Eight mid-size rows of comparable cost: two circuits per worker at
#: four workers, no single circuit dominating the wall time.
_ROWS = ("s13207", "s15850.1", "b14_1_opt", "b14_opt", "b15_1_opt",
         "b15_opt", "b20_1_opt", "b21_1_opt")

_RESULTS: dict[int, tuple[float, str]] = {}


def _src_root() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")


def _cli_table1(workdir: str, workers: int) -> tuple[float, str]:
    """One child-interpreter suite run; returns (seconds, digest)."""
    manifest = os.path.join(workdir, f"workers{workers}.json")
    argv = [sys.executable, "-m", "repro.cli", "table1", *_ROWS,
            "--scale", repr(bench_scale()),
            "--frames", str(bench_frames()),
            "--patterns", str(bench_patterns()),
            "--seed", "0", "--resume", manifest]
    if workers > 1:
        argv.extend(["--workers", str(workers)])
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_root() + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULT_PLAN", None)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    digest = RunManifest.load(manifest).result_digest()
    _RESULTS[workers] = (elapsed, digest)
    return elapsed, digest


def test_serial_baseline(benchmark, tmp_path):
    elapsed, _ = once(benchmark, _cli_table1, str(tmp_path), 1)
    assert elapsed > 0


def test_four_workers(benchmark, tmp_path):
    elapsed, _ = once(benchmark, _cli_table1, str(tmp_path), 4)
    assert elapsed > 0


def test_checksum_identical_across_worker_counts():
    if len(_RESULTS) < 2:
        pytest.skip("timing tests did not run")
    digests = {digest for _, digest in _RESULTS.values()}
    assert len(digests) == 1, (
        f"worker count changed the results: {_RESULTS}")


def test_speedup_report(capsys):
    if len(_RESULTS) < 2:
        pytest.skip("timing tests did not run")
    serial, _ = _RESULTS[1]
    parallel, _ = _RESULTS[4]
    speedup = serial / parallel
    with capsys.disabled():
        print(f"\n[parallel-speedup] serial {serial:.2f}s, "
              f"4 workers {parallel:.2f}s, speedup {speedup:.2f}x "
              f"on {os.cpu_count()} CPUs")
    if (os.cpu_count() or 1) < 4:
        pytest.skip("need >= 4 CPUs to judge the speedup target")
    assert speedup >= 2.0, (
        f"4 workers only {speedup:.2f}x faster than serial")
