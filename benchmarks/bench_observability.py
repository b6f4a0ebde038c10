"""Cost of the service observability plane, with digest parity.

Runs the same batch of jobs through an in-process retiming service
twice -- once plain, once with the full observability plane on (span
tracing to JSONL, access logging, and the 100 Hz sampling profiler) --
and reports the wall-clock difference.  The hard gate is *correctness*,
not timing: every job's result digest must be byte-identical between
the two runs, proving observability is an execution knob that never
touches answers.  Each job runs
:func:`repro.runtime.suite.optimize_resilient`, the one per-circuit
flow, so this is where the traced cost of that flow is measured.

Timing numbers land in ``benchmarks/results/BENCH_observability.json``
when run as a script::

    PYTHONPATH=src python -m benchmarks.bench_observability

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_observability.py \\
        --benchmark-only -q
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import threading
import time

TINY_BENCH = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(s1)
s1 = DFF(g2)
g1 = NAND(a, s1)
g2 = NOT(g1)
y = AND(g2, b)
"""

#: Jobs per measured run; distinct seeds so the batch is not one cached
#: analysis served N times.
N_JOBS = 6

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results",
                            "BENCH_observability.json")


def _request(endpoint, method, path, body=None):
    conn = http.client.HTTPConnection(endpoint["host"], endpoint["port"],
                                      timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, body=data)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload
    finally:
        conn.close()


def _run_batch(root, observe: bool) -> tuple[float, dict[str, str]]:
    """Serve, push the batch through, drain; returns (wall, digests)."""
    from repro.service.app import (RetimingService, ServiceConfig,
                                  read_endpoint)

    root = os.fspath(root)
    extra = {}
    if observe:
        extra = {"trace_path": os.path.join(root, "trace.jsonl"),
                 "access_log": os.path.join(root, "access.jsonl"),
                 "profile_path": os.path.join(root, "serve.prof")}
    service = RetimingService(ServiceConfig(
        root=root, pool=2, queue_limit=64, rate=1e6, burst=1e6,
        cache=False, monitor_interval=0.1, **extra))
    thread = threading.Thread(target=service.serve, daemon=True)
    thread.start()
    endpoint = read_endpoint(root, timeout=15.0)
    started = time.perf_counter()
    try:
        jobs = []
        for seed in range(N_JOBS):
            status, payload = _request(
                endpoint, "POST", "/jobs",
                {"netlist": TINY_BENCH, "name": f"tiny{seed}",
                 "seed": seed, "frames": 2, "patterns": 32})
            assert status == 202, (status, payload)
            jobs.append(payload["job"]["id"])
        digests = {}
        for job_id in jobs:
            while True:
                status, payload = _request(endpoint, "GET",
                                           f"/jobs/{job_id}/result")
                if status == 200:
                    assert payload["state"] == "done", payload
                    digests[job_id] = payload["result"]["digest"]
                    break
                assert status == 409, (status, payload)
                time.sleep(0.05)
        wall = time.perf_counter() - started
    finally:
        service.initiate_drain("bench complete")
        thread.join(60.0)
    assert not thread.is_alive()
    return wall, digests


def measure(base_dir) -> dict:
    plain_wall, plain = _run_batch(os.path.join(base_dir, "plain"),
                                   observe=False)
    traced_wall, traced = _run_batch(os.path.join(base_dir, "traced"),
                                     observe=True)
    assert sorted(plain.values()) == sorted(traced.values()), (
        "observability changed job digests", plain, traced)
    trace_file = os.path.join(base_dir, "traced", "trace.jsonl")
    profile_file = os.path.join(base_dir, "traced", "serve.prof")
    return {
        "format": "repro-bench-observability",
        "version": 1,
        "python": platform.python_version(),
        "jobs": N_JOBS,
        "pool": 2,
        "plain_s": round(plain_wall, 4),
        "traced_s": round(traced_wall, 4),
        "overhead_pct": round(
            100.0 * (traced_wall - plain_wall) / plain_wall, 2),
        "digest_parity": True,
        "trace_bytes": os.path.getsize(trace_file),
        "profile_bytes": os.path.getsize(profile_file),
    }


def test_service_observability_digest_parity(benchmark, tmp_path):
    result = benchmark.pedantic(measure, args=(str(tmp_path),),
                                rounds=1, iterations=1, warmup_rounds=0)
    # Parity is asserted inside measure(); overhead is reported, not
    # gated -- a 2-thread service on a noisy CI box cannot carry a
    # stable timing gate.
    assert result["digest_parity"]


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as base:
        result = measure(base)
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"written to {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
