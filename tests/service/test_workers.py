"""Worker-pool tests: heartbeat self-healing, drain timeout recovery,
process-isolation routing.

The drain-timeout test is the one place the "straggler release"
contract is exercised end to end: a job that outlives the drain window
goes back to ``queued`` with no budget consumed, and a restarted pool
finishes it with the exact same digest a clean run produces.
"""

import json
import threading
import time

import pytest

from repro.errors import JobStateError
from repro.faultplane.plan import ENV_PLAN, FaultPlan, FaultSpec
from repro.service.queue import JobQueue
from repro.service.workers import ExecutionDefaults, WorkerPool, execute_job
from repro.telemetry import REGISTRY

TINY_BENCH = ("INPUT(a)\nOUTPUT(y)\ns1 = DFF(g1)\n"
              "g1 = NAND(a, s1)\ny = NOT(s1)\n")
TINY_SPEC = {"netlist": TINY_BENCH, "name": "tiny", "seed": 5,
             "frames": 2, "patterns": 8}


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestHeartbeatSelfHealing:
    def test_heartbeat_counts_errors_and_keeps_beating(self, tmp_path,
                                                       monkeypatch):
        """The silent-death bug: a raising heartbeat used to be able to
        kill the beat thread, after which every running job's lease
        expired.  Now an error costs one counted sweep, nothing more."""
        queue = JobQueue(tmp_path)
        pool = WorkerPool(queue, ExecutionDefaults(), pool_size=1,
                          heartbeat_interval=0.02)
        monkeypatch.setattr(pool, "in_flight", lambda: ["j-ghost"])
        monkeypatch.setattr(
            queue, "heartbeat",
            lambda job_id: (_ for _ in ()).throw(RuntimeError("disk")))
        before = REGISTRY.counter("service.heartbeat.errors").value
        pool.restart_heartbeat()
        try:
            assert wait_for(
                lambda: REGISTRY.counter(
                    "service.heartbeat.errors").value >= before + 3)
            assert pool.heartbeat_alive()
            assert pool.last_beat_age() is not None
        finally:
            pool._stop.set()

    def test_finished_job_race_is_not_an_error(self, tmp_path,
                                               monkeypatch):
        """A beat that loses the finish race gets JobStateError --
        routine, never counted."""
        queue = JobQueue(tmp_path)
        pool = WorkerPool(queue, ExecutionDefaults(), pool_size=1,
                          heartbeat_interval=0.02)
        monkeypatch.setattr(pool, "in_flight", lambda: ["j-done"])
        monkeypatch.setattr(
            queue, "heartbeat",
            lambda job_id: (_ for _ in ()).throw(
                JobStateError("terminal", job_id=job_id)))
        before = REGISTRY.counter("service.heartbeat.errors").value
        pool.restart_heartbeat()
        try:
            assert wait_for(lambda: pool.last_beat_age() is not None)
            time.sleep(0.1)
            assert REGISTRY.counter(
                "service.heartbeat.errors").value == before
            assert pool.heartbeat_alive()
        finally:
            pool._stop.set()


class TestDrainTimeout:
    def test_slow_job_times_out_drain_then_completes_after_restart(
            self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path, lease_seconds=60.0)
        record = queue.submit(TINY_SPEC)
        release = threading.Event()
        executing = threading.Event()

        def slow_execute(spec, defaults):
            executing.set()
            release.wait(30.0)
            return execute_job(spec, defaults)

        monkeypatch.setattr("repro.service.workers.execute_job",
                            slow_execute)
        pool = WorkerPool(queue, ExecutionDefaults(), pool_size=1,
                          poll_interval=0.02)
        pool.start()
        assert executing.wait(10.0)
        # The job is mid-execution and will not finish in time.
        assert pool.drain(0.2) is False
        # The straggler was released: queued again, no budget burned.
        after = queue.get(record.id)
        assert after.state == "queued"
        assert after.requeues == 0 and after.lease is None
        # Unblock the zombie; its stale completion must lose the race.
        release.set()
        time.sleep(0.2)
        assert queue.get(record.id).state == "queued"

        # A restarted pool (the un-patched real executor) finishes the
        # job, and the answer matches a clean in-process run exactly.
        monkeypatch.undo()
        pool2 = WorkerPool(queue, ExecutionDefaults(), pool_size=1,
                           poll_interval=0.02)
        pool2.start()
        try:
            assert wait_for(lambda: queue.get(record.id).terminal())
        finally:
            assert pool2.drain(10.0)
        final = queue.get(record.id)
        assert final.state == "done"
        reference = execute_job(TINY_SPEC, ExecutionDefaults())
        assert final.result["digest"] == reference["digest"]


class TestLegacySpecs:
    def test_stored_core_key_is_ignored_on_recovery(self, tmp_path):
        """A version-2 record whose stored spec still carries the
        retired ``core`` engine knob recovers, runs, and produces the
        digest of the same spec without it."""
        queue = JobQueue(tmp_path, lease_seconds=60.0)
        record = queue.submit({**TINY_SPEC, "core": "flat"})
        queue.claim("w0")
        queue.start(record.id)  # the service dies mid-run
        stored = json.loads(
            (tmp_path / "jobs" / f"{record.id}.json").read_text())
        assert stored["version"] == 2 and stored["spec"]["core"] == "flat"

        fresh = JobQueue(tmp_path, lease_seconds=60.0)
        assert fresh.recover()["requeued"] == [record.id]
        pool = WorkerPool(fresh, ExecutionDefaults(), pool_size=1,
                          poll_interval=0.02)
        pool.start()
        try:
            assert wait_for(lambda: fresh.get(record.id).terminal())
        finally:
            assert pool.drain(10.0)
        final = fresh.get(record.id)
        assert final.state == "done"
        reference = execute_job(TINY_SPEC, ExecutionDefaults())
        assert final.result["digest"] == reference["digest"]


class TestProcessIsolation:
    def test_rejects_unknown_isolation(self, tmp_path):
        with pytest.raises(ValueError):
            WorkerPool(JobQueue(tmp_path), ExecutionDefaults(),
                       isolation="container")

    def test_poison_job_is_quarantined_with_evidence(self, tmp_path,
                                                     monkeypatch):
        """A job that kills its worker on every attempt spends its
        crash budget and lands in quarantine, while an unrelated job
        sharing the queue completes normally."""
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="service.worker.job.poison", kind="segfault",
                      trigger=1, arms=1, probability=1.0)])
        monkeypatch.setenv(ENV_PLAN, plan.to_json())
        queue = JobQueue(tmp_path, max_crashes=2)
        poison = queue.submit({"netlist": TINY_BENCH, "name": "poison",
                               "seed": 5, "frames": 2, "patterns": 8})
        innocent = queue.submit(TINY_SPEC)
        pool = WorkerPool(queue, ExecutionDefaults(), pool_size=2,
                          poll_interval=0.02, isolation="process")
        pool.start()
        try:
            assert wait_for(lambda: queue.get(poison.id).terminal()
                            and queue.get(innocent.id).terminal(),
                            timeout=60.0)
        finally:
            assert pool.drain(10.0)

        quarantined = queue.get(poison.id)
        assert quarantined.state == "quarantined"
        assert quarantined.crashes == 2
        assert quarantined.crash_evidence
        assert quarantined.crash_evidence[-1]["signal"] == "SIGSEGV"
        assert "poison" in quarantined.error["message"]

        done = queue.get(innocent.id)
        assert done.state == "done"
        reference = execute_job(TINY_SPEC, ExecutionDefaults())
        assert done.result["digest"] == reference["digest"]
