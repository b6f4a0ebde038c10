"""Tests for the per-circuit parallel suite executor.

The determinism claims are stated as ``result_checksum`` equality: the
manifest digest over the time-masked payload (see
:mod:`repro.runtime.manifest`) must be identical for serial, parallel,
fault-injected-parallel and crashed-then-resumed runs of one config.

Circuit factories live at module level: the pool pickles them by
qualified name.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.circuits import random_sequential_circuit
from repro.errors import ExecutionError, WorkerCrashError
from repro.faultplane import hooks
from repro.faultplane.plan import FaultInjector, FaultPlan, FaultSpec
from repro.runtime.manifest import RunManifest
from repro.runtime.suite import SuiteConfig, run_suite

NAMES = ("ant", "bee", "cat", "dog", "elk", "fox")

CFG = SuiteConfig(circuits=NAMES, seed=0, n_frames=3, n_patterns=32)


def grid_factory(name):
    """Small deterministic circuits keyed (seeded) by name."""
    return random_sequential_circuit(
        name, n_gates=40, n_dffs=12, n_inputs=4, n_outputs=4,
        seed=sum(map(ord, name)))


def killer_factory(name):
    """Hard-kills the hosting process when asked for 'dog'."""
    if name == "dog":
        os._exit(86)  # SIGKILL semantics: no cleanup, no exception
    return grid_factory(name)


def digest_of(path):
    return RunManifest.load(path).result_digest()


class TestDeterministicMerge:
    def test_workers4_matches_serial_checksum(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        r1 = run_suite(CFG, manifest_path=serial,
                       circuit_factory=grid_factory, workers=1)
        r2 = run_suite(CFG, manifest_path=parallel,
                       circuit_factory=grid_factory, workers=4)
        assert digest_of(serial) == digest_of(parallel)
        assert [run.name for run in r2.runs] == list(NAMES)
        for a, b in zip(r1.runs, r2.runs):
            assert a.status == b.status
            assert a.row.keys() == b.row.keys()

    def test_no_shard_files_left_behind(self, tmp_path):
        manifest = tmp_path / "p.json"
        run_suite(CFG, manifest_path=manifest,
                  circuit_factory=grid_factory, workers=3)
        assert sorted(os.listdir(tmp_path)) == ["p.json"]

    def test_config_workers_knob_delegates(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        run_suite(CFG, manifest_path=serial, circuit_factory=grid_factory)
        cfg = SuiteConfig(**{**CFG.__dict__, "workers": 2})
        run_suite(cfg, manifest_path=parallel,
                  circuit_factory=grid_factory)
        assert digest_of(serial) == digest_of(parallel)

    def test_single_circuit_stays_serial(self):
        cfg = SuiteConfig(circuits=("ant",), seed=0, n_frames=3,
                          n_patterns=32)
        # killer_factory would nuke a worker; in-process it must not run
        result = run_suite(cfg, circuit_factory=grid_factory, workers=8)
        assert [run.name for run in result.runs] == ["ant"]

    def test_unpicklable_factory_rejected_up_front(self):
        local = {}
        with pytest.raises(ExecutionError, match="picklable"):
            run_suite(CFG, circuit_factory=lambda n: local[n], workers=2)


class TestOrderedProgress:
    def test_lines_surface_in_canonical_order(self, tmp_path):
        lines = []
        events = []
        run_suite(CFG, manifest_path=tmp_path / "p.json",
                  circuit_factory=grid_factory, workers=3,
                  progress=lines.append,
                  progress_events=lambda c, m: events.append(c))
        assert [line.split(":")[0] for line in lines] == list(NAMES)
        assert events == list(NAMES)

    def test_failures_surface_in_canonical_order(self, tmp_path):
        # 'cat' fails at the factory inside a worker: its FailureRecord
        # must come back in suite order, between bee's and dog's runs.
        result = run_suite(CFG, manifest_path=tmp_path / "p.json",
                           circuit_factory=flaky_factory, workers=3)
        assert [run.name for run in result.runs] == list(NAMES)
        assert result.runs[2].status == "failed:circuit"
        assert [f.circuit for f in result.failures] == ["cat"]

    def test_serial_progress_events_tag_circuits(self):
        events = []
        run_suite(CFG, circuit_factory=grid_factory, workers=1,
                  progress_events=lambda c, m: events.append((c, m)))
        assert [c for c, _ in events] == list(NAMES)
        assert all(m.startswith(f"{c}:") for c, m in events)


def flaky_factory(name):
    """Factory whose 'cat' circuit always fails to build."""
    if name == "cat":
        raise RuntimeError("cat got lost")
    return grid_factory(name)


class TestFaultPlanPropagation:
    PLAN = FaultPlan(seed=3, faults=[
        FaultSpec(site="solve.minobswin", kind="transient", trigger=1,
                  arms=-1, probability=1.0)])

    def test_firing_plan_matches_serial_checksum(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        with hooks.installed(FaultInjector(self.PLAN)):
            run_suite(CFG, manifest_path=serial,
                      circuit_factory=grid_factory, workers=1)
        with hooks.installed(FaultInjector(self.PLAN)):
            result = run_suite(CFG, manifest_path=parallel,
                               circuit_factory=grid_factory, workers=3)
        assert digest_of(serial) == digest_of(parallel)
        # the plan actually fired everywhere, in every circuit's task
        assert all(run.status == "minobswin=minobs"
                   for run in result.runs)
        assert len(result.fault_stats) == len(NAMES)  # one per circuit
        assert all(stats["injected"] > 0 for stats in result.fault_stats)

    def test_fault_sequence_independent_of_worker_count(self, tmp_path):
        # Each circuit's task draws from derive_job_plan(plan, name, 0),
        # so which worker runs which circuit cannot change what fires.
        plan = FaultPlan(seed=11, faults=[
            FaultSpec(site="solve.*", kind="transient", trigger=1,
                      arms=-1, probability=0.5)])
        cfg = SuiteConfig(**{**CFG.__dict__, "max_retries": 0})
        results, digests = [], []
        for workers in (2, 3):
            path = tmp_path / f"w{workers}.json"
            with hooks.installed(FaultInjector(plan)):
                results.append(run_suite(cfg, manifest_path=path,
                                         circuit_factory=grid_factory,
                                         workers=workers))
            digests.append(digest_of(path))
        assert digests[0] == digests[1]
        statuses = [[run.status for run in result.runs]
                    for result in results]
        assert statuses[0] == statuses[1]
        assert len(set(statuses[0])) > 1  # the plan really varied them


class TestWorkerCrash:
    def test_crash_salvages_and_resume_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        run_suite(CFG, manifest_path=serial,
                  circuit_factory=grid_factory, workers=1)
        with pytest.raises(WorkerCrashError, match="--resume"):
            run_suite(CFG, manifest_path=parallel,
                      circuit_factory=killer_factory, workers=2)
        # the manifest survived the crash and is loadable
        salvaged = RunManifest.load(parallel)
        assert set(salvaged.completed) < set(NAMES)
        # resuming with a healthy factory completes deterministically
        result = run_suite(CFG, manifest_path=parallel,
                           circuit_factory=grid_factory, workers=2)
        assert digest_of(serial) == digest_of(parallel)
        resumed = {run.name for run in result.runs if run.resumed}
        assert resumed == set(salvaged.completed)

    def test_kill_fault_in_worker_maps_to_crash_error(self, tmp_path):
        # Each task runs a fresh injector, so trigger=1: the first
        # visit in every task kills that worker.
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="suite.circuit.start", kind="kill",
                      trigger=1, arms=1)])
        with hooks.installed(FaultInjector(plan)) as injector:
            with pytest.raises(WorkerCrashError):
                run_suite(CFG, manifest_path=tmp_path / "p.json",
                          circuit_factory=grid_factory, workers=2)
            # parent's own injector must survive the worker's death
            assert hooks.active() is injector


class TestOrphanReaping:
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="relies on /proc and Linux reparenting")
    def test_workers_exit_when_parent_is_hard_killed(self, tmp_path):
        # SIGKILL the parallel parent mid-run: the pool workers must
        # notice the orphaning and exit instead of blocking forever on
        # the pool's call-queue pipe (where they would hold the
        # parent's stdio open and hang any supervising process).
        marker = f"orphan-marker-{os.getpid()}"
        script = (
            "import sys; sys.argv.append(%r)\n"
            "from repro.runtime.suite import SuiteConfig, run_suite\n"
            "import time\n"
            "def slow_factory(name):\n"
            "    time.sleep(60)\n"
            "cfg = SuiteConfig(circuits=('one', 'two'), n_frames=2,\n"
            "                  n_patterns=16)\n"
            "run_suite(cfg, circuit_factory=slow_factory, workers=2)\n"
            % marker)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=env, cwd=str(tmp_path))

        def workers_alive():
            alive = []
            for pid in os.listdir("/proc"):
                if not pid.isdigit() or int(pid) == proc.pid:
                    continue
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as handle:
                        cmdline = handle.read()
                except OSError:
                    continue
                if marker.encode() in cmdline:
                    alive.append(int(pid))
            return alive

        deadline = time.monotonic() + 20
        while not workers_alive():  # forked workers carry the marker
            assert proc.poll() is None, "parent died before forking"
            assert time.monotonic() < deadline, "workers never appeared"
            time.sleep(0.1)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while workers_alive():
            assert time.monotonic() < deadline, (
                f"orphaned workers survived the parent: "
                f"{workers_alive()}")
            time.sleep(0.2)
