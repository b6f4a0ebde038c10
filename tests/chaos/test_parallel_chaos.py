"""Kill-loop chaos for the per-circuit parallel executor.

Same contract as the serial crash-consistency suite, with workers=2:
kill the ``table1 --workers 2`` CLI through injected faults (the parent
dies right after a checkpoint while pool workers are mid-circuit),
restart with ``--resume``, and prove that the parent's per-circuit
checkpoints never tear the manifest, never double-run a circuit, and
converge to the same ``result_checksum`` as an uninterrupted serial
run.

All tests spawn child interpreters and are gated behind
``REPRO_CHAOS=1``.
"""

import os

import pytest

from repro.faultplane.chaos import (build_plan, restart_until_complete,
                                    run_kill_chaos, table1_argv)
from repro.faultplane.plan import FaultPlan, FaultSpec
from repro.runtime.manifest import RunManifest
from repro.runtime.suite import SuiteConfig, run_suite

heavy = pytest.mark.skipif(not os.environ.get("REPRO_CHAOS"),
                           reason="set REPRO_CHAOS=1 to run the "
                                  "chaos suite")

CIRCUITS = ["s13207", "s15850.1", "b14_1_opt"]
SCALE = 0.004
FRAMES = 2
PATTERNS = 64

CONFIG = SuiteConfig(circuits=tuple(CIRCUITS), scale=SCALE, seed=0,
                     n_frames=FRAMES, n_patterns=PATTERNS)


def serial_reference_digest(tmp_path):
    """Result digest of one clean in-process serial run."""
    path = str(tmp_path / "reference.json")
    run_suite(CONFIG, manifest_path=path)
    return RunManifest.load(path).result_digest()


@heavy
class TestParallelKillLoop:
    def test_worker_kills_salvage_and_converge_to_serial_digest(
            self, tmp_path):
        # every checkpoint kills the parent: each attempt makes durable
        # progress of one circuit, then dies with workers in flight.
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="suite.checkpoint", kind="kill",
                      trigger=1, arms=-1)])
        workdir = str(tmp_path / "kill2")
        manifest = os.path.join(workdir, "m.json")
        argv = table1_argv(CIRCUITS, manifest, scale=SCALE,
                           frames=FRAMES, patterns=PATTERNS, workers=2)
        result = restart_until_complete(argv, plan, manifest, workdir,
                                        max_restarts=15)

        assert result.kills >= 1
        assert result.attempts[-1].exit_code == 0
        assert result.double_runs == []
        assert result.torn_manifests == 0
        assert all(a.manifest_loadable for a in result.attempts)

        loaded = RunManifest.load(manifest)
        assert sorted(loaded.completed) == sorted(CIRCUITS)
        assert all(rec.status == "ok"
                   for rec in loaded.completed.values())
        # the battered parallel manifest equals a clean serial run
        assert loaded.result_digest() == \
            serial_reference_digest(tmp_path)

    def test_no_shard_files_survive_the_harness(self, tmp_path):
        plan = FaultPlan(seed=1, faults=[
            FaultSpec(site="suite.checkpoint", kind="kill",
                      trigger=1, arms=-1)])
        workdir = str(tmp_path / "shards")
        manifest = os.path.join(workdir, "m.json")
        argv = table1_argv(CIRCUITS, manifest, scale=SCALE,
                           frames=FRAMES, patterns=PATTERNS, workers=2)
        result = restart_until_complete(argv, plan, manifest, workdir,
                                        max_restarts=15)
        assert result.attempts[-1].exit_code == 0
        # completed run leaves no shard-style residue next to the
        # manifest
        leftovers = [n for n in os.listdir(workdir)
                     if ".shard-" in n]
        assert leftovers == []


@heavy
class TestRunKillChaosParallel:
    def test_scorecard_clean_with_two_workers(self, tmp_path):
        config = SuiteConfig(circuits=tuple(CIRCUITS), scale=SCALE,
                             seed=0, n_frames=FRAMES,
                             n_patterns=PATTERNS, workers=2)
        plan = build_plan(seed=0, sites=["suite.checkpoint"],
                          kinds=[], kill_prob=1.0)
        harness, card = run_kill_chaos(config, plan,
                                       str(tmp_path / "wd"),
                                       max_restarts=15)
        assert card.kills >= 1
        assert card.rows_total == len(CIRCUITS)
        assert card.wrong_answers == 0, card.wrong_details
        assert harness.attempts[-1].exit_code == 0
