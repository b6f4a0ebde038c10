"""Crash-consistency tests: kill the ``table1`` CLI at injected points
in a subprocess, restart with ``--resume``, and prove the checkpoint
protocol never tears, never double-runs a circuit, and produces a
report identical to an uninterrupted run.

All tests here spawn child interpreters and are gated behind
``REPRO_CHAOS=1``.
"""

import os
import subprocess

import pytest

from repro.faultplane.chaos import (build_plan, mask_report_times,
                                    reseeded, restart_until_complete,
                                    run_kill_chaos, table1_argv)
from repro.faultplane.plan import KILL_EXIT_CODE, FaultPlan, FaultSpec
from repro.runtime.manifest import RunManifest
from repro.runtime.suite import SuiteConfig

heavy = pytest.mark.skipif(not os.environ.get("REPRO_CHAOS"),
                           reason="set REPRO_CHAOS=1 to run the "
                                  "chaos suite")

CIRCUITS = ["s13207", "s15850.1"]
SCALE = 0.004
FRAMES = 2
PATTERNS = 64


def clean_stdout(manifest_dir):
    """One uninterrupted run of the same configuration, for reference."""
    os.makedirs(manifest_dir, exist_ok=True)
    argv = table1_argv(CIRCUITS, os.path.join(manifest_dir, "ref.json"),
                       scale=SCALE, frames=FRAMES, patterns=PATTERNS)
    src_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env = dict(os.environ, PYTHONPATH=src_root)
    env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@heavy
class TestKillAtCheckpoint:
    def test_resume_completes_and_matches_uninterrupted_run(
            self, tmp_path):
        # kill after *every* successful checkpoint save: each attempt
        # computes exactly one new circuit, then dies.
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="suite.checkpoint", kind="kill",
                      trigger=1, arms=-1)])
        workdir = str(tmp_path / "kill")
        manifest = os.path.join(workdir, "m.json")
        argv = table1_argv(CIRCUITS, manifest, scale=SCALE,
                           frames=FRAMES, patterns=PATTERNS)
        result = restart_until_complete(argv, reseeded(plan), workdir,
                                        manifest_path=manifest,
                                        max_restarts=10)

        assert result.kills == len(CIRCUITS)
        assert result.attempts[-1].exit_code == 0
        assert result.double_runs == []
        assert result.torn_manifests == 0
        # the manifest was loadable after every single attempt
        assert all(a.manifest_loadable for a in result.attempts)
        # deterministic fault sequence: one circuit per killed attempt
        for attempt in result.attempts[:-1]:
            assert attempt.exit_code == KILL_EXIT_CODE

        reference = clean_stdout(str(tmp_path / "ref"))
        assert mask_report_times(result.stdout) == \
            mask_report_times(reference)

    def test_final_manifest_holds_every_circuit(self, tmp_path):
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="suite.checkpoint", kind="kill",
                      trigger=1, arms=-1)])
        workdir = str(tmp_path / "kill")
        manifest = os.path.join(workdir, "m.json")
        argv = table1_argv(CIRCUITS, manifest, scale=SCALE,
                           frames=FRAMES, patterns=PATTERNS)
        restart_until_complete(argv, reseeded(plan), workdir,
                               manifest_path=manifest,
                               max_restarts=10)
        loaded = RunManifest.load(manifest)
        assert sorted(loaded.completed) == sorted(CIRCUITS)
        assert all(rec.status == "ok"
                   for rec in loaded.completed.values())


@heavy
class TestKillMidManifestWrite:
    def test_torn_write_never_surfaces(self, tmp_path):
        # die *inside* the checkpoint write (after half the payload):
        # the atomic temp-file + rename protocol must leave the old
        # manifest intact, so every resume still loads cleanly.
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="manifest.save.midwrite", kind="kill",
                      trigger=2, arms=-1)])
        workdir = str(tmp_path / "midwrite")
        manifest = os.path.join(workdir, "m.json")
        argv = table1_argv(CIRCUITS, manifest, scale=SCALE,
                           frames=FRAMES, patterns=PATTERNS)
        result = restart_until_complete(argv, reseeded(plan), workdir,
                                        manifest_path=manifest,
                                        max_restarts=10)
        assert result.kills >= 1
        assert result.torn_manifests == 0
        assert all(a.manifest_loadable for a in result.attempts)
        assert result.double_runs == []
        assert result.attempts[-1].exit_code == 0
        loaded = RunManifest.load(manifest)
        assert sorted(loaded.completed) == sorted(CIRCUITS)


@heavy
class TestRunKillChaos:
    def test_scorecard_reports_kills_and_no_wrong_answers(self,
                                                          tmp_path):
        config = SuiteConfig(circuits=tuple(CIRCUITS), scale=SCALE,
                             seed=0, n_frames=FRAMES,
                             n_patterns=PATTERNS)
        plan = build_plan(seed=0, sites=["suite.checkpoint"],
                          kinds=[], kill_prob=1.0)
        harness, card = run_kill_chaos(config, plan,
                                       str(tmp_path / "wd"),
                                       max_restarts=10)
        assert card.kills == len(CIRCUITS)
        assert card.restarts == card.kills
        assert card.rows_total == len(CIRCUITS)
        assert card.wrong_answers == 0, card.wrong_details
        assert harness.attempts[-1].exit_code == 0
