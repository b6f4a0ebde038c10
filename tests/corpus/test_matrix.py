"""The scenario matrix: digest invariance, fault parity, resume.

The central contract under test: a cell digest is a function of
``(tier, scenario, circuit)`` and *nothing else* -- not worker count,
not cache warmth, not checkpoint history, not recovered infrastructure
faults.  Tier-1 exercises a two-circuit subset of one scenario to stay
fast; the full 36-cell table is covered by the golden test and the CI
``corpus`` job.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.corpus import run_matrix
from repro.corpus.matrix import (
    GOLDEN_BASENAME,
    cells_from_manifest,
    compare_digest_tables,
    load_digest_table,
    scenario_manifest_path,
    write_digest_table,
)
from repro.errors import ManifestError, NetlistError
from repro.faultplane import hooks
from repro.faultplane.chaos import (build_plan, cli_argv, reseeded,
                                    restart_until_complete)
from repro.faultplane.plan import FaultInjector, FaultPlan, FaultSpec
from repro.runtime.manifest import RunManifest

heavy = pytest.mark.skipif(not os.environ.get("REPRO_CHAOS"),
                           reason="set REPRO_CHAOS=1 to run the "
                                  "chaos suite")

#: The tier-1 subset: the two fastest small-tier circuits, one scenario.
SUBSET = dict(circuits=("cslow_a", "mesh_a"),
              scenarios=("shallow-both",))


@pytest.fixture(scope="module")
def clean():
    """One clean serial run of the subset -- the reference digests."""
    return run_matrix("small", **SUBSET)


class TestDigestInvariance:
    def test_clean_run_is_all_ok(self, clean):
        assert len(clean.cells) == 2
        assert set(clean.statuses.values()) == {"ok"}

    def test_serial_rerun_matches(self, clean):
        again = run_matrix("small", **SUBSET)
        assert again.cells == clean.cells

    def test_two_workers_match_serial(self, clean):
        parallel = run_matrix("small", workers=2, **SUBSET)
        assert parallel.cells == clean.cells
        assert parallel.statuses == clean.statuses

    def test_cold_then_warm_cache_match(self, clean, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_matrix("small", cache=True, cache_dir=cache_dir,
                          **SUBSET)
        warm = run_matrix("small", cache=True, cache_dir=cache_dir,
                          **SUBSET)
        assert cold.cells == clean.cells
        assert warm.cells == clean.cells

    def test_unknown_scenario_rejected(self):
        with pytest.raises(NetlistError, match="unknown matrix scenario"):
            run_matrix("small", scenarios=("no-such-plane",))

    def test_unknown_circuit_rejected(self):
        with pytest.raises(NetlistError, match="no circuit"):
            run_matrix("small", circuits=("pipe_a", "bogus"),
                       scenarios=("shallow-both",))


class TestFaultParity:
    """Recovered infrastructure faults leave every digest unchanged."""

    def test_transient_faults_retried_to_identical_digests(self, clean):
        # solve.* and ser.* retries replay the same deterministic
        # computation, so parity must be exact.  (sim.observability is
        # the one stage whose retry *reseeds* -- a recovered obs fault
        # legitimately changes the answer and annotates the status, so
        # it stays out of a parity plan.)
        plan = build_plan(seed=3, sites=["solve.*", "ser.*"],
                          kinds=["transient"], trigger=2, arms=1)
        injector = FaultInjector(plan)
        with hooks.installed(injector):
            faulted = run_matrix("small", max_retries=3, **SUBSET)
        assert any(injector.fired), "the plan never fired: vacuous test"
        assert faulted.cells == clean.cells
        assert faulted.statuses == clean.statuses
        # the recovery left scars in the records, just not in the digests
        failures = [f for suite in faulted.suites.values()
                    for f in suite.failures]
        assert failures


class TestResume:
    def test_missing_record_resumes_under_two_workers(self, clean,
                                                       tmp_path):
        out_dir = str(tmp_path / "matrix")
        first = run_matrix("small", out_dir=out_dir, **SUBSET)
        assert first.cells == clean.cells
        manifest_path = scenario_manifest_path(out_dir, "small",
                                               "shallow-both")

        # A kill between two checkpoints leaves a manifest missing the
        # records that were still unfinished -- here, exactly one.
        manifest = RunManifest.load(manifest_path)
        del manifest.completed["mesh_a"]
        manifest.save(manifest_path)

        resumed = run_matrix("small", out_dir=out_dir, workers=2,
                             **SUBSET)
        # no duplicate, no missing: both cells, each exactly once, and
        # only the missing one was computed
        assert sorted(resumed.cells) == sorted(clean.cells)
        assert resumed.cells == clean.cells
        suite = resumed.suites["shallow-both"]
        by_name = {run.name: run for run in suite.runs}
        assert sorted(by_name) == ["cslow_a", "mesh_a"]
        assert by_name["cslow_a"].resumed
        assert not by_name["mesh_a"].resumed

    def test_cells_recoverable_from_checkpoint_manifest(self, clean,
                                                        tmp_path):
        out_dir = str(tmp_path / "matrix")
        run_matrix("small", out_dir=out_dir, **SUBSET)
        manifest_path = scenario_manifest_path(out_dir, "small",
                                               "shallow-both")
        assert cells_from_manifest(manifest_path, "shallow-both") == \
            clean.cells

    def test_partial_checkpoint_completes_without_recompute(self, clean,
                                                            tmp_path):
        out_dir = str(tmp_path / "matrix")
        run_matrix("small", out_dir=out_dir, **SUBSET)
        manifest_path = scenario_manifest_path(out_dir, "small",
                                               "shallow-both")
        manifest = RunManifest.load(manifest_path)
        del manifest.completed["cslow_a"]
        manifest.save(manifest_path)
        resumed = run_matrix("small", out_dir=out_dir, **SUBSET)
        assert resumed.cells == clean.cells
        suite = resumed.suites["shallow-both"]
        by_name = {run.name: run for run in suite.runs}
        assert by_name["mesh_a"].resumed
        assert not by_name["cslow_a"].resumed  # the one deleted cell


class TestDigestTables:
    def test_write_load_round_trip(self, clean, tmp_path):
        path = tmp_path / GOLDEN_BASENAME
        write_digest_table(clean.digest_table(), path)
        loaded = load_digest_table(path)
        assert loaded["cells"] == clean.cells
        assert compare_digest_tables(clean.digest_table(), loaded) == []

    def test_tampered_table_fails_integrity(self, clean, tmp_path):
        path = tmp_path / GOLDEN_BASENAME
        write_digest_table(clean.digest_table(), path)
        payload = json.loads(path.read_text())
        key = sorted(payload["cells"])[0]
        payload["cells"][key] = "sha256:" + "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="integrity"):
            load_digest_table(path)

    def test_compare_reports_every_kind_of_drift(self, clean):
        table = clean.digest_table()
        golden = json.loads(json.dumps(table))
        key = sorted(golden["cells"])[0]
        golden["cells"][key] = "sha256:" + "f" * 64
        golden["cells"]["shallow-both/ghost"] = "sha256:" + "e" * 64
        extra = json.loads(json.dumps(table))
        extra["cells"]["shallow-both/extra"] = "sha256:" + "d" * 64
        problems = compare_digest_tables(extra, golden)
        assert any("differs from golden" in p for p in problems)
        assert any("missing from this run" in p for p in problems)
        assert any("not in the golden table" in p for p in problems)


@heavy
class TestKillChaos:
    """Subprocess kill loop: the matrix CLI survives hard kills."""

    def test_killed_matrix_cli_converges_to_clean_digests(self, clean,
                                                          tmp_path):
        workdir = str(tmp_path / "kill")
        out_dir = os.path.join(workdir, "matrix")
        manifest_path = scenario_manifest_path(out_dir, "small",
                                               "shallow-both")
        # Kill after every checkpoint: each launch saves one cell, then
        # dies.  (A probabilistic kill depends on its seed's draws: at
        # p=0.6, Random(0) puts both parent checkpoints above 0.6.)
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="suite.checkpoint", kind="kill",
                      trigger=1, arms=-1)])
        argv = cli_argv("matrix", "small", "--out", out_dir,
                        "--circuits", *SUBSET["circuits"],
                        "--scenarios", *SUBSET["scenarios"],
                        "--workers", "2", "-v")
        result = restart_until_complete(argv, reseeded(plan), workdir,
                                        manifest_path=manifest_path,
                                        max_restarts=20)
        assert result.attempts[-1].exit_code == 0
        assert result.kills == len(SUBSET["circuits"])
        assert result.torn_manifests == 0
        assert cells_from_manifest(manifest_path, "shallow-both") == \
            clean.cells
