"""Tests for the in-process chaos harness, verification and scorecard.

The detection logic (``verify_run``) is unit-tested against fabricated
wrong rows -- the recovery runtime is good enough that wrong answers do
not escape through normal paths, so we manufacture them.  End-to-end
recovery runs per fault kind are gated behind ``REPRO_CHAOS=1``.
"""

import os
from types import SimpleNamespace

import pytest

from repro.circuits.suites import DEFAULT_SCALE
from repro.faultplane import chaos
from repro.faultplane.chaos import (ChaosScorecard, build_plan,
                                    format_scorecard, labels_from_status,
                                    mask_report_times, run_chaos,
                                    strip_times, verify_run)
from repro.faultplane.plan import FaultPlan, FaultSpec
from repro.runtime.executor import FailureRecord
from repro.runtime.manifest import RunManifest
from repro.runtime.suite import SuiteConfig

from .conftest import micro_factory, tiny_factory

heavy = pytest.mark.skipif(not os.environ.get("REPRO_CHAOS"),
                           reason="set REPRO_CHAOS=1 to run the "
                                  "chaos suite")

ALGOS = ("minobs", "minobswin")


def fake_run(name="alpha", status="ok", **row):
    row.setdefault("circuit", name)
    return SimpleNamespace(name=name, status=status, row=row)


class TestHelpers:
    def test_strip_times_drops_only_clock_columns(self):
        row = {"circuit": "a", "FF": 3, "ref_time": 1.0, "new_time": 2.0}
        assert strip_times(row) == {"circuit": "a", "FF": 3}

    def test_mask_report_times(self):
        line = "alpha     3   1.5e-06   0.12   0.34"
        assert mask_report_times(line).endswith("T   T")

    def test_labels_from_status_parses_pairs(self):
        labels = labels_from_status(
            "minobs=identity;minobswin=minobswin:partial", ALGOS)
        assert labels == {"minobs": "identity",
                          "minobswin": "minobswin:partial"}

    def test_labels_from_status_defaults(self):
        assert labels_from_status("", ALGOS) == {
            "minobs": "minobs", "minobswin": "minobswin"}


class TestVerifyRun:
    def test_ok_row_matching_reference_is_clean(self):
        run = fake_run(FF=3, ser=1.5, ref_time=0.1)
        ref = fake_run(FF=3, ser=1.5, ref_time=9.9)
        assert verify_run(run, ref, ALGOS) == []

    def test_ok_row_differing_from_reference_is_wrong(self):
        run = fake_run(FF=3, ser=1.5)
        ref = fake_run(FF=3, ser=2.5)
        issues = verify_run(run, ref, ALGOS)
        assert len(issues) == 1
        assert "differs from the clean reference" in issues[0]

    def test_failed_rows_are_losses_not_wrong_answers(self):
        run = fake_run(status="failed:pipeline", FF=0)
        ref = fake_run(FF=3, ser=1.5)
        assert verify_run(run, ref, ALGOS) == []

    def test_identity_rung_must_reproduce_original(self):
        run = fake_run(status="minobs=identity;minobswin=minobswin",
                       FF=3, ser=1.5, ref_ff=4, ref_ser=1.5)
        issues = verify_run(run, fake_run(), ALGOS)
        assert len(issues) == 1
        assert "identity rung must reproduce" in issues[0]

    def test_identity_rung_matching_original_is_clean(self):
        run = fake_run(status="minobs=identity;minobswin=minobswin",
                       FF=3, ser=1.5, ref_ff=3, ref_ser=1.5)
        assert verify_run(run, fake_run(), ALGOS) == []


class TestBuildPlan:
    def test_default_covers_recoverable_kinds_everywhere(self):
        plan = build_plan(seed=1)
        assert plan.seed == 1
        kinds = {spec.kind for spec in plan.faults}
        assert "kill" not in kinds
        assert "corrupt-labels" not in kinds
        assert {"transient", "torn"} <= kinds

    def test_site_glob_restricts(self):
        plan = build_plan(sites=["solve.*"])
        assert all(spec.site.startswith("solve.")
                   for spec in plan.faults)

    def test_kind_restriction(self):
        plan = build_plan(kinds=["oserror"])
        assert plan.faults
        assert all(spec.kind == "oserror" for spec in plan.faults)

    def test_kill_prob_arms_unlimited_kill_specs(self):
        plan = build_plan(kill_prob=0.25)
        kills = [s for s in plan.faults if s.kind == "kill"]
        assert kills
        assert all(s.arms == -1 and s.probability == 0.25
                   for s in kills)


class TestScorecard:
    def test_tally_failures_maps_actions(self):
        card = ChaosScorecard(seed=0)
        records = [
            FailureRecord(circuit="a", stage="s", rung="r",
                          error="RuntimeError", message="", elapsed=0.0,
                          attempt=0, action=action)
            for action in ("retry", "retry", "degrade", "gave-up",
                           "partial-result")]
        records.append(FailureRecord(
            circuit="a", stage="s", rung="r",
            error="VerificationError", message="", elapsed=0.0,
            attempt=0, action="degrade"))
        card.tally_failures(records)
        assert card.retried == 2
        assert card.degraded == 2
        assert card.gave_up == 1
        assert card.partial_results == 1
        assert card.quarantined == 1

    def test_tally_stats_counts_kills(self):
        card = ChaosScorecard(seed=0)
        card.tally_stats({"injected": 3, "by_site": {
            "suite.checkpoint/kill": 2,
            "solve.minobswin/transient": 1}})
        assert card.injected == 3 and card.kills == 2

    def test_to_dict_schema(self):
        card = ChaosScorecard(seed=7)
        payload = card.to_dict()
        assert payload["format"] == "repro-chaos-scorecard"
        assert payload["version"] == 1
        assert payload["seed"] == 7
        assert set(payload["rows"]) == {"total", "ok", "degraded",
                                        "failed", "resumed"}
        assert set(payload["oracle"]) == {"checked", "skipped"}

    def test_format_scorecard_mentions_wrongness(self):
        card = ChaosScorecard(seed=0, wrong_answers=1,
                              wrong_details=["alpha: bogus"])
        text = format_scorecard(card)
        assert "wrong answers   : 1" in text
        assert "!! alpha: bogus" in text


class TestRunChaosSmoke:
    def test_transient_fault_is_retried_and_verified(self, cfg):
        plan = build_plan(seed=0, sites=["solve.minobswin"],
                          kinds=["transient"])
        suite, card = run_chaos(cfg, plan,
                                circuit_factory=tiny_factory)
        assert card.injected >= 1
        assert card.retried >= 1
        assert card.wrong_answers == 0
        assert all(run.status == "ok" for run in suite.runs)

    def test_oracle_with_default_scale(self):
        # scale=None means the suite default, for the oracle's circuits
        # as much as for the suite run's.
        suite, card = run_chaos(
            SuiteConfig(circuits=("s13207",), n_frames=2, n_patterns=32),
            build_plan(seed=0, sites=["sim.observability"],
                       kinds=["transient"]),
            verify=False, oracle=True)
        assert [run.name for run in suite.runs] == ["s13207"]
        assert card.wrong_answers == 0

    def test_kill_chaos_passes_resolved_scale(self, monkeypatch,
                                              tmp_path):
        seen = {}

        def capture(argv, *args, **kwargs):
            seen["argv"] = argv
            raise RuntimeError("stop before spawning")

        monkeypatch.setattr(chaos, "restart_until_complete", capture)
        with pytest.raises(RuntimeError, match="stop before"):
            chaos.run_kill_chaos(SuiteConfig(circuits=("s13207",)),
                                 build_plan(seed=0), str(tmp_path))
        argv = seen["argv"]
        assert argv[argv.index("--scale") + 1] == repr(DEFAULT_SCALE)


@heavy
class TestRecoveryPerKind:
    @pytest.mark.parametrize("kind", ["transient", "deadline", "memory",
                                      "oserror", "torn", "garbage"])
    def test_kind_recovers_without_wrong_answers(self, cfg, kind,
                                                 tmp_path):
        # trigger=2 for oserror: an OSError on the *creation* save is a
        # clean CLI error by design (unwritable --resume path), the
        # recoverable path is the per-circuit checkpoint save.
        plan = build_plan(seed=11, kinds=[kind],
                          trigger=2 if kind == "oserror" else 1)
        manifest = str(tmp_path / "m.json")
        suite, card = run_chaos(cfg, plan, circuit_factory=tiny_factory,
                                manifest_path=manifest)
        assert card.injected >= 1, f"no {kind} fault reached a site"
        assert card.wrong_answers == 0
        assert len(suite.runs) == len(cfg.circuits)

    def test_all_recoverable_kinds_at_once(self, cfg, tmp_path):
        plan = build_plan(seed=3, trigger=2)
        suite, card = run_chaos(cfg, plan, circuit_factory=tiny_factory,
                                manifest_path=str(tmp_path / "m.json"))
        assert card.wrong_answers == 0


@heavy
class TestNegativeControl:
    def test_corrupt_labels_never_reported_as_ok(self, micro_cfg):
        """The one kind that manufactures wrong answers: the guards and
        the differential check must catch every instance."""
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="solve.result.labels", kind="corrupt-labels",
                      arms=-1)])
        suite, card = run_chaos(micro_cfg, plan,
                                circuit_factory=micro_factory,
                                oracle=True)
        assert card.injected >= 1
        # every corruption was caught: quarantined/degraded, not wrong
        assert card.wrong_answers == 0
        assert card.quarantined + card.degraded >= 1
        assert all(run.status != "ok" or run.row is not None
                   for run in suite.runs)


@heavy
class TestCheckpointDegradation:
    def test_oserror_on_checkpoint_warns_and_self_repairs(self, cfg,
                                                          tmp_path):
        # trigger=2: the creation save succeeds, alpha's checkpoint save
        # fails (warning + continue), beta's save rewrites everything.
        plan = FaultPlan(seed=0, faults=[
            FaultSpec(site="manifest.save.enter", kind="oserror",
                      trigger=2, arms=1)])
        manifest = str(tmp_path / "m.json")
        notes = []
        suite, card = run_chaos(cfg, plan, circuit_factory=tiny_factory,
                                manifest_path=manifest,
                                progress=notes.append)
        assert any("checkpoint save failed" in n for n in notes)
        loaded = RunManifest.load(manifest)  # must not be torn
        assert sorted(loaded.completed) == ["alpha", "beta"]
        assert card.wrong_answers == 0
