"""Tests for the JSON run manifest (checkpoint/resume persistence)."""

import json
import os

import pytest

from repro.errors import ManifestError
from repro.records import checksum
from repro.runtime.executor import FailureRecord
from repro.runtime.manifest import (MANIFEST_FORMAT, MANIFEST_VERSION,
                                    CircuitRecord, RunManifest,
                                    mask_volatile, result_checksum)


def write_payload(path, payload):
    """Write a hand-built manifest payload with a valid checksum."""
    payload = dict(payload)
    payload["checksum"] = checksum(payload)
    path.write_text(json.dumps(payload))


@pytest.fixture
def record():
    return CircuitRecord(
        name="s13207",
        row={"circuit": "s13207", "FF": 23, "ser": 1.5e-6},
        report={"circuit": "s13207", "algorithms": {}},
        status="ok", elapsed=1.25,
        failures=[FailureRecord(circuit="s13207", stage="observability",
                                rung="signature-sim", error="RuntimeError",
                                message="x", elapsed=0.1, attempt=0,
                                action="retry")])


class TestRoundtrip:
    def test_save_load_preserves_everything(self, tmp_path, record):
        path = tmp_path / "m.json"
        manifest = RunManifest(config={"seed": 0, "scale": 0.02},
                               circuits=["s13207", "s15850.1"])
        manifest.record(record)
        manifest.save(path)

        loaded = RunManifest.load(path)
        assert loaded.config == {"seed": 0, "scale": 0.02}
        assert loaded.circuits == ["s13207", "s15850.1"]
        assert loaded.is_complete("s13207")
        assert not loaded.is_complete("s15850.1")
        got = loaded.completed["s13207"]
        assert got.row == record.row
        assert got.report == record.report
        assert got.status == "ok"
        assert got.elapsed == 1.25
        assert got.failures == record.failures

    def test_pending_preserves_order(self, tmp_path, record):
        manifest = RunManifest(config={}, circuits=["a", "s13207", "z"])
        assert manifest.pending() == ["a", "s13207", "z"]
        manifest.record(record)
        assert manifest.pending() == ["a", "z"]

    def test_save_is_valid_tagged_json(self, tmp_path, record):
        path = tmp_path / "m.json"
        manifest = RunManifest(config={}, circuits=["s13207"])
        manifest.record(record)
        manifest.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == MANIFEST_FORMAT
        assert payload["version"] == MANIFEST_VERSION
        assert "s13207" in payload["completed"]

    def test_save_leaves_no_temp_files(self, tmp_path, record):
        path = tmp_path / "m.json"
        manifest = RunManifest(config={}, circuits=["s13207"])
        manifest.save(path)
        manifest.record(record)
        manifest.save(path)
        assert os.listdir(tmp_path) == ["m.json"]


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            RunManifest.load(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(ManifestError, match="cannot read"):
            RunManifest.load(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ManifestError, match="not a run manifest"):
            RunManifest.load(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"format": MANIFEST_FORMAT,
                                    "version": 99}))
        with pytest.raises(ManifestError, match="version"):
            RunManifest.load(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "rec.json"
        write_payload(path, {
            "format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
            "config": {}, "circuits": ["x"],
            "completed": {"x": {"status": "ok"}},  # row missing
        })
        with pytest.raises(ManifestError, match="malformed record"):
            RunManifest.load(path)

    def test_missing_checksum(self, tmp_path):
        path = tmp_path / "nochk.json"
        path.write_text(json.dumps({
            "format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
            "config": {}, "circuits": [], "completed": {},
        }))
        with pytest.raises(ManifestError, match="no checksum"):
            RunManifest.load(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path, record):
        path = tmp_path / "flip.json"
        manifest = RunManifest(config={"seed": 0}, circuits=["s13207"])
        manifest.record(record)
        manifest.save(path)
        text = path.read_text().replace('"elapsed": 1.25',
                                        '"elapsed": 9.99')
        path.write_text(text)
        with pytest.raises(ManifestError, match="integrity check"):
            RunManifest.load(path)

    def test_missing_field_located(self, tmp_path):
        path = tmp_path / "nofield.json"
        write_payload(path, {
            "format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
            "config": {}, "completed": {},  # circuits missing
        })
        with pytest.raises(ManifestError, match="missing the 'circuits'"):
            RunManifest.load(path)

    def test_wrong_field_type_located(self, tmp_path):
        path = tmp_path / "badtype.json"
        write_payload(path, {
            "format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
            "config": {}, "circuits": "s13207", "completed": {},
        })
        with pytest.raises(ManifestError, match="'circuits' must be"):
            RunManifest.load(path)


class TestResultChecksum:
    def timed_record(self, elapsed):
        return CircuitRecord(
            name="s13207",
            row={"circuit": "s13207", "FF": 23, "ser": 1.5e-6,
                 "ref_time": elapsed, "new_time": elapsed * 2},
            report={"circuit": "s13207", "obs_runtime": elapsed,
                    "algorithms": {"minobs": {"objective": 7,
                                              "runtime": elapsed}},
                    "failures": [{"stage": "solve", "elapsed": elapsed}]},
            status="ok", elapsed=elapsed,
            failures=[FailureRecord(circuit="s13207", stage="solve",
                                    rung="minobswin", error="RuntimeError",
                                    message="x", elapsed=elapsed, attempt=0,
                                    action="degrade")])

    def manifest_with(self, elapsed):
        manifest = RunManifest(config={"seed": 0}, circuits=["s13207"])
        manifest.record(self.timed_record(elapsed))
        return manifest

    def test_invariant_under_wall_clock(self):
        fast, slow = self.manifest_with(0.5), self.manifest_with(99.0)
        assert fast.payload()["checksum"] != slow.payload()["checksum"]
        assert fast.result_digest() == slow.result_digest()

    def test_sensitive_to_results(self):
        base = self.manifest_with(1.0)
        other = self.manifest_with(1.0)
        other.completed["s13207"].row["ser"] = 9.9e-6
        assert base.result_digest() != other.result_digest()

    def test_mask_zeroes_every_time_field(self):
        masked = mask_volatile(self.manifest_with(42.0).payload())
        record = masked["completed"]["s13207"]
        assert record["elapsed"] == 0.0
        assert record["row"]["ref_time"] == 0.0
        assert record["row"]["new_time"] == 0.0
        assert record["report"]["obs_runtime"] == 0.0
        assert record["report"]["algorithms"]["minobs"]["runtime"] == 0.0
        assert record["report"]["failures"][0]["elapsed"] == 0.0
        assert record["failures"][0]["elapsed"] == 0.0
        # non-time fields untouched
        assert record["row"]["ser"] == 1.5e-6

    def test_mask_does_not_mutate_payload(self):
        payload = self.manifest_with(7.0).payload()
        mask_volatile(payload)
        assert payload["completed"]["s13207"]["elapsed"] == 7.0

    def test_both_checksums_stored_and_verified(self, tmp_path):
        path = tmp_path / "m.json"
        self.manifest_with(1.0).save(path)
        payload = json.loads(path.read_text())
        assert payload["checksum"] == checksum(payload)
        assert payload["result_checksum"] == result_checksum(payload)

    def test_tampered_result_checksum_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        self.manifest_with(1.0).save(path)
        payload = json.loads(path.read_text())
        payload["result_checksum"] = "sha256:" + "0" * 64
        payload["checksum"] = checksum(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="result-determinism"):
            RunManifest.load(path)

    def test_legacy_payload_without_result_checksum_loads(self, tmp_path):
        # forward compatibility: the field is verified only if present
        path = tmp_path / "m.json"
        write_payload(path, {
            "format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
            "config": {}, "circuits": [], "completed": {}})
        RunManifest.load(path)


class TestConfigCheck:
    def test_matching_config_accepted(self):
        manifest = RunManifest(config={"seed": 0, "scale": 0.02},
                               circuits=[])
        manifest.check_config({"seed": 0, "scale": 0.02})

    def test_mismatch_rejected_with_detail(self):
        manifest = RunManifest(config={"seed": 0, "scale": 0.02},
                               circuits=[])
        with pytest.raises(ManifestError) as excinfo:
            manifest.check_config({"seed": 7, "scale": 0.02})
        assert "seed" in str(excinfo.value)
        assert "refusing to resume" in str(excinfo.value)

    def test_unknown_keys_ignored(self):
        # forward/backward compatibility: only shared keys compared
        manifest = RunManifest(config={"seed": 0}, circuits=[])
        manifest.check_config({"seed": 0, "new_knob": True})
