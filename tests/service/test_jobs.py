"""Job records: transitions, durable persistence, digest parity."""

import json
import os

import pytest

from repro.errors import JobStateError
from repro.runtime.manifest import result_checksum
from repro.service.jobs import (JOB_STATES, TRANSITIONS, JobRecord,
                                job_result_digest, load_job, new_job_id,
                                save_job)


def make_record(**overrides):
    fields = dict(id="j-000000000001", spec={"circuit": "s13207"},
                  submitted_at=100.0, updated_at=100.0)
    fields.update(overrides)
    return JobRecord(**fields)


class TestTransitions:
    def test_happy_path(self):
        record = make_record()
        for state in ("leased", "running", "done"):
            record.transition(state)
        assert record.terminal()

    def test_terminal_states_are_sinks(self):
        for terminal in ("done", "failed", "quarantined"):
            assert TRANSITIONS[terminal] == ()
            record = make_record(state=terminal)
            for state in JOB_STATES:
                with pytest.raises(JobStateError):
                    record.transition(state)

    def test_completed_job_cannot_be_requeued(self):
        record = make_record(state="done")
        with pytest.raises(JobStateError) as excinfo:
            record.transition("queued")
        assert excinfo.value.job_id == record.id

    def test_queued_cannot_complete_directly(self):
        # The drain-race guard: a released job must be re-leased before
        # any worker outcome is accepted.
        with pytest.raises(JobStateError):
            make_record().transition("done")

    def test_unknown_state_rejected(self):
        with pytest.raises(JobStateError):
            make_record().transition("paused")


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        record = make_record(state="running", attempts=2, requeues=1,
                             lease={"worker": "w0", "expires_at": 123.0})
        path = tmp_path / "job.json"
        save_job(record, path)
        loaded = load_job(path)
        assert loaded.to_dict() == record.to_dict()

    def test_tampered_record_rejected(self, tmp_path):
        path = tmp_path / "job.json"
        save_job(make_record(), path)
        payload = json.loads(path.read_text())
        payload["state"] = "done"
        path.write_text(json.dumps(payload))
        with pytest.raises(JobStateError, match="integrity"):
            load_job(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "job.json"
        save_job(make_record(), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(JobStateError):
            load_job(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(JobStateError, match="not a job record"):
            load_job(path)

    def test_no_temp_debris_on_success(self, tmp_path):
        save_job(make_record(), tmp_path / "job.json")
        assert os.listdir(tmp_path) == ["job.json"]

    def test_ids_unique(self):
        ids = {new_job_id() for _ in range(100)}
        assert len(ids) == 100


class TestSchemaVersions:
    def test_v2_roundtrip_keeps_trace_context(self, tmp_path):
        record = make_record(trace_id="t-4f00ba11", span_id="42")
        path = tmp_path / "job.json"
        save_job(record, path)
        assert json.loads(path.read_text())["version"] == 2
        loaded = load_job(path)
        assert loaded.trace_id == "t-4f00ba11"
        assert loaded.span_id == "42"

    def test_v1_record_loads_with_no_trace_context(self, tmp_path):
        # A record written by the previous schema: no trace fields at
        # all.  It must load cleanly with the trace context absent.
        from repro.records import checksum

        path = tmp_path / "job.json"
        save_job(make_record(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 1
        del payload["trace_id"], payload["span_id"], payload["checksum"]
        payload["checksum"] = checksum(payload)
        path.write_text(json.dumps(payload))
        loaded = load_job(path)
        assert loaded.trace_id is None and loaded.span_id is None
        assert loaded.id == "j-000000000001"

    def test_unknown_future_version_rejected(self, tmp_path):
        from repro.records import checksum

        path = tmp_path / "job.json"
        save_job(make_record(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 3
        del payload["checksum"]
        payload["checksum"] = checksum(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(JobStateError, match="version"):
            load_job(path)

    def test_untraced_record_omits_nothing_but_carries_none(self):
        record = make_record()
        data = record.to_dict()
        assert data["trace_id"] is None and data["span_id"] is None
        assert JobRecord.from_dict(data).trace_id is None


class TestResultDigest:
    RECORD = {
        "row": {"circuit": "x", "FF": 10, "ref_time": 1.5, "new_time": 2.5},
        "report": None, "status": "ok", "elapsed": 3.25, "failures": [],
    }

    def test_matches_single_circuit_manifest_checksum(self):
        digest = job_result_digest("x", self.RECORD)
        assert digest == result_checksum({"completed": {"x": self.RECORD}})

    def test_invariant_under_wall_clock_fields(self):
        base = job_result_digest("x", self.RECORD)
        warm = json.loads(json.dumps(self.RECORD))
        warm["elapsed"] = 0.001
        warm["row"]["ref_time"] = 9.0
        warm["row"]["new_time"] = 0.1
        assert job_result_digest("x", warm) == base

    def test_sensitive_to_result_fields(self):
        base = job_result_digest("x", self.RECORD)
        wrong = json.loads(json.dumps(self.RECORD))
        wrong["row"]["FF"] = 11
        assert job_result_digest("x", wrong) != base
