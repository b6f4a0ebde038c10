"""JSON run manifests: checkpoint after every circuit, resume on restart.

A suite run writes one manifest file.  After each circuit completes (or
fails and is degraded) the manifest is atomically rewritten, so killing
the process at any point loses at most the circuit in flight.  Re-running
with the same configuration resumes: completed circuits are loaded from
the manifest verbatim -- their stored rows are the exact dictionaries the
report formatter consumes, so a resumed run reproduces a byte-identical
final report.

Schema (``format: repro-run-manifest``, version 3)::

    {
      "format": "repro-run-manifest",
      "version": 3,
      "checksum": "sha256:<hex>",             // over the canonical JSON
      "result_checksum": "sha256:<hex>",      // wall-clock fields masked
      "config": { ...suite fingerprint (names, scale, seed, ...)... },
      "circuits": ["s13207", ...],            // planned order
      "completed": {
        "s13207": {
          "row": { ...Table I row dict... },
          "report": { ...repro.reporting result dict... } | null,
          "status": "ok" | "<stage>=<rung>;...",
          "elapsed": 12.3,
          "failures": [ { ...FailureRecord... }, ... ]
        }, ...
      }
    }

Two checksums serve two different claims.  ``checksum`` is the
*integrity* digest over everything (minus the checksum fields
themselves): it detects torn or corrupted files.  ``result_checksum``
is the *determinism* digest: the same canonical JSON with every
wall-clock field (record ``elapsed``, row ``ref_time``/``new_time``,
report ``obs_runtime`` and per-algorithm ``runtime``, failure
``elapsed``) masked to zero.  All result-determining quantities are
pure functions of the suite configuration, so two runs of the same
config -- serial, parallel at any worker count, or resumed
after a crash -- produce the *same* ``result_checksum`` even though
their timings (and hence their ``checksum``) differ.  The parallel
executor (:mod:`repro.runtime.parallel`) leans on this: its
determinism guarantee is stated and tested as result-checksum
equality with a ``workers=1`` run.

Durability protocol: the payload (checksum included) is written to a
temp file in the target directory, the temp file is flushed and
``fsync``\\ ed, then atomically renamed over the manifest, and the
directory entry is fsynced best-effort.  A crash at *any* point
therefore leaves either the previous manifest or the new one -- never a
torn file -- and the checksum turns any remaining corruption (filesystem
lies, hand edits) into a clear :class:`~repro.errors.ManifestError`
instead of a resume from garbage.  The write path is instrumented with
``manifest.save.*`` fault-injection sites (see
:mod:`repro.faultplane.sites`) and the chaos suite kills the process at
each of them to prove the claim.

See ``docs/file_formats.md`` for the full field reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

from ..errors import ManifestError
from ..faultplane.hooks import fault_point, filter_bytes
from .executor import FailureRecord

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 3

#: Checksum fields excluded from both digests (they describe the file,
#: not the run).
_CHECKSUM_KEYS = ("checksum", "result_checksum")

#: Wall-clock fields of a Table I row (the only nondeterministic row
#: columns; see :data:`repro.faultplane.chaos.TIME_FIELDS`).
_ROW_TIME_FIELDS = ("ref_time", "new_time")
#: Wall-clock fields of a flattened report (see
#: :func:`repro.reporting.result_to_dict`).
_REPORT_TIME_FIELDS = ("obs_runtime",)


def _canonical_digest(body: dict[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def manifest_checksum(payload: dict[str, Any]) -> str:
    """Integrity checksum: ``"sha256:<hex>"`` over the canonical JSON
    serialization (sorted keys, compact separators) with the checksum
    fields themselves excluded."""
    body = {key: value for key, value in payload.items()
            if key not in _CHECKSUM_KEYS}
    return _canonical_digest(body)


def mask_volatile(payload: dict[str, Any]) -> dict[str, Any]:
    """A deep copy of a manifest payload with every wall-clock field
    masked to zero.

    Masked fields: per-record ``elapsed``, row ``ref_time``/``new_time``,
    report ``obs_runtime`` and per-algorithm ``runtime``, the entire
    report ``perf`` subtree (stage timings, analysis-cache counters,
    incremental-ELW reuse counts -- all wall clock or warmth-dependent),
    and the ``elapsed`` of every stored failure record.  Everything else --
    including failure *messages*, degradation statuses and solver
    iteration counts -- is deterministic given the configuration and is
    left untouched.  (Deadline-bearing configs are inherently
    nondeterministic: an expiry changes statuses, not just timings, and
    no masking can hide that.)
    """
    masked = json.loads(json.dumps(payload))  # cheap deep copy
    for key in _CHECKSUM_KEYS:
        masked.pop(key, None)
    for record in masked.get("completed", {}).values():
        if not isinstance(record, dict):
            continue
        if "elapsed" in record:
            record["elapsed"] = 0.0
        row = record.get("row")
        if isinstance(row, dict):
            for field_name in _ROW_TIME_FIELDS:
                if field_name in row:
                    row[field_name] = 0.0
        report = record.get("report")
        if isinstance(report, dict):
            for field_name in _REPORT_TIME_FIELDS:
                if field_name in report:
                    report[field_name] = 0.0
            # The whole perf subtree is volatile: stage timings are wall
            # clock, and cache / incremental-reuse counters depend on
            # cache warmth -- a warm rerun must keep the same
            # result_checksum as the cold run that filled the cache.
            if "perf" in report:
                report["perf"] = {}
            for entry in report.get("algorithms", {}).values():
                if isinstance(entry, dict) and "runtime" in entry:
                    entry["runtime"] = 0.0
            for failure in report.get("failures", []):
                if isinstance(failure, dict) and "elapsed" in failure:
                    failure["elapsed"] = 0.0
        for failure in record.get("failures", []):
            if isinstance(failure, dict) and "elapsed" in failure:
                failure["elapsed"] = 0.0
    return masked


def result_checksum(payload: dict[str, Any]) -> str:
    """Determinism checksum: the integrity digest of the time-masked
    payload (see :func:`mask_volatile`).  Stable across reruns, resumes
    and worker counts of the same configuration."""
    return _canonical_digest(mask_volatile(payload))


#: Required top-level manifest fields and their types (beyond the
#: format/version/checksum envelope).
_SCHEMA: tuple[tuple[str, type], ...] = (
    ("config", dict), ("circuits", list), ("completed", dict))

#: Per-record field types; ``row`` is the only required one.
_RECORD_SCHEMA: tuple[tuple[str, tuple[type, ...], bool], ...] = (
    ("row", (dict,), True),
    ("report", (dict, type(None)), False),
    ("status", (str,), False),
    ("elapsed", (int, float), False),
    ("failures", (list,), False),
)


def _validate_schema(payload: dict[str, Any], path: str) -> None:
    """Field-level validation, so a damaged manifest fails with a located
    :class:`~repro.errors.ManifestError` instead of a stray ``KeyError``
    deep inside the resume path."""
    for key, expected in _SCHEMA:
        if key not in payload:
            raise ManifestError(f"{path!r} is missing the {key!r} field")
        if not isinstance(payload[key], expected):
            raise ManifestError(
                f"{path!r}: field {key!r} must be a {expected.__name__}, "
                f"got {type(payload[key]).__name__}")
    for name in payload["circuits"]:
        if not isinstance(name, str):
            raise ManifestError(
                f"{path!r}: 'circuits' must be a list of names, found a "
                f"{type(name).__name__}")
    for name, record in payload["completed"].items():
        if not isinstance(record, dict):
            raise ManifestError(
                f"{path!r}: malformed record for circuit {name!r}: "
                f"expected an object, got {type(record).__name__}")
        for key, types, required in _RECORD_SCHEMA:
            if key not in record:
                if required:
                    raise ManifestError(
                        f"{path!r}: malformed record for circuit "
                        f"{name!r}: missing the {key!r} field")
                continue
            if not isinstance(record[key], types):
                raise ManifestError(
                    f"{path!r}: malformed record for circuit {name!r}: "
                    f"field {key!r} has type {type(record[key]).__name__}")


@dataclass
class CircuitRecord:
    """Everything the manifest keeps for one completed circuit."""

    name: str
    row: dict[str, Any]
    report: dict[str, Any] | None
    status: str = "ok"
    elapsed: float = 0.0
    failures: list[FailureRecord] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "row": self.row, "report": self.report, "status": self.status,
            "elapsed": float(self.elapsed),
            "failures": [f.to_dict() for f in self.failures],
        }

    @classmethod
    def from_dict(cls, name: str, data: dict[str, Any]) -> "CircuitRecord":
        return cls(name=name, row=dict(data["row"]),
                   report=data.get("report"),
                   status=str(data.get("status", "ok")),
                   elapsed=float(data.get("elapsed", 0.0)),
                   failures=[FailureRecord.from_dict(f)
                             for f in data.get("failures", [])])


class RunManifest:
    """In-memory view of one suite run's checkpoint file."""

    def __init__(self, config: dict[str, Any], circuits: list[str]):
        self.config = dict(config)
        self.circuits = list(circuits)
        self.completed: dict[str, CircuitRecord] = {}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """The serializable manifest payload, checksum included."""
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "config": self.config,
            "circuits": self.circuits,
            "completed": {name: rec.to_dict()
                          for name, rec in self.completed.items()},
        }
        payload["checksum"] = manifest_checksum(payload)
        payload["result_checksum"] = result_checksum(payload)
        return payload

    def result_digest(self) -> str:
        """The determinism digest of the current in-memory state."""
        return result_checksum(self.payload())

    def save(self, path: str | os.PathLike[str]) -> None:
        """Durably and atomically write the manifest.

        Temp file in the target directory -> write -> flush -> fsync ->
        atomic rename -> best-effort directory fsync.  A crash anywhere
        in this sequence leaves either the old manifest or the new one
        on disk, never a torn mix.
        """
        path = os.fspath(path)
        fault_point("manifest.save.enter", path=path,
                    completed=len(self.completed))
        data = (json.dumps(self.payload(), indent=2, sort_keys=True)
                + "\n").encode("utf-8")
        data = filter_bytes("manifest.save.bytes", data)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(prefix=".manifest-", suffix=".json",
                                   dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                half = len(data) // 2
                handle.write(data[:half])
                handle.flush()
                fault_point("manifest.save.midwrite", path=path)
                handle.write(data[half:])
                handle.flush()
                os.fsync(handle.fileno())
            fault_point("manifest.save.rename", path=path)
            os.replace(tmp, path)
            try:
                dir_fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:
                pass  # directory fsync is best-effort (not all platforms)
            fault_point("manifest.save.done", path=path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "RunManifest":
        path = os.fspath(path)
        fault_point("manifest.load.enter", path=path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ManifestError(f"cannot read run manifest {path!r}: {exc}") \
                from exc
        if not isinstance(payload, dict) or \
                payload.get("format") != MANIFEST_FORMAT:
            raise ManifestError(f"{path!r} is not a run manifest")
        if payload.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"{path!r} has manifest version {payload.get('version')!r}, "
                f"this build reads version {MANIFEST_VERSION}")
        stored = payload.get("checksum")
        if not isinstance(stored, str):
            raise ManifestError(
                f"{path!r} has no checksum field; the manifest is "
                f"truncated or was written by an incompatible tool")
        expected = manifest_checksum(payload)
        if stored != expected:
            raise ManifestError(
                f"{path!r} fails its integrity check (stored {stored}, "
                f"computed {expected}); the file is torn or corrupted -- "
                f"delete it to restart the run from scratch")
        stored_result = payload.get("result_checksum")
        if isinstance(stored_result, str) and \
                stored_result != result_checksum(payload):
            raise ManifestError(
                f"{path!r} fails its result-determinism check; the "
                f"completed records were altered after the checksum was "
                f"written -- delete it to restart the run from scratch")
        _validate_schema(payload, path)
        manifest = cls(config=dict(payload["config"]),
                       circuits=list(payload["circuits"]))
        for name, data in payload["completed"].items():
            try:
                manifest.completed[name] = CircuitRecord.from_dict(name, data)
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(
                    f"{path!r}: malformed record for circuit {name!r}: "
                    f"{exc}") from exc
        return manifest

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def is_complete(self, name: str) -> bool:
        return name in self.completed

    def record(self, record: CircuitRecord) -> None:
        self.completed[record.name] = record

    def pending(self) -> list[str]:
        """Planned circuits not yet completed, in order."""
        return [n for n in self.circuits if n not in self.completed]

    def check_config(self, config: dict[str, Any]) -> None:
        """Reject resumption under a different experiment configuration.

        Only keys present in *both* fingerprints are compared, so adding
        a new knob in a later version does not invalidate old manifests;
        resilience knobs (deadline, retries) are deliberately excluded
        from fingerprints by the caller -- they do not change results,
        only how failures are handled.
        """
        mismatched = {key: (self.config[key], config[key])
                      for key in self.config.keys() & config.keys()
                      if self.config[key] != config[key]}
        if mismatched:
            detail = "; ".join(
                f"{key}: manifest={old!r}, requested={new!r}"
                for key, (old, new) in sorted(mismatched.items()))
            raise ManifestError(
                f"manifest was written by a different run configuration "
                f"({detail}); refusing to resume")
