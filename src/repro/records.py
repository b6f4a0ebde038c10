"""Durable records: one checksummed JSON envelope, one atomic write.

Every number the reproduction persists lives in one of five JSON
formats -- run manifests (:mod:`repro.runtime.manifest`), job records
(:mod:`repro.service.jobs`), analysis-cache entries
(:mod:`repro.cache.store`), corpus manifests
(:mod:`repro.corpus.manifest`) and matrix digest tables
(:mod:`repro.corpus.matrix`).  All five share one envelope::

    {"format": "<tag>", "version": <int>, "checksum": "sha256:<hex>", ...}

where ``checksum`` is the sha256 of the canonical JSON (sorted keys,
compact separators) of the payload minus its checksum fields.  This
module owns that envelope (:func:`checksum`, :func:`seal`,
:func:`load_record`) and the durability protocol every writer uses
(:func:`atomic_write`): temp file in the target directory, fsync,
atomic rename, best-effort directory fsync.  A crash at any point leaves
either the previous file or the new one, and the checksum turns any
remaining damage into a clear error instead of a silent misread.

Callers keep what is theirs: the error class and remediation hint a
failed load raises, their fault-injection sites, their serialization
style and their schema checks.  See ``docs/file_formats.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable
from typing import Any

#: Fields that describe the file rather than its content; excluded from
#: the checksum.  (``result_checksum`` is the run manifest's
#: determinism digest, see :func:`repro.runtime.manifest.result_checksum`.)
CHECKSUM_KEYS = ("checksum", "result_checksum")


def canonical_digest(body: Any) -> str:
    """``"sha256:<hex>"`` over the canonical JSON of ``body``."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def checksum(payload: dict[str, Any]) -> str:
    """The envelope's integrity checksum: :func:`canonical_digest` of
    the payload with the :data:`CHECKSUM_KEYS` fields excluded."""
    return canonical_digest({key: value for key, value in payload.items()
                             if key not in CHECKSUM_KEYS})


def seal(payload: dict[str, Any]) -> dict[str, Any]:
    """Store the payload's :func:`checksum` in its ``checksum`` field;
    returns the payload."""
    payload["checksum"] = checksum(payload)
    return payload


def dumps(payload: dict[str, Any]) -> bytes:
    """The on-disk bytes of a human-readable record: sorted keys,
    two-space indent, trailing newline, UTF-8."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
        .encode("utf-8")


def atomic_write(path: str | os.PathLike[str], data: bytes, *,
                 step: Callable[[str], None] | None = None) -> None:
    """Durably replace ``path`` with ``data``.

    Temp file in the target directory -> write -> flush -> fsync ->
    atomic rename -> best-effort directory fsync.  On any failure the
    temp file is unlinked and the exception propagates; the previous
    file, if any, is untouched.  ``step`` (optional) is called with
    ``"midwrite"`` (half the bytes written), ``"rename"`` (temp file
    durable, rename pending) and ``"done"``, so a caller can hang its
    fault-injection sites on the protocol's crash points.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            half = len(data) // 2
            handle.write(data[:half])
            if step is not None:
                handle.flush()
                step("midwrite")
            handle.write(data[half:])
            handle.flush()
            os.fsync(handle.fileno())
        if step is not None:
            step("rename")
        os.replace(tmp, path)
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass  # directory fsync is best-effort (not all platforms)
        if step is not None:
            step("done")
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_record(source: bytes | str | os.PathLike[str], *, fmt: str,
                versions: tuple[int, ...], error: type[Exception],
                what: str, hint: str, path: str | None = None
                ) -> dict[str, Any]:
    """Decode and verify one enveloped record; returns its payload.

    ``source`` is the file's bytes or its path (``path`` names the file
    in messages when bytes are given).  Every failure raises ``error``
    naming ``what`` the record is: an unreadable or undecodable file
    ("cannot read"), a foreign ``format`` ("not a"), a ``version`` not
    in ``versions``, and a missing or mismatched checksum ("integrity",
    followed by ``hint``, the caller's remediation).
    """
    if isinstance(source, bytes):
        data = source
        where = path if path is not None else "<bytes>"
    else:
        where = os.fspath(source)
    try:
        if not isinstance(source, bytes):
            with open(where, "rb") as handle:
                data = handle.read()
        payload = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {where!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise error(f"{where!r} is not a {what}")
    if payload.get("version") not in versions:
        readable = " or ".join(str(v) for v in versions)
        raise error(
            f"{where!r} has {what} version {payload.get('version')!r}, "
            f"this build reads version {readable}")
    stored = payload.get("checksum")
    if not isinstance(stored, str):
        raise error(
            f"{where!r} has no checksum field and fails its integrity "
            f"check; the file is truncated or was written by an "
            f"incompatible tool -- {hint}")
    computed = checksum(payload)
    if stored != computed:
        raise error(
            f"{where!r} fails its integrity check (stored {stored}, "
            f"computed {computed}); the file is torn, corrupted or was "
            f"edited by hand -- {hint}")
    return payload
