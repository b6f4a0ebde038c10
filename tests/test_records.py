"""The shared durable-record envelope, exercised through all five formats.

Each on-disk format -- run manifest, job record, analysis-cache entry,
corpus manifest, matrix digest table -- must turn a truncated file, a
flipped byte and a wrong version into its *own* error class, and must
write back the exact bytes it read.
"""

import json
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro import records
from repro.cache.store import AnalysisCache, CacheWarning
from repro.corpus.manifest import load_corpus_manifest
from repro.corpus.matrix import load_digest_table, write_digest_table
from repro.errors import JobStateError, ManifestError
from repro.runtime.manifest import CircuitRecord, RunManifest
from repro.service.jobs import JobRecord, load_job, save_job

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL_TIER = os.path.join(REPO_ROOT, "corpus", "small")

CACHE_KEY = ("obs", "c" * 64, {"n_frames": 2, "seed": 0})


@dataclass
class Format:
    """How a test reaches one format: write a sample, load a file,
    write a loaded file back out."""

    name: str
    error: type[Exception]
    sample: Callable[[Any], str]
    load: Callable[[str], Any]
    resave: Callable[[str, str], None]


def manifest_sample(tmp_path) -> str:
    manifest = RunManifest({"seed": 0}, ["c1", "c2"])
    manifest.record(CircuitRecord("c1", row={"circuit": "c1", "ser": 0.5},
                                  report=None, elapsed=1.25))
    path = str(tmp_path / "run.json")
    manifest.save(path)
    return path


def job_sample(tmp_path) -> str:
    path = str(tmp_path / "j-000000000001.json")
    save_job(JobRecord(id="j-000000000001", spec={"circuit": "s13207"},
                       submitted_at=12.5, trace_id="t-1"), path)
    return path


def cache_sample(tmp_path) -> str:
    cache = AnalysisCache(str(tmp_path / "cache"))
    cache.put(*CACHE_KEY, {"obs": {"n1": 0.25}, "method": "backward"})
    kind, circuit, params = CACHE_KEY
    return cache.entry_path(kind, cache.key(kind, circuit, params))


def cache_load(path: str) -> Any:
    # A corrupt entry is evicted with a CacheWarning; promote it to an
    # error so the cache fails like every other format.
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheWarning)
        value = AnalysisCache(os.path.dirname(path)).get(*CACHE_KEY)
    assert os.path.exists(path)
    return value


def cache_resave(src: str, dst: str) -> None:
    AnalysisCache(os.path.dirname(dst)).put(*CACHE_KEY, cache_load(src))


def committed_sample(name: str) -> Callable[[Any], str]:
    def sample(tmp_path) -> str:
        path = str(tmp_path / name)
        shutil.copyfile(os.path.join(SMALL_TIER, name), path)
        return path
    return sample


FORMATS = [
    Format("run-manifest", ManifestError, manifest_sample, RunManifest.load,
           lambda src, dst: RunManifest.load(src).save(dst)),
    Format("job-record", JobStateError, job_sample, load_job,
           lambda src, dst: save_job(load_job(src), dst)),
    Format("analysis-cache", CacheWarning, cache_sample, cache_load,
           cache_resave),
    Format("corpus-manifest", ManifestError,
           committed_sample("corpus-manifest.json"), load_corpus_manifest,
           lambda src, dst: records.atomic_write(
               dst, records.dumps(load_corpus_manifest(src)))),
    Format("matrix-digests", ManifestError,
           committed_sample("matrix-golden.json"), load_digest_table,
           lambda src, dst: write_digest_table(load_digest_table(src), dst)),
]


@pytest.fixture(params=FORMATS, ids=[f.name for f in FORMATS])
def fmt(request) -> Format:
    return request.param


def read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def write(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def content_digit(data: bytes) -> int:
    """Offset of the first digit outside the envelope fields, so that
    flipping it keeps the JSON valid but changes the checksummed body."""
    skip: set[int] = set()
    for key in (b'"checksum"', b'"result_checksum"', b'"version"'):
        start = data.find(key)
        if start >= 0:
            ends = [data.find(stop, start) for stop in (b",", b"\n", b"}")]
            skip.update(range(start, min(e for e in ends if e >= 0)))
    return next(i for i in range(len(data))
                if chr(data[i]).isdigit() and i not in skip)


class TestEveryFormat:
    def test_round_trip_reproduces_identical_bytes(self, fmt, tmp_path):
        src = fmt.sample(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        dst = str(out_dir / os.path.basename(src))
        fmt.resave(src, dst)
        assert read(dst) == read(src)
        assert os.listdir(out_dir) == [os.path.basename(src)]  # no temp

    def test_truncated_file_raises_own_error(self, fmt, tmp_path):
        path = fmt.sample(tmp_path)
        write(path, read(path)[: len(read(path)) // 2])
        with pytest.raises(fmt.error, match="cannot read"):
            fmt.load(path)

    def test_flipped_byte_raises_own_error(self, fmt, tmp_path):
        path = fmt.sample(tmp_path)
        data = bytearray(read(path))
        data[content_digit(bytes(data))] ^= 0x01  # e.g. '0' <-> '1'
        write(path, bytes(data))
        json.loads(bytes(data))  # still well-formed JSON
        with pytest.raises(fmt.error, match="integrity"):
            fmt.load(path)

    def test_wrong_version_raises_own_error(self, fmt, tmp_path):
        path = fmt.sample(tmp_path)
        payload = json.loads(read(path))
        payload["version"] = 99
        write(path, json.dumps(records.seal(payload)).encode("utf-8"))
        with pytest.raises(fmt.error, match="version"):
            fmt.load(path)


class TestAtomicWrite:
    def test_failure_keeps_previous_file_and_leaves_no_temp(self,
                                                           tmp_path):
        path = str(tmp_path / "f.json")
        records.atomic_write(path, b"old\n")

        def crash(step: str) -> None:
            if step == "rename":
                raise RuntimeError("killed before rename")

        with pytest.raises(RuntimeError):
            records.atomic_write(path, b"new\n", step=crash)
        assert read(path) == b"old\n"
        assert os.listdir(tmp_path) == ["f.json"]

    def test_steps_fire_in_protocol_order(self, tmp_path):
        steps: list[str] = []
        records.atomic_write(str(tmp_path / "f"), b"x" * 10,
                             step=steps.append)
        assert steps == ["midwrite", "rename", "done"]

    def test_checksum_ignores_checksum_fields(self):
        payload = {"format": "f", "version": 1, "value": [1, 2]}
        sealed = records.seal(dict(payload))
        assert sealed["checksum"] == records.checksum(payload)
        sealed["result_checksum"] = "sha256:anything"
        assert records.checksum(sealed) == sealed["checksum"]
