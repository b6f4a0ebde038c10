"""Unit tests for the two-tier content-addressed analysis cache.

Covers the store contract from ``docs/file_formats.md``: content-addressed
keys, bit-exact disk round-trips, checksum self-eviction on torn/garbage
entries, atomic writes, degradation of I/O failures to warnings, the LRU
memory tier, and the process-global ``cached`` front door.
"""

import json
import os

import numpy as np
import pytest

from repro.cache import (MISS, AnalysisCache, activated, active, cached,
                         configure, deactivate, obs_digest, params_digest,
                         timing_digest)
from repro.cache.store import CacheWarning
from repro.circuits import random_sequential_circuit

DIG = "0" * 64  # placeholder circuit digest


def placeholder_key():
    """The ``cached`` key of the placeholder entry."""
    return DIG, {"x": 1}


def entry_file(cache, kind="obs", params=None):
    params = params if params is not None else {"x": 1}
    return cache.entry_path(kind, cache.key(kind, DIG, params))


class TestKeys:
    def test_key_is_order_independent(self):
        a = AnalysisCache.key("obs", DIG, {"a": 1, "b": 2.5})
        b = AnalysisCache.key("obs", DIG, {"b": 2.5, "a": 1})
        assert a == b

    def test_key_separates_kind_circuit_params(self):
        base = AnalysisCache.key("obs", DIG, {"a": 1})
        assert AnalysisCache.key("elw", DIG, {"a": 1}) != base
        assert AnalysisCache.key("obs", "1" * 64, {"a": 1}) != base
        assert AnalysisCache.key("obs", DIG, {"a": 2}) != base

    def test_params_digest_canonical(self):
        assert params_digest({"a": 1, "b": [2, 3]}) == \
            params_digest({"b": [2, 3], "a": 1})

    def test_timing_digest_tracks_library(self):
        c1 = random_sequential_circuit("t", 12, 4, n_inputs=3,
                                       n_outputs=3, seed=1)
        c2 = random_sequential_circuit("t", 12, 4, n_inputs=3,
                                       n_outputs=3, seed=1)
        assert timing_digest(c1) == timing_digest(c2)
        from repro.netlist.cell_library import unit_delay_library

        c3 = random_sequential_circuit("t", 12, 4, n_inputs=3,
                                       n_outputs=3, seed=1,
                                       library=unit_delay_library())
        # Same function, different delays: functional fingerprints tie,
        # timing digests must not.
        assert c1.fingerprint() == c3.fingerprint()
        assert timing_digest(c1) != timing_digest(c3)

    def test_obs_digest_order_independent(self):
        assert obs_digest({"a": 0.5, "b": 1.0}) == \
            obs_digest({"b": 1.0, "a": 0.5})
        assert obs_digest({"a": 0.5}) != obs_digest({"a": 0.25})


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = AnalysisCache()
        assert cache.get("obs", DIG, {"x": 1}) is MISS
        cache.put("obs", DIG, {"x": 1}, {"v": [1.0, 0.5]})
        assert cache.get("obs", DIG, {"x": 1}) == {"v": [1.0, 0.5]}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.memory_hits == 1

    def test_none_is_a_legitimate_value(self):
        cache = AnalysisCache()
        cache.put("obs", DIG, {"x": 1}, None)
        assert cache.get("obs", DIG, {"x": 1}) is None
        assert cache.get("obs", DIG, {"x": 2}) is MISS

    def test_lru_evicts_least_recently_used(self):
        cache = AnalysisCache(memory_entries=2)
        cache.put("obs", DIG, {"x": 1}, "one")
        cache.put("obs", DIG, {"x": 2}, "two")
        assert cache.get("obs", DIG, {"x": 1}) == "one"  # refresh 1
        cache.put("obs", DIG, {"x": 3}, "three")         # evicts 2
        assert cache.get("obs", DIG, {"x": 2}) is MISS
        assert cache.get("obs", DIG, {"x": 1}) == "one"
        assert cache.get("obs", DIG, {"x": 3}) == "three"

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("obs", DIG, {"x": 1}, [1, 2, 3])
        cache.clear_memory()
        assert cache.get("obs", DIG, {"x": 1}) == [1, 2, 3]
        assert cache.stats.memory_hits == 0
        assert cache.stats.hits == 1


class TestDiskTier:
    def test_round_trip_is_bit_exact(self, tmp_path):
        # Floats and 64-bit mask words must survive JSON exactly.
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=5, dtype=np.uint64)
        value = {"obs": {"n1": 0.1 + 0.2, "n2": 1.0 / 3.0},
                 "mask": [int(w) for w in words]}
        writer = AnalysisCache(tmp_path)
        writer.put("obs", DIG, {"x": 1}, value)
        reader = AnalysisCache(tmp_path)  # fresh process stand-in
        got = reader.get("obs", DIG, {"x": 1})
        assert got == value
        assert got["obs"]["n1"].hex() == value["obs"]["n1"].hex()
        assert np.array_equal(
            np.array(got["mask"], dtype=np.uint64), words)

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        writer = AnalysisCache(tmp_path)
        writer.put("obs", DIG, {"x": 1}, "v")
        reader = AnalysisCache(tmp_path)
        assert reader.get("obs", DIG, {"x": 1}) == "v"
        assert reader.stats.memory_hits == 0
        assert reader.get("obs", DIG, {"x": 1}) == "v"
        assert reader.stats.memory_hits == 1

    def test_write_is_atomic_no_temp_left(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("obs", DIG, {"x": 1}, "v")
        names = os.listdir(tmp_path)
        assert len(names) == 1
        assert names[0].startswith("obs-") and names[0].endswith(".json")

    def test_entry_is_valid_checksummed_json(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("elw", DIG, {"phi": 4.0}, {"n": [[0.0, 1.5]]})
        payload = json.loads(
            open(entry_file(cache, "elw", {"phi": 4.0})).read())
        assert payload["format"] == "repro-analysis-cache"
        assert payload["kind"] == "elw"
        assert payload["circuit"] == DIG
        assert payload["params"] == {"phi": 4.0}
        assert payload["checksum"].startswith("sha256:")

    def test_stats_count_bytes(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("obs", DIG, {"x": 1}, "v")
        assert cache.stats.stores == 1
        assert cache.stats.bytes_written > 0
        cache.clear_memory()
        cache.get("obs", DIG, {"x": 1})
        assert cache.stats.bytes_read == cache.stats.bytes_written


class TestSelfEviction:
    """Corrupt disk entries turn into a warning + deletion + miss."""

    def corrupt(self, tmp_path, mangle):
        cache = AnalysisCache(tmp_path)
        cache.put("obs", DIG, {"x": 1}, {"v": 1})
        path = entry_file(cache)
        mangle(path)
        cache.clear_memory()
        with pytest.warns(CacheWarning):
            assert cache.get("obs", DIG, {"x": 1}) is MISS
        assert not os.path.exists(path)
        assert cache.stats.evictions == 1
        # The slot is reusable afterwards.
        cache.put("obs", DIG, {"x": 1}, {"v": 1})
        assert cache.get("obs", DIG, {"x": 1}) == {"v": 1}

    def test_garbage_bytes(self, tmp_path):
        self.corrupt(tmp_path, lambda p: open(p, "wb").write(b"\x00garbage"))

    def test_torn_write_truncation(self, tmp_path):
        def tear(path):
            data = open(path, "rb").read()
            open(path, "wb").write(data[:len(data) // 2])

        self.corrupt(tmp_path, tear)

    def test_checksum_mismatch_on_edited_value(self, tmp_path):
        def edit(path):
            payload = json.loads(open(path).read())
            payload["value"] = {"v": 2}  # checksum now stale
            open(path, "w").write(json.dumps(payload))

        self.corrupt(tmp_path, edit)

    def test_unknown_format_version(self, tmp_path):
        def bump(path):
            payload = json.loads(open(path).read())
            payload["version"] = 99
            open(path, "w").write(json.dumps(payload))

        self.corrupt(tmp_path, bump)

    def test_renamed_entry_fails_key_check(self, tmp_path):
        # A checksum-valid entry filed under the wrong key self-evicts.
        cache = AnalysisCache(tmp_path)
        cache.put("obs", DIG, {"x": 1}, {"v": 1})
        src = entry_file(cache)
        dst = entry_file(cache, params={"x": 2})
        os.rename(src, dst)
        cache.clear_memory()
        with pytest.warns(CacheWarning):
            assert cache.get("obs", DIG, {"x": 2}) is MISS
        assert not os.path.exists(dst)


class TestDegradation:
    def test_unwritable_dir_degrades_to_warning(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = AnalysisCache(blocker)  # makedirs will fail
        with pytest.warns(CacheWarning):
            cache.put("obs", DIG, {"x": 1}, "v")
        assert cache.stats.errors == 1
        assert cache.stats.stores == 0
        # The memory tier still took the value.
        assert cache.get("obs", DIG, {"x": 1}) == "v"


class TestGlobalFrontDoor:
    def test_no_active_cache_is_identity(self):
        assert active() is None
        calls = []
        out = cached("obs", lambda: pytest.fail("key computed uncached"),
                     compute=lambda: calls.append(1) or "fresh")
        assert out == "fresh" and calls == [1]

    def test_cached_computes_once(self):
        calls = []

        def compute():
            calls.append(1)
            return {"v": 7}

        with activated(AnalysisCache()):
            first = cached("obs", placeholder_key, compute)
            second = cached("obs", placeholder_key, compute)
        assert first == second == {"v": 7}
        assert calls == [1]

    def test_encode_decode_round_trip(self, tmp_path):
        def compute():
            return np.arange(4, dtype=np.uint64)

        def encode(arr):
            return [int(w) for w in arr]

        def decode(words):
            return np.array(words, dtype=np.uint64)

        with activated(AnalysisCache(tmp_path)):
            cold = cached("obs", placeholder_key, compute,
                          encode=encode, decode=decode)
        with activated(AnalysisCache(tmp_path)):
            warm = cached("obs", placeholder_key,
                          lambda: pytest.fail("must not recompute"),
                          encode=encode, decode=decode)
        assert warm.dtype == np.uint64
        assert np.array_equal(cold, warm)

    def test_store_false_keeps_value_out(self):
        with activated(AnalysisCache()) as cache:
            cached("obs", placeholder_key, lambda: "tainted", store=False)
            assert cache.get("obs", DIG, {"x": 1}) is MISS

    def test_configure_and_deactivate(self):
        try:
            cache = configure()
            assert active() is cache
        finally:
            assert deactivate() is cache
        assert active() is None

    def test_activated_restores_previous(self):
        outer = AnalysisCache()
        with activated(outer):
            with activated(None):
                assert active() is None
            assert active() is outer
        assert active() is None
