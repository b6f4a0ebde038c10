"""Suite-level tests for the content-addressed analysis cache.

The cache is an *execution* knob: every combination of cold/warm,
cache-on/cache-off and serial/parallel over one configuration must land
on the same ``result_checksum``.  Perf counters (stage timings, cache
hit/miss/byte counts, incremental-ELW reuse stats) ride in the report's
``perf`` subtree and are masked wholesale by ``mask_volatile`` so they
never perturb that digest.
"""

import dataclasses

from repro.cache import AnalysisCache, activated
from repro.circuits import random_sequential_circuit
from repro.runtime.manifest import RunManifest, mask_volatile
from repro.runtime.suite import SuiteConfig, run_suite

NAMES = ("ant", "bee", "cat")

CFG = SuiteConfig(circuits=NAMES, seed=0, n_frames=3, n_patterns=32)


def grid_factory(name):
    """Module-level so the parallel executor can pickle it by name."""
    return random_sequential_circuit(
        name, n_gates=40, n_dffs=12, n_inputs=4, n_outputs=4,
        seed=sum(map(ord, name)))


def digest_of(path):
    return RunManifest.load(path).result_digest()


def cached_cfg(tmp_path, **overrides):
    return dataclasses.replace(CFG, cache=True,
                               cache_dir=str(tmp_path / "cache"),
                               **overrides)


class TestDigestInvariance:
    def test_cache_off_equals_cache_on(self, tmp_path):
        off, on = tmp_path / "off.json", tmp_path / "on.json"
        run_suite(CFG, manifest_path=off, circuit_factory=grid_factory)
        run_suite(cached_cfg(tmp_path), manifest_path=on,
                  circuit_factory=grid_factory)
        assert digest_of(off) == digest_of(on)

    def test_cold_equals_warm_over_shared_dir(self, tmp_path):
        cfg = cached_cfg(tmp_path)
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        run_suite(cfg, manifest_path=cold, circuit_factory=grid_factory)
        entries = list((tmp_path / "cache").glob("*.json"))
        assert entries  # the disk tier actually filled
        # Second run_suite call = fresh AnalysisCache instance: the
        # memory tier starts empty, so every hit is a disk round trip.
        run_suite(cfg, manifest_path=warm, circuit_factory=grid_factory)
        assert digest_of(cold) == digest_of(warm)

    def test_workers2_shared_dir_equals_serial(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        cfg = cached_cfg(tmp_path)
        run_suite(cfg, manifest_path=serial,
                  circuit_factory=grid_factory, workers=1)
        run_suite(cfg, manifest_path=parallel,
                  circuit_factory=grid_factory, workers=2)
        assert digest_of(serial) == digest_of(parallel)

    def test_memory_only_cache_matches_too(self, tmp_path):
        # cache=True without cache_dir: per-process memory tier only.
        off, on = tmp_path / "off.json", tmp_path / "on.json"
        run_suite(CFG, manifest_path=off, circuit_factory=grid_factory)
        run_suite(dataclasses.replace(CFG, cache=True), manifest_path=on,
                  circuit_factory=grid_factory)
        assert digest_of(off) == digest_of(on)


class TestPerfCounters:
    def run_one(self, tmp_path, cfg):
        path = tmp_path / "m.json"
        result = run_suite(cfg, manifest_path=path,
                           circuit_factory=grid_factory)
        return result, RunManifest.load(path)

    def test_report_carries_perf_subtree(self, tmp_path):
        result, _ = self.run_one(tmp_path, cached_cfg(tmp_path))
        perf = result.runs[0].report["perf"]
        assert set(perf) == {"stages", "cache", "metrics"}
        assert "observability" in perf["stages"]
        assert all(t >= 0.0 for t in perf["stages"].values())

    def test_cache_counters_enabled_and_counting(self, tmp_path):
        cfg = cached_cfg(tmp_path)
        result, _ = self.run_one(tmp_path, cfg)
        counters = result.runs[0].report["perf"]["cache"]
        assert counters["enabled"] is True
        assert counters["stores"] > 0
        assert counters["bytes_written"] > 0
        # A warm rerun of the same config sees hits, not stores.
        warm, _ = self.run_one(tmp_path, cfg)
        warm_counters = warm.runs[0].report["perf"]["cache"]
        assert warm_counters["hits"] > 0

    def test_cache_counters_disabled_without_cache(self, tmp_path):
        result, _ = self.run_one(tmp_path, CFG)
        assert result.runs[0].report["perf"]["cache"] == {
            "enabled": False}

    def test_perf_is_masked_from_the_checksum(self, tmp_path):
        _, manifest = self.run_one(tmp_path, cached_cfg(tmp_path))
        payload = manifest.payload()
        records = payload["completed"]
        assert any(rec["report"].get("perf")
                   for rec in records.values())
        masked = mask_volatile(payload)
        for rec in masked["completed"].values():
            assert rec["report"]["perf"] == {}


class TestConfigSemantics:
    def test_cache_knobs_do_not_enter_fingerprint(self):
        assert CFG.fingerprint() == cached_cfg_fingerprint()

    def test_resume_across_cache_settings(self, tmp_path):
        # A manifest checkpointed without the cache resumes with it:
        # cache knobs are execution knobs, like workers and deadline.
        path = tmp_path / "m.json"
        run_suite(CFG, manifest_path=path, circuit_factory=grid_factory)
        before = digest_of(path)
        result = run_suite(cached_cfg(tmp_path), manifest_path=path,
                           circuit_factory=grid_factory)
        assert [r.row["circuit"] for r in result.runs] == list(NAMES)
        assert digest_of(path) == before

    def test_run_suite_does_not_leak_global_cache(self, tmp_path):
        import repro.cache as analysis_cache

        sentinel = AnalysisCache()
        with activated(sentinel):
            run_suite(cached_cfg(tmp_path),
                      circuit_factory=grid_factory)
            assert analysis_cache.active() is sentinel


def cached_cfg_fingerprint():
    return dataclasses.replace(
        CFG, cache=True, cache_dir="/anywhere").fingerprint()
