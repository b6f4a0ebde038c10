"""Analysis-cache keys: computed only when a cache is active, and stable.

Hashing a 10^5-gate netlist costs over a second per analysis, so the
analyses hand :func:`repro.cache.cached` their key as a callable that
runs only when a cache is installed.  The first class proves nothing
hashes a circuit or an observability map with the cache off; the second
pins the key of every analysis kind for one corpus circuit, so disk
caches written by an earlier release keep hitting.
"""

import sys

import pytest

from repro.cache import AnalysisCache, activated, active, store
from repro.core.elw import circuit_elws
from repro.corpus.families import corpus_circuit
from repro.netlist.circuit import Circuit
from repro.runtime.suite import SuiteConfig, optimize_resilient, run_suite
from repro.ser.analysis import analyze_ser
from repro.sim.odc import observability

NAME = "pipe_a"


class KeyRecorder(AnalysisCache):
    """A memory-only cache that records every looked-up key by kind."""

    def __init__(self):
        super().__init__()
        self.keys: dict[str, list[str]] = {}

    def get(self, kind, circuit_digest, params):
        self.keys.setdefault(kind, []).append(
            self.key(kind, circuit_digest, params))
        return super().get(kind, circuit_digest, params)


@pytest.fixture
def no_digests(monkeypatch):
    """Make every circuit and observability digest raise."""
    def forbid(*args, **kwargs):
        raise AssertionError("a cache digest was computed with no "
                             "active cache")

    monkeypatch.setattr(Circuit, "fingerprint", forbid)
    for func in (store.timing_digest, store.obs_digest):
        # Patch every module-level binding, not just the defining one:
        # the analyses import these names directly.
        for module in list(sys.modules.values()):
            if getattr(module, func.__name__, None) is func:
                monkeypatch.setattr(module, func.__name__, forbid)
    assert active() is None


class TestNoDigestWithoutCache:
    def test_analyses(self, no_digests):
        circuit = corpus_circuit("small", NAME)
        obs = observability(circuit, n_frames=2, n_patterns=32).obs
        assert circuit_elws(circuit, 12.0)
        assert analyze_ser(circuit, 12.0, obs=obs).total > 0
        assert analyze_ser(circuit, 12.0, n_frames=2,
                           n_patterns=32).total > 0

    def test_one_circuit_suite(self, no_digests):
        config = SuiteConfig(circuits=(NAME,), seed=0, n_frames=2,
                             n_patterns=32)
        result = run_suite(config, circuit_factory=lambda name:
                           corpus_circuit("small", name))
        assert [run.status for run in result.runs] == ["ok"]


class TestOriginalElwsOnce:
    def test_cache_off_suite(self, monkeypatch):
        # Every circuit's ELWs go through circuit_elws exactly once: the
        # original's for its own SER, then each retimed rebuild's.
        calls: list[str] = []
        original = circuit_elws

        def counting(circuit, *args, **kwargs):
            calls.append(circuit.name)
            return original(circuit, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "circuit_elws", None) is circuit_elws:
                monkeypatch.setattr(module, "circuit_elws", counting)
        assert active() is None
        config = SuiteConfig(circuits=(NAME,), seed=0, n_frames=2,
                             n_patterns=32)
        result = run_suite(config, circuit_factory=lambda name:
                           corpus_circuit("small", name))
        assert [run.status for run in result.runs] == ["ok"]
        assert calls == [NAME, f"{NAME}_minobs", f"{NAME}_minobswin"]


class TestKeysArePinned:
    """Key hex per kind, in lookup order, as written by earlier releases."""

    def test_suite_keys(self):
        recorder = KeyRecorder()
        config = SuiteConfig(circuits=(NAME,), seed=0, n_frames=2,
                             n_patterns=32)
        with activated(recorder):
            run = optimize_resilient(corpus_circuit("small", NAME), config)
        assert run.status == "ok"
        assert recorder.keys == {
            "obs": ["df10ba75a205cb50bb04da394dae59c8"
                    "63cfbb0d4731fd8a31c276021a4853d8"],
            "init": ["aad497538aa370501246b8951d21e0e0"
                     "95481c6952a1519084568a43a39f4edf"],
            "solve": ["e6de26894c4dd4650ecce58dee5c78aa"
                      "76cbe5cc40857c912299f098ada3af90",
                      "e63a28ceb563b6edc50e4d561f8263bf"
                      "5abe38686ebabe6bad2e254a029839bc"],
            "guard": ["5516bcb0eef3fc78e763061135f228c0"
                      "d0320b3d2578a638484c7110c8d8dfe6"] * 2,
        }

    def test_simulated_ser_keys(self):
        # analyze_ser without an obs map looks up only its simulation.
        recorder = KeyRecorder()
        with activated(recorder):
            analyze_ser(corpus_circuit("small", NAME), 12.0, n_frames=2,
                        n_patterns=32, seed=0)
        assert recorder.keys == {
            "obs": ["df10ba75a205cb50bb04da394dae59c8"
                    "63cfbb0d4731fd8a31c276021a4853d8"],
        }
