"""Flat core vs object core: the differential equivalence layer.

The flat CSR core is only allowed to exist because every number it
produces is *bit-identical* to the object core's -- same floats, same
interval endpoints, same dict iteration orders, and therefore the same
``result_checksum`` for every suite/matrix cell.  These tests are the
contract: every committed small-tier circuit is lowered, validated
against its source ``Circuit``, and run through all four ported stages
(packed simulation, backward-ODC observability, ELW construction, SER
aggregation) under both cores, comparing exact equality -- no
tolerances anywhere.

Tier-1 additionally checks ``result_checksum`` parity on the two-cell
matrix subset (serial, two workers, cold and warm shared cache across
cores); the full 36-cell sweep runs in the CI ``flatcore`` job under
``REPRO_FLATCORE_FULL=1``.
"""

import contextlib
import os

import numpy as np
import pytest

from repro.core.elw import circuit_elws
from repro.corpus import (
    build_circuit,
    load_digest_table,
    run_matrix,
    tier_specs,
)
from repro.corpus.matrix import GOLDEN_BASENAME, compare_digest_tables
from repro.flatcore import lower, validate_flat
from repro.runtime.suite import clear_obs_cache
from repro.ser.analysis import analyze_ser
from repro.sim.bitvec import random_patterns
from repro.sim.logicsim import simulate_comb
from repro.sim.odc import observability

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
GOLDEN_PATH = os.path.join(REPO_ROOT, "corpus", "small", GOLDEN_BASENAME)

full = pytest.mark.skipif(
    not os.environ.get("REPRO_FLATCORE_FULL"),
    reason="set REPRO_FLATCORE_FULL=1 for the full 36-cell sweep")

SMALL_NAMES = [spec.name for spec in tier_specs("small")]

#: Cheap-but-real analysis parameters for the per-stage comparisons
#: (equality does not get easier at the paper's 15x256; it only gets
#: slower to check 12 circuits x 2 cores).
FRAMES, PATTERNS, SEED = (3, 64, 1)
PHI = 8.0

#: The two-cell matrix slice tier-1 uses (mirrors tests/corpus).
SUBSET = dict(circuits=("cslow_a", "mesh_a"),
              scenarios=("shallow-both",))

_CIRCUITS = {}


def small_circuit(name):
    """Build (once per process) a committed small-tier circuit."""
    if name not in _CIRCUITS:
        spec = next(s for s in tier_specs("small") if s.name == name)
        _CIRCUITS[name] = build_circuit(spec)
    return _CIRCUITS[name]


def input_values(circuit, n_patterns, seed=0):
    rng = np.random.default_rng(seed)
    return {name: random_patterns(n_patterns, rng)
            for name in [*circuit.inputs, *circuit.dffs]}


@pytest.fixture(params=SMALL_NAMES)
def circuit(request):
    return small_circuit(request.param)


class TestLoweringRoundTrip:
    def test_lowering_validates_against_source(self, circuit):
        flat = lower(circuit)
        validate_flat(flat, circuit)
        assert flat.n_gates == len(circuit.gates)
        assert flat.n_dffs == len(circuit.dffs)

    def test_lowering_is_deterministic(self, circuit):
        assert lower(circuit).digest == lower(circuit).digest
        assert lower(circuit).digest != lower(
            small_circuit(SMALL_NAMES[0])).digest \
            or circuit.name == SMALL_NAMES[0]


class TestRecorderRngContract:
    """The flat recorder batches one ``rng.integers`` call per cycle.

    Bit-identity with the object recorder rests on PCG64 consuming its
    stream identically for one ``(n_inputs, words)`` request and for
    ``n_inputs`` sequential per-input draws.  Pin that equivalence --
    including the final generator state -- so a numpy behaviour change
    fails here, loudly, instead of surfacing as a cross-core digest
    mismatch.
    """

    @pytest.mark.parametrize("n_inputs,n_patterns",
                             [(1, 64), (7, 64), (100, 64), (13, 256),
                              (5, 100), (3, 1)])
    def test_batched_input_draws_match_per_input_draws(self, n_inputs,
                                                       n_patterns):
        from repro.sim.bitvec import _tail_mask, n_words

        words = n_words(n_patterns)
        seq_rng = np.random.default_rng(42)
        seq = np.stack([random_patterns(n_patterns, seq_rng)
                        for _ in range(n_inputs)])
        batch_rng = np.random.default_rng(42)
        batch = batch_rng.integers(0, 2 ** 64, size=(n_inputs, words),
                                   dtype=np.uint64)
        batch[:, -1] &= _tail_mask(n_patterns)
        assert (seq == batch).all()
        assert seq_rng.bit_generator.state == batch_rng.bit_generator.state


class TestStageEquality:
    def test_simulation_bit_equal(self, circuit, object_core):
        values = input_values(circuit, PATTERNS)
        with object_core():
            ref = simulate_comb(circuit, values, PATTERNS)
        out = simulate_comb(circuit, values, PATTERNS)
        assert list(ref) == list(out)
        for net in ref:
            assert np.array_equal(ref[net], out[net]), net
            assert out[net].dtype == np.uint64

    def test_simulation_with_force_bit_equal(self, circuit, object_core):
        values = input_values(circuit, PATTERNS)
        rng = np.random.default_rng(7)
        forced = {circuit.inputs[0]: random_patterns(PATTERNS, rng),
                  next(iter(circuit.gates)): random_patterns(PATTERNS,
                                                             rng)}
        with object_core():
            ref = simulate_comb(circuit, values, PATTERNS, force=forced)
        out = simulate_comb(circuit, values, PATTERNS, force=forced)
        assert list(ref) == list(out)
        for net in ref:
            assert np.array_equal(ref[net], out[net]), net

    def test_observability_bit_equal(self, circuit, object_core):
        with object_core():
            ref = observability(circuit, n_frames=FRAMES,
                                n_patterns=PATTERNS, seed=SEED,
                                keep_masks=True)
        out = observability(circuit, n_frames=FRAMES,
                            n_patterns=PATTERNS, seed=SEED,
                            keep_masks=True)
        # dict *order* matters: it feeds digests downstream
        assert list(ref.obs) == list(out.obs)
        for net in ref.obs:
            assert ref.obs[net] == out.obs[net], net
        assert list(ref.masks) == list(out.masks)
        for net in ref.masks:
            assert np.array_equal(ref.masks[net], out.masks[net]), net

    def test_elws_bit_equal(self, circuit, object_core):
        setup = circuit.library.setup_time
        hold = circuit.library.hold_time
        with object_core():
            ref = circuit_elws(circuit, PHI, setup, hold)
        out = circuit_elws(circuit, PHI, setup, hold)
        assert list(ref) == list(out)
        for net in ref:
            assert ref[net].intervals == out[net].intervals, net

    @pytest.mark.parametrize("model", ["library", "uniform", "area"])
    def test_ser_bit_equal(self, circuit, model, object_core):
        def run():
            return analyze_ser(circuit, PHI, rate_model=model,
                               n_frames=FRAMES, n_patterns=PATTERNS,
                               seed=SEED)

        with object_core():
            ref = run()
        out = run()
        assert ref.total == out.total
        assert ref.comb == out.comb
        assert ref.reg == out.reg
        assert ref.total_no_timing == out.total_no_timing
        assert list(ref.per_element) == list(out.per_element)
        assert ref.per_element == out.per_element


class TestChecksumParity:
    """``result_checksum`` is a pure function of the experiment --
    never of the core that computed it."""

    @pytest.fixture(scope="class")
    def object_cells(self, object_core):
        clear_obs_cache()
        with object_core():
            return run_matrix("small", **SUBSET).cells

    def test_flat_serial_matches_object(self, object_cells):
        clear_obs_cache()
        flat = run_matrix("small", **SUBSET)
        assert flat.cells == object_cells

    def test_flat_two_workers_match_object_serial(self, object_cells):
        clear_obs_cache()
        flat = run_matrix("small", workers=2, **SUBSET)
        assert flat.cells == object_cells

    def test_cores_share_one_cache(self, object_cells, object_core,
                                   tmp_path):
        # Flat results must land under the *same* cache keys: a cold
        # flat run fills the disk tier, a warm object run reads those
        # very entries -- and both emit the object-serial digests.
        cache_dir = str(tmp_path / "cache")
        clear_obs_cache()
        cold = run_matrix("small", cache=True, cache_dir=cache_dir,
                          **SUBSET)
        assert cold.cells == object_cells
        assert os.listdir(cache_dir)  # the disk tier was really filled
        clear_obs_cache()
        with object_core():
            warm = run_matrix("small", cache=True, cache_dir=cache_dir,
                              **SUBSET)
        assert warm.cells == object_cells


@full
class TestFullTierParity:
    """All 36 matrix cells, both cores, against the committed golden."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_digest_table(GOLDEN_PATH)

    @pytest.mark.parametrize("oracle, workers", [
        (True, 1),
        (False, 1),
        (False, 2),
    ], ids=["object-serial", "flat-serial", "flat-workers2"])
    def test_full_matrix_matches_golden(self, golden, object_core, oracle,
                                        workers):
        clear_obs_cache()
        with object_core() if oracle else contextlib.nullcontext():
            result = run_matrix("small", workers=workers)
        assert len(result.cells) == 36
        assert compare_digest_tables(result.digest_table(), golden) == []

    def test_full_matrix_cold_then_warm_across_cores(self, golden,
                                                     object_core,
                                                     tmp_path):
        cache_dir = str(tmp_path / "cache")
        clear_obs_cache()
        cold = run_matrix("small", cache=True, cache_dir=cache_dir)
        assert compare_digest_tables(cold.digest_table(), golden) == []
        clear_obs_cache()
        with object_core():
            warm = run_matrix("small", cache=True, cache_dir=cache_dir)
        assert compare_digest_tables(warm.digest_table(), golden) == []
