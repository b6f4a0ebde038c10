"""Observability (ODC-mask) computation with n-time-frame expansion.

The paper quantifies logic masking by the *observability* of each signal
(Sec. II-A/B): ``obs(g) = num_ones(O(g)) / K`` where ``O(g)`` is the
observability-don't-care mask of ``g`` over K simulated patterns, computed
with an n-time-frame expansion so errors can propagate through registers
for multiple cycles [17].

Two engines are provided:

* :func:`observability` -- the fast signature-based backward propagation of
  [11]/[21]: per frame, a gate input's mask is the OR over readers of the
  reader's mask AND the exact per-gate sensitization of that input; frames
  are chained backward through the register boundary.  Linear in circuit
  size per frame; reconvergent-path interference is approximated by the OR
  (the standard signature-based approximation).
* :func:`exact_observability` -- the flip-and-resimulate oracle: force the
  net to its complement in frame 0 and diff-simulate all n frames.
  Quadratic; used for tests and small circuits.

Observation points (matching the time-frame-expansion construction):
primary outputs in *every* frame, flip-flop data inputs in the *final*
frame (state handed past the horizon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache import cached
from ..errors import AnalysisError
from ..faultplane.hooks import fault_point
from ..netlist.circuit import Circuit
from ..telemetry import spans as telemetry
from .bitvec import all_ones, all_zeros, fraction_of_ones, random_patterns, trim
from .logicsim import eval_gate, simulate_comb
from .sequential import SequentialSimulator, reset_state

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class ObservabilityResult:
    """Observability of every net for frame-0 error injection.

    Attributes
    ----------
    obs:
        Fraction of patterns in which a flip of the net in frame 0 reaches
        an observation point within the n-frame horizon.
    n_patterns, n_frames:
        Simulation configuration the values were computed with.
    method:
        ``"backward"`` or ``"exact"``.
    masks:
        The frame-0 per-net observability masks (packed 64 patterns per
        ``uint64`` word), kept only when the engine was called with
        ``keep_masks=True``; ``None`` otherwise.
    """

    obs: dict[str, float]
    n_patterns: int
    n_frames: int
    method: str
    masks: dict[str, np.ndarray] | None = None

    def of(self, net: str) -> float:
        """Observability of ``net`` (raises on unknown nets)."""
        try:
            return self.obs[net]
        except KeyError:
            raise AnalysisError(f"no observability for net {net!r}") from None


def _record_frames(circuit: Circuit, n_frames: int, n_patterns: int,
                   warmup: int, rng: np.random.Generator,
                   ) -> tuple[list[dict[str, np.ndarray]], SequentialSimulator,
                              list[dict[str, np.ndarray]],
                              dict[str, np.ndarray]]:
    """Warm up, then record ``n_frames`` cycles of net values.

    Returns the recorded frames, the simulator, the per-frame PI values and
    the register state at the start of the recorded window.
    """
    sim = SequentialSimulator(circuit, n_patterns, reset_state(circuit, n_patterns))
    for _ in range(warmup):
        sim.step_random(rng)
    start_state = {k: v.copy() for k, v in sim.state.items()}
    frames: list[dict[str, np.ndarray]] = []
    pi_trace: list[dict[str, np.ndarray]] = []
    for _ in range(n_frames):
        pis = {net: random_patterns(n_patterns, rng) for net in circuit.inputs}
        pi_trace.append(pis)
        frames.append(sim.step(pis))
    return frames, sim, pi_trace, start_state


def _input_sensitization(circuit: Circuit, gate_name: str, net: str,
                         frame: dict[str, np.ndarray],
                         n_patterns: int) -> np.ndarray:
    """Mask of patterns where flipping input ``net`` flips the gate output.

    Exact per-gate: evaluates the gate with ``net`` complemented on every
    port it drives (a net feeding two ports of an XOR correctly cancels).
    """
    gate = circuit.gates[gate_name]
    normal = frame[gate_name]
    flipped_in = [frame[i] ^ _ONES if i == net else frame[i]
                  for i in gate.inputs]
    flipped = trim(eval_gate(gate.op, flipped_in, n_patterns), n_patterns)
    return normal ^ flipped


def _encode_obs_result(result: ObservabilityResult) -> dict:
    """Cache encoding: exact-JSON-round-trip view of a result.

    Obs fractions are Python floats (``repr`` round-trips them exactly)
    and masks become arbitrary-precision int lists, so a decoded warm
    result is bit-identical to the cold one.
    """
    payload = {
        "obs": result.obs,
        "n_patterns": result.n_patterns,
        "n_frames": result.n_frames,
        "method": result.method,
        "masks": None,
    }
    if result.masks is not None:
        payload["masks"] = {net: [int(word) for word in mask]
                            for net, mask in result.masks.items()}
    return payload


def _decode_obs_result(payload: dict) -> ObservabilityResult:
    masks = payload.get("masks")
    if masks is not None:
        masks = {net: np.array(words, dtype=np.uint64)
                 for net, words in masks.items()}
    return ObservabilityResult(
        obs={net: float(v) for net, v in payload["obs"].items()},
        n_patterns=int(payload["n_patterns"]),
        n_frames=int(payload["n_frames"]),
        method=str(payload["method"]), masks=masks)


def observability(circuit: Circuit, n_frames: int = 15,
                  n_patterns: int = 256, warmup: int | None = None,
                  seed: int = 0,
                  keep_masks: bool = False) -> ObservabilityResult:
    """Signature-based observability with backward ODC propagation.

    Cached under analysis kind ``"obs"`` when an analysis cache is
    active (:mod:`repro.cache`): observability depends only on circuit
    *function*, so the key uses the functional
    :meth:`~repro.netlist.circuit.Circuit.fingerprint`.  The
    ``sim.observability`` fault point fires before the cache lookup so
    chaos plans see every call, warm or cold.
    """
    if n_frames < 1:
        raise AnalysisError("n_frames must be >= 1")
    fault_point("sim.observability", circuit=circuit.name, seed=seed)
    with telemetry.span("sim.observability", circuit=circuit.name,
                        frames=int(n_frames), patterns=int(n_patterns),
                        seed=int(seed)):
        params = {"n_frames": int(n_frames), "n_patterns": int(n_patterns),
                  "warmup": warmup if warmup is None else int(warmup),
                  "seed": int(seed), "keep_masks": bool(keep_masks)}
        return cached("obs", circuit.fingerprint(), params,
                      compute=lambda: _observability_impl(
                          circuit, n_frames, n_patterns, warmup, seed,
                          keep_masks),
                      encode=_encode_obs_result, decode=_decode_obs_result)


def _observability_impl(circuit: Circuit, n_frames: int, n_patterns: int,
                        warmup: int | None, seed: int,
                        keep_masks: bool) -> ObservabilityResult:
    rng = np.random.default_rng(seed)
    if warmup is None:
        warmup = n_frames

    from ..flatcore import arena

    flat = arena.flat_for(circuit)
    if flat is not None:
        from ..flatcore.kernels import observability_flat, record_frames_flat

        # The flat path records its frames matrix-natively (same RNG
        # stream, bit-identical values) -- per-net frame dicts never
        # materialize.
        flat_frames = record_frames_flat(flat, n_frames, n_patterns,
                                         warmup, rng)
        obs, kept = observability_flat(flat, flat_frames, n_frames,
                                       n_patterns, keep_masks)
        return ObservabilityResult(obs=obs, n_patterns=n_patterns,
                                   n_frames=n_frames, method="backward",
                                   masks=kept)

    frames, _, _, _ = _record_frames(circuit, n_frames, n_patterns, warmup, rng)

    po_nets = set(circuit.outputs)
    # Readers of each net: (kind, name) with kind 'gate' or 'dff'.
    readers: dict[str, list[tuple[str, str]]] = {n: [] for n in circuit.nets}
    for gate in circuit.gates.values():
        for net in set(gate.inputs):
            readers[net].append(("gate", gate.name))
    for dff in circuit.dffs.values():
        readers[dff.d].append(("dff", dff.name))

    reverse_topo = list(reversed(circuit.topo_gates()))
    sources = list(circuit.inputs) + list(circuit.dffs)

    next_dff_masks: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for t in range(n_frames - 1, -1, -1):
        frame = frames[t]
        last = (t == n_frames - 1)
        masks = {}

        def net_mask(net: str) -> np.ndarray:
            acc = all_ones(n_patterns) if net in po_nets \
                else all_zeros(n_patterns)
            for kind, name in readers[net]:
                if kind == "gate":
                    sens = _input_sensitization(circuit, name, net, frame,
                                                n_patterns)
                    acc = acc | (sens & masks[name])
                else:  # register boundary
                    if last:
                        acc = acc | all_ones(n_patterns)
                    else:
                        acc = acc | next_dff_masks[name]
            return acc

        for gate_name in reverse_topo:
            masks[gate_name] = net_mask(gate_name)
        for net in sources:
            masks[net] = net_mask(net)
        next_dff_masks = {name: masks[name] for name in circuit.dffs}

    obs = {net: fraction_of_ones(mask, n_patterns)
           for net, mask in masks.items()}
    kept = {net: trim(mask.copy(), n_patterns)
            for net, mask in masks.items()} if keep_masks else None
    return ObservabilityResult(obs=obs, n_patterns=n_patterns,
                               n_frames=n_frames, method="backward",
                               masks=kept)


def exact_observability(circuit: Circuit, n_frames: int = 15,
                        n_patterns: int = 256, warmup: int | None = None,
                        seed: int = 0,
                        keep_masks: bool = False) -> ObservabilityResult:
    """Flip-and-resimulate observability oracle (quadratic; small circuits).

    Uses the same pattern stream as :func:`observability` for the same
    seed, so the two engines are directly comparable.
    """
    if n_frames < 1:
        raise AnalysisError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)
    if warmup is None:
        warmup = n_frames
    frames, _, pi_trace, start_state = _record_frames(
        circuit, n_frames, n_patterns, warmup, rng)

    po_nets = list(circuit.outputs)
    obs: dict[str, float] = {}
    kept: dict[str, np.ndarray] | None = {} if keep_masks else None
    for net in circuit.nets:
        flip = frames[0][net] ^ _ONES
        flip = trim(flip.copy(), n_patterns)
        observed = all_zeros(n_patterns)

        values = dict(pi_trace[0])
        values.update(start_state)
        if net in circuit.dffs or net in circuit.inputs:
            values[net] = flip
            nets0 = simulate_comb(circuit, values, n_patterns)
        else:
            nets0 = simulate_comb(circuit, values, n_patterns,
                                  force={net: flip})
        state = {name: nets0[dff.d].copy()
                 for name, dff in circuit.dffs.items()}
        for po in po_nets:
            observed |= nets0[po] ^ frames[0][po]
        if n_frames == 1:
            for name, dff in circuit.dffs.items():
                observed |= nets0[dff.d] ^ frames[0][dff.d]
        else:
            for t in range(1, n_frames):
                values = dict(pi_trace[t])
                values.update(state)
                nets_t = simulate_comb(circuit, values, n_patterns)
                state = {name: nets_t[dff.d].copy()
                         for name, dff in circuit.dffs.items()}
                for po in po_nets:
                    observed |= nets_t[po] ^ frames[t][po]
                if t == n_frames - 1:
                    for name, dff in circuit.dffs.items():
                        observed |= nets_t[dff.d] ^ frames[t][dff.d]
        obs[net] = fraction_of_ones(observed, n_patterns)
        if kept is not None:
            kept[net] = trim(observed.copy(), n_patterns)

    return ObservabilityResult(obs=obs, n_patterns=n_patterns,
                               n_frames=n_frames, method="exact",
                               masks=kept)
