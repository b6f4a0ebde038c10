"""Single-event-upset injection with sensitized, timing-accurate propagation.

This module provides the *model validation* substrate: an independent,
forward, per-pattern propagation of a transient flip, tracking both

* logic masking -- the flip only passes a gate in patterns where the gate
  is sensitized to the affected input (computed exactly per gate from the
  simulated pattern values), and
* timing masking -- the flip arrives at each observation point after the
  accumulated path delay; a glitch born at time ``t`` is latched iff
  ``t + delay`` falls inside the latching window ``[phi - T_s, phi + T_h]``.

For one pattern, the set of birth times ``t`` that get latched is the union
of ``[phi - T_s - delay, phi + T_h - delay]`` over sensitized paths -- the
per-pattern *sensitized* error-latching window.  Tests verify that the
paper's structural ELW (eq. 3) contains every sensitized window, and the
validation benchmark compares Monte-Carlo latching rates against the
analytic ``obs * |ELW| / phi`` model of eq. (4).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from .bitvec import popcount, to_bits, trim
from .logicsim import eval_gate

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class GlitchResult:
    """Arrivals of a propagated flip at the circuit's observation points.

    Attributes
    ----------
    source:
        Net where the flip was injected.
    arrivals:
        ``(kind, observed_net, delay, mask)`` tuples: ``kind`` is ``'po'``
        or ``'dff'``, ``delay`` is the accumulated combinational delay from
        the source output to the observation point, and ``mask`` is the
        packed set of patterns in which this path is sensitized.
    n_patterns:
        Number of valid patterns in the masks.
    """

    source: str
    arrivals: list[tuple[str, str, float, np.ndarray]] = field(
        default_factory=list)
    n_patterns: int = 0


def _merge_arrivals(entries: list[tuple[float, np.ndarray]],
                    cap: int) -> list[tuple[float, np.ndarray]]:
    """Coalesce equal delays and enforce the per-net arrival cap."""
    by_delay: dict[float, np.ndarray] = {}
    for delay, mask in entries:
        key = round(delay, 9)
        if key in by_delay:
            by_delay[key] = by_delay[key] | mask
        else:
            by_delay[key] = mask
    merged = sorted(by_delay.items())
    if len(merged) > cap:
        raise SimulationError(
            f"arrival-set blow-up (> {cap} distinct delays); "
            "use a smaller circuit or raise max_arrivals")
    return [(d, m) for d, m in merged]


def propagate_glitch(circuit: Circuit, frame: Mapping[str, np.ndarray],
                     source_net: str, n_patterns: int,
                     max_arrivals: int = 256) -> GlitchResult:
    """Propagate a flip of ``source_net`` through one clock cycle.

    Parameters
    ----------
    frame:
        Simulated net signatures for the cycle (from
        :func:`repro.sim.logicsim.simulate_comb` or a sequential step).
    source_net:
        Net whose output flips at relative time 0.
    max_arrivals:
        Safety cap on distinct path delays tracked per net.
    """
    if source_net not in frame:
        raise SimulationError(f"unknown source net {source_net!r}")

    # arrivals[net]: list of (delay from source output, sensitized mask)
    full = trim(np.full_like(frame[source_net], _ONES), n_patterns)
    arrivals: dict[str, list[tuple[float, np.ndarray]]] = {
        source_net: [(0.0, full)]}

    for gate_name in circuit.topo_gates():
        gate = circuit.gates[gate_name]
        if gate_name == source_net:
            continue
        touched = [net for net in set(gate.inputs) if net in arrivals]
        if not touched:
            continue
        d = circuit.gate_delay(gate_name)
        out_entries: list[tuple[float, np.ndarray]] = []
        for net in touched:
            # Exact single-input sensitization of this gate to `net`.
            flipped_in = [frame[i] ^ _ONES if i == net else frame[i]
                          for i in gate.inputs]
            flipped = trim(eval_gate(gate.op, flipped_in, n_patterns),
                           n_patterns)
            sens = frame[gate_name] ^ flipped
            if not popcount(sens):
                continue
            for delay, mask in arrivals[net]:
                passed = mask & sens
                if popcount(passed):
                    out_entries.append((delay + d, passed))
        if out_entries:
            existing = arrivals.get(gate_name, [])
            arrivals[gate_name] = _merge_arrivals(existing + out_entries,
                                                  max_arrivals)

    result = GlitchResult(source=source_net, n_patterns=n_patterns)
    for po in circuit.outputs:
        for delay, mask in arrivals.get(po, []):
            result.arrivals.append(("po", po, delay, mask))
    for dff in circuit.dffs.values():
        for delay, mask in arrivals.get(dff.d, []):
            result.arrivals.append(("dff", dff.name, delay, mask))
    return result


def sensitized_latching_windows(circuit: Circuit,
                                frame: Mapping[str, np.ndarray],
                                source_net: str, n_patterns: int,
                                phi: float, setup: float = 0.0,
                                hold: float = 2.0,
                                ) -> list[list[tuple[float, float]]]:
    """Per-pattern sensitized error-latching windows of ``source_net``.

    Returns one list of disjoint, sorted ``(left, right)`` intervals per
    pattern: the birth times at which a flip of ``source_net`` in that
    pattern is latched somewhere.  These are the per-pattern refinements of
    the structural ELW of eq. (3).
    """
    glitch = propagate_glitch(circuit, frame, source_net, n_patterns)
    per_pattern: list[list[tuple[float, float]]] = [
        [] for _ in range(n_patterns)]
    for _, _, delay, mask in glitch.arrivals:
        left = phi - setup - delay
        right = phi + hold - delay
        bits = to_bits(mask, n_patterns)
        for k in np.nonzero(bits)[0]:
            per_pattern[int(k)].append((left, right))
    return [merge_intervals(wins) for wins in per_pattern]


def merge_intervals(
        intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union a list of closed intervals into disjoint sorted intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for left, right in ordered[1:]:
        last_left, last_right = merged[-1]
        if left <= last_right + 1e-12:
            merged[-1] = (last_left, max(last_right, right))
        else:
            merged.append((left, right))
    return merged
