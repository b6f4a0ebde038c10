"""The SER engine: eq. (4) with real ELWs.

``SER(C) = sum_{g in gates} obs(g) err(g) |ELW(g)| / phi
         + sum_{r in regs}  obs(r) err(r) |ELW(r)| / phi``

* ``obs`` comes from the n-time-frame signature simulation
  (:mod:`repro.sim.odc`).  Registers act as wires in the expansion, so a
  register's observability is that of the gate (or input) driving its
  chain -- the same value the retiming objective uses, keeping analysis
  and optimization consistent (Sec. II-B / III-B).
* ``|ELW|`` is the *exact* interval-union measure of eq. (3) (the paper:
  "when doing the SER analysis, we compute the real size of the ELW");
* ``err`` is the cell library's raw rate (:mod:`repro.ser.rates`).

Retiming invariance of gate observability is what lets one observability
run serve both the original and every retimed circuit: pass the original
circuit's ``obs`` when analyzing a retimed version (gates keep their
names through :func:`repro.retime.apply.apply_retiming`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .._util import nogc
from ..cache import cached, obs_digest, timing_digest
from ..core.elw import circuit_elws
from ..core.intervals import IntervalSet
from ..errors import AnalysisError
from ..faultplane.hooks import fault_point
from ..netlist.circuit import Circuit
from ..sim.odc import observability
from ..telemetry import spans as telemetry
from .rates import raw_rates, register_rate


@dataclass
class SerAnalysis:
    """Result of one SER analysis run.

    Attributes
    ----------
    total:
        The circuit SER (eq. 4).
    comb, reg:
        Contributions of combinational gates and of registers.
    total_no_timing:
        The logic-masking-only SER (eq. 1/2 extended, no ELW factor) --
        the quantity the MinObs baseline of [17] optimizes.
    per_element:
        Per gate/register contribution to ``total``.
    phi, setup, hold:
        Clock configuration used for the ELWs.
    """

    total: float
    comb: float
    reg: float
    total_no_timing: float
    per_element: dict[str, float] = field(repr=False, default_factory=dict)
    phi: float = 0.0
    setup: float = 0.0
    hold: float = 0.0


def extend_obs_to_registers(circuit: Circuit,
                            obs: Mapping[str, float]) -> dict[str, float]:
    """Observability for every net, deriving register values from drivers.

    A register chain is a wire in the time-frame expansion: every register
    on the chain takes the observability of the chain's combinational
    source (gate output or primary input).
    """
    full = dict(obs)
    sources = circuit.register_sources()
    for name in circuit.dffs:
        source, _ = sources[name]
        if source not in obs:
            raise AnalysisError(
                f"observability map lacks the driver {source!r} of "
                f"register {name!r}")
        full[name] = obs[source]
    return full


def _encode_ser(analysis: SerAnalysis) -> dict:
    return {"total": analysis.total, "comb": analysis.comb,
            "reg": analysis.reg,
            "total_no_timing": analysis.total_no_timing,
            "per_element": analysis.per_element,
            "phi": analysis.phi, "setup": analysis.setup,
            "hold": analysis.hold}


def _decode_ser(payload: dict) -> SerAnalysis:
    return SerAnalysis(
        total=payload["total"], comb=payload["comb"], reg=payload["reg"],
        total_no_timing=payload["total_no_timing"],
        per_element=dict(payload["per_element"]),
        phi=payload["phi"], setup=payload["setup"], hold=payload["hold"])


@nogc
def analyze_ser(circuit: Circuit, phi: float,
                setup: float | None = None, hold: float | None = None,
                obs: Mapping[str, float] | None = None,
                n_frames: int = 15, n_patterns: int = 256,
                seed: int = 0,
                elws: Mapping[str, IntervalSet] | None = None,
                ) -> SerAnalysis:
    """Compute the SER of ``circuit`` at clock period ``phi`` (eq. 4).

    Parameters
    ----------
    setup, hold:
        Default to the circuit library's register characterization.
    obs:
        Observability per gate-output / primary-input net.  When omitted
        it is computed on ``circuit`` itself; pass the original circuit's
        map when analyzing a retimed version (gate observabilities are
        retiming-invariant, Sec. III-B).
    n_frames, n_patterns, seed:
        See :mod:`repro.sim.odc`.
    elws:
        Precomputed per-net ELWs (must match ``(phi, setup, hold)``).
        When omitted, :func:`~repro.core.elw.circuit_elws` is run here.
        The suite passes each retimed rebuild's ELWs, computed once by
        the uncached kernel.

    Cached under analysis kind ``"ser"`` when an analysis cache is
    active and ``elws`` is not supplied (precomputed ELWs have no
    compact digest).
    """
    if phi <= 0:
        raise AnalysisError("clock period must be positive")
    fault_point("ser.analyze", circuit=circuit.name)
    if setup is None:
        setup = circuit.library.setup_time
    if hold is None:
        hold = circuit.library.hold_time

    def compute() -> SerAnalysis:
        return _analyze_ser_impl(circuit, phi, setup, hold, obs,
                                 n_frames, n_patterns, seed, elws)

    def key() -> tuple[str, dict]:
        return timing_digest(circuit), {
            "phi": float(phi), "setup": float(setup), "hold": float(hold),
            "obs": obs_digest(obs) if obs is not None else None,
            "sim": None if obs is not None
            else [int(n_frames), int(n_patterns), int(seed)],
        }

    with telemetry.span("ser.analyze", circuit=circuit.name,
                        precomputed_elws=elws is not None):
        if elws is not None:
            return compute()
        return cached("ser", key, compute=compute,
                      encode=_encode_ser, decode=_decode_ser)


def _analyze_ser_impl(circuit: Circuit, phi: float, setup: float,
                      hold: float, obs: Mapping[str, float] | None,
                      n_frames: int, n_patterns: int, seed: int,
                      elws: Mapping[str, IntervalSet] | None,
                      ) -> SerAnalysis:
    if obs is None:
        obs = observability(circuit, n_frames=n_frames,
                            n_patterns=n_patterns, seed=seed).obs
    obs_full = extend_obs_to_registers(circuit, obs)
    if elws is None:
        elws = circuit_elws(circuit, phi, setup, hold)

    from ..flatcore import arena

    flat = arena.flat_for(circuit)
    if flat is not None:
        from ..flatcore.kernels import ser_totals_flat

        per_element, comb, reg, no_timing = ser_totals_flat(
            flat, obs_full, elws, register_rate(circuit), phi)
        return SerAnalysis(total=comb + reg, comb=comb, reg=reg,
                           total_no_timing=no_timing,
                           per_element=per_element,
                           phi=phi, setup=setup, hold=hold)

    rates = raw_rates(circuit)
    per_element: dict[str, float] = {}
    comb = reg = 0.0
    no_timing = 0.0
    for name in circuit.gates:
        window = elws[name].measure / phi
        value = obs_full[name] * rates[name] * window
        per_element[name] = value
        comb += value
        no_timing += obs_full[name] * rates[name]
    for name in circuit.dffs:
        window = elws[name].measure / phi
        value = obs_full[name] * rates[name] * window
        per_element[name] = value
        reg += value
        no_timing += obs_full[name] * rates[name]

    return SerAnalysis(total=comb + reg, comb=comb, reg=reg,
                       total_no_timing=no_timing, per_element=per_element,
                       phi=phi, setup=setup, hold=hold)
