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
* ``err`` comes from a :class:`~repro.ser.rates.RateModel`.

Retiming invariance of gate observability is what lets one observability
run serve both the original and every retimed circuit: pass the original
circuit's ``obs`` when analyzing a retimed version (gates keep their
names through :func:`repro.retime.apply.apply_retiming`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..cache import cached, obs_digest, timing_digest
from ..core.elw import circuit_elws
from ..core.intervals import IntervalSet
from ..errors import AnalysisError
from ..faultplane.hooks import fault_point
from ..netlist.circuit import Circuit
from ..sim.odc import observability
from ..telemetry import spans as telemetry
from .rates import RateModel


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
    for name in circuit.dffs:
        source, _ = circuit.comb_source(name)
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


def analyze_ser(circuit: Circuit, phi: float,
                setup: float | None = None, hold: float | None = None,
                obs: Mapping[str, float] | None = None,
                rate_model: RateModel | str = "library",
                n_frames: int = 15, n_patterns: int = 256,
                seed: int = 0,
                electrical_tau: float | None = None,
                latch_width: float = 1.0,
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
    rate_model, n_frames, n_patterns, seed:
        See :mod:`repro.ser.rates` and :mod:`repro.sim.odc`.
    electrical_tau:
        When set, raw rates are additionally derated by the electrical
        masking factor of :mod:`repro.sim.electrical` (inertial pulse
        attenuation with exponential strike widths of mean ``tau``).
        The paper's experiments leave this off (its eq. 4 covers logic
        and timing masking only).
    latch_width:
        Minimal pulse width a register can sample (used with
        ``electrical_tau``).
    elws:
        Precomputed per-net ELWs (must match ``(phi, setup, hold)``);
        pass the output of
        :func:`repro.core.elw.incremental_circuit_elws` to reuse an
        original circuit's timing analysis on a retimed rebuild.  When
        omitted, :func:`~repro.core.elw.circuit_elws` is run here.

    Cached under analysis kind ``"ser"`` when an analysis cache is
    active and ``elws`` is not supplied (precomputed ELWs have no
    compact digest; the incremental path is already the fast one).
    """
    if phi <= 0:
        raise AnalysisError("clock period must be positive")
    fault_point("ser.analyze", circuit=circuit.name)
    if setup is None:
        setup = circuit.library.setup_time
    if hold is None:
        hold = circuit.library.hold_time
    if isinstance(rate_model, str):
        rate_model = RateModel(rate_model)

    def compute() -> SerAnalysis:
        return _analyze_ser_impl(circuit, phi, setup, hold, obs,
                                 rate_model, n_frames, n_patterns, seed,
                                 electrical_tau, latch_width, elws)

    with telemetry.span("ser.analyze", circuit=circuit.name,
                        incremental=elws is not None):
        if elws is not None:
            return compute()
        params = {
            "phi": float(phi), "setup": float(setup), "hold": float(hold),
            "rate_model": [rate_model.name, float(rate_model.unit)],
            "electrical_tau": electrical_tau,
            "latch_width": float(latch_width),
            "obs": obs_digest(obs) if obs is not None else None,
            "sim": None if obs is not None
            else [int(n_frames), int(n_patterns), int(seed)],
        }
        return cached("ser", timing_digest(circuit), params,
                      compute=compute,
                      encode=_encode_ser, decode=_decode_ser)


def _analyze_ser_impl(circuit: Circuit, phi: float, setup: float,
                      hold: float, obs: Mapping[str, float] | None,
                      rate_model: RateModel, n_frames: int,
                      n_patterns: int, seed: int,
                      electrical_tau: float | None, latch_width: float,
                      elws: Mapping[str, IntervalSet] | None,
                      ) -> SerAnalysis:
    if obs is None:
        obs = observability(circuit, n_frames=n_frames,
                            n_patterns=n_patterns, seed=seed).obs
    obs_full = extend_obs_to_registers(circuit, obs)
    if elws is None:
        elws = circuit_elws(circuit, phi, setup, hold)
    derate: Mapping[str, float] | None = None
    if electrical_tau is not None:
        from ..sim.electrical import electrical_derating

        derate = electrical_derating(circuit, tau=electrical_tau,
                                     latch_width=latch_width)

    if derate is None and rate_model.name in ("library", "uniform", "area"):
        from ..flatcore import arena

        flat = arena.flat_for(circuit)
        if flat is not None:
            from ..flatcore.kernels import ser_totals_flat

            per_element, comb, reg, no_timing = ser_totals_flat(
                flat, obs_full, elws, rate_model.name, rate_model.unit,
                rate_model.register_rate(circuit), phi)
            return SerAnalysis(total=comb + reg, comb=comb, reg=reg,
                               total_no_timing=no_timing,
                               per_element=per_element,
                               phi=phi, setup=setup, hold=hold)

    per_element: dict[str, float] = {}
    comb = reg = 0.0
    no_timing = 0.0
    for name in circuit.gates:
        err = rate_model.gate_rate(circuit, name)
        if derate is not None:
            err *= derate[name]
        window = elws[name].measure / phi
        value = obs_full[name] * err * window
        per_element[name] = value
        comb += value
        no_timing += obs_full[name] * err
    base_reg_err = rate_model.register_rate(circuit)
    for name in circuit.dffs:
        reg_err = base_reg_err
        if derate is not None:
            reg_err *= derate[name]
        window = elws[name].measure / phi
        value = obs_full[name] * reg_err * window
        per_element[name] = value
        reg += value
        no_timing += obs_full[name] * reg_err

    return SerAnalysis(total=comb + reg, comb=comb, reg=reg,
                       total_no_timing=no_timing, per_element=per_element,
                       phi=phi, setup=setup, hold=hold)
