"""Post-retime verification guards: semi-formal self-checks on results.

A retiming result is only reported after it passes four independent
checks (OpenSEA-style self-checking of the tool's own outputs):

* ``valid`` -- the label satisfies P0 (``r(host) = 0``, no negative edge
  register counts);
* ``period`` -- the retimed circuit meets the clock-period constraint
  ``Phi`` the solve was run under (setup-only achieved period);
* ``registers`` -- the rebuilt netlist's flip-flop count equals the
  shared-chain model's prediction from the graph (netlist/graph
  bookkeeping agreement);
* ``cycle_weights`` -- register conservation on every directed cycle
  (:func:`repro.retime.verify.check_cycle_weights`);
* ``sequential`` -- cycle-accurate co-simulation of original vs. retimed
  on a shared random input trace.  With exact forwarded initial states
  the circuits must agree from reset; with reset-to-0 fallback states
  the first ``flush_cycles`` cycles are ignored (retiming preserves
  steady-state behaviour, not the warm-up transient).

A failing report is *quarantined* by the suite runner: the result is
discarded and the degradation ladder moves on rather than silently
reporting the SER of a non-equivalent circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import SimulationError, VerificationError
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import achieved_period
from ..netlist.circuit import Circuit
from ..retime.verify import CoSimulation, check_cycle_weights
from ..telemetry import spans as telemetry


@dataclass
class GuardReport:
    """Outcome of :func:`verify_retimed`.

    Attributes
    ----------
    ok:
        True when every check passed.
    checks:
        Per-check verdicts, keyed by check name.
    first_bad_cycle:
        First co-simulation cycle with an output mismatch *after* the
        flush window, or -1.
    flush_cycles:
        Warm-up cycles excluded from the sequential comparison.
    notes:
        Human-readable details for the failed checks.
    """

    ok: bool
    checks: dict[str, bool] = field(default_factory=dict)
    first_bad_cycle: int = -1
    flush_cycles: int = 0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "checks": dict(self.checks),
                "first_bad_cycle": int(self.first_bad_cycle),
                "flush_cycles": int(self.flush_cycles),
                "notes": list(self.notes)}

    def raise_if_failed(self, label: str = "retiming") -> None:
        """Raise :class:`~repro.errors.VerificationError` unless ok."""
        if not self.ok:
            failed = [k for k, v in self.checks.items() if not v]
            raise VerificationError(
                f"{label} failed verification guard "
                f"({', '.join(failed)}): {'; '.join(self.notes)}",
                report=self)


#: Upper bound on the co-simulation flush window (see
#: :func:`default_flush_cycles`): feedback circuits have no general
#: finite flush bound, so the guard stops escalating here.
FLUSH_CAP = 48


def default_flush_cycles(graph: RetimingGraph, r: np.ndarray,
                         cap: int = FLUSH_CAP) -> int:
    """Warm-up bound for reset-to-0 fallback states.

    Every relocated register is at most ``max |r|`` moves from its
    original position and sits at most ``max w_r`` deep in a shared
    chain, so the transient drains within their sum for pipeline-shaped
    logic; the cap keeps feedback-heavy circuits (where no finite bound
    exists in general) from exploding the check -- the guard is a
    semi-formal self-check, not a proof.
    """
    r = np.asarray(r, dtype=np.int64)
    weights = graph.retimed_weights(r)
    depth = int(weights.max()) if len(weights) else 0
    moved = int(np.abs(r).max()) if len(r) else 0
    return min(cap, moved + depth + 2)


#: Post-flush cycles every guarded solve co-simulates.
GUARD_CYCLES = 8
#: Width of the guard's shared random input trace.
GUARD_PATTERNS = 32


def verify_retimed(original: Circuit, retimed: Circuit,
                   graph: RetimingGraph, r: np.ndarray, phi: float,
                   setup: float = 0.0, *, exact_states: bool = True,
                   flush_cycles: int | None = None,
                   check_cycles: int = GUARD_CYCLES,
                   n_patterns: int = GUARD_PATTERNS, seed: int = 0,
                   eps: float = 1e-6) -> GuardReport:
    """Run every post-retime guard check; never raises on failure.

    Parameters
    ----------
    original, retimed:
        The reference circuit and the rebuilt retimed netlist.
    graph, r:
        The retiming graph of ``original`` and the applied label.
    phi, setup:
        The clock-period constraint the solve ran under.
    exact_states:
        Whether initial states were forwarded exactly (see
        :func:`repro.pipeline.rebuild_retimed_states`); False engages the
        flush window.
    flush_cycles:
        Warm-up cycles to ignore when ``exact_states`` is False; default
        from :func:`default_flush_cycles`.
    check_cycles:
        Post-flush cycles that must agree exactly.
    n_patterns, seed:
        Width and seed of the shared random input trace.
    """
    report = GuardReport(ok=True)
    r = np.asarray(r, dtype=np.int64)

    # ---- valid: P0 ----------------------------------------------------
    valid = graph.is_valid_retiming(r)
    report.checks["valid"] = valid
    if not valid:
        report.notes.append("label violates P0 (invalid retiming)")
        # Timing labels and co-simulation are meaningless without P0.
        report.ok = False
        report.checks["period"] = False
        report.checks["registers"] = False
        report.checks["cycle_weights"] = False
        report.checks["sequential"] = False
        return report

    # ---- period: achieved period under r meets phi --------------------
    period = achieved_period(graph, r, setup)
    period_ok = period <= phi * (1.0 + eps) + eps
    report.checks["period"] = period_ok
    if not period_ok:
        report.notes.append(
            f"achieved period {period:.3f} exceeds phi {phi:.3f}")

    # ---- registers: netlist vs shared-chain model ---------------------
    expected = graph.register_count(r)
    registers_ok = retimed.n_dffs == expected
    report.checks["registers"] = registers_ok
    if not registers_ok:
        report.notes.append(
            f"rebuilt netlist has {retimed.n_dffs} registers, "
            f"shared-chain model predicts {expected}")

    # ---- cycle_weights: register conservation -------------------------
    conserved = check_cycle_weights(graph, r)
    report.checks["cycle_weights"] = conserved
    if not conserved:
        report.notes.append("register count changed on a cycle")

    # ---- sequential: co-simulation with flush window ------------------
    # The heuristic flush bound can undershoot on feedback circuits (the
    # reset-to-0 transient may circulate longer than moved+depth), so on
    # divergence the window is escalated up to FLUSH_CAP before the
    # result is declared non-equivalent: a transient converges under a
    # longer flush, a genuinely broken retiming keeps diverging.
    explicit_flush = flush_cycles is not None
    if flush_cycles is None:
        flush_cycles = 0 if exact_states else default_flush_cycles(graph, r)
    schedule = [int(flush_cycles)]
    if not explicit_flush and not exact_states:
        bound = schedule[0]
        while bound < FLUSH_CAP:
            bound = min(FLUSH_CAP, max(2 * bound, 4))
            schedule.append(bound)
    # Every window starts from reset on the same seeded trace, so one
    # lazily extended co-simulation serves them all.
    try:
        cosim = CoSimulation(original, retimed, n_patterns=n_patterns,
                             seed=seed)
    except SimulationError:  # mismatched interfaces
        cosim = None
    for windows, flush_cycles in enumerate(schedule, 1):
        if cosim is None:
            sequential_ok, bad_cycle = False, 0
        else:
            bad_cycle = cosim.first_mismatch(int(flush_cycles),
                                             int(flush_cycles) + check_cycles)
            sequential_ok = bad_cycle < 0
        if sequential_ok:
            break
    tracer = telemetry.active()
    if tracer is not None:
        tracer.add_attrs(
            cosim_cycles=len(cosim.differs) if cosim is not None else 0,
            flush_windows=windows)
    report.flush_cycles = int(flush_cycles)
    if sequential_ok and flush_cycles != schedule[0]:
        report.notes.append(
            f"sequential agreement needed a {flush_cycles}-cycle flush "
            f"(heuristic bound was {schedule[0]})")
    report.checks["sequential"] = sequential_ok
    report.first_bad_cycle = bad_cycle
    if not sequential_ok:
        window = "from reset" if flush_cycles == 0 else \
            f"after a {flush_cycles}-cycle flush"
        report.notes.append(
            f"outputs diverge at cycle {bad_cycle} ({window})")

    report.ok = all(report.checks.values())
    return report

