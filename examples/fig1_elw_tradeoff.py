#!/usr/bin/env python3
"""Figure 1 of the paper: why observability-only retiming can backfire.

The circuit (see ``repro.circuits.small.figure1_circuit``) has a register
pair whose combined observability exceeds that of the merge gate F, so
the MinObs baseline [17] gladly moves both registers forward through F --
reducing register observability exactly as designed.  But each source
gate also has a second, faster observation path; the move shifts the
register-path latching window away from the side-path window, the two
stop overlapping, and the error-latching window of every upstream gate
grows by d(NOT) = 1 time unit (the paper's "+1").  The accumulated
timing-masking loss outweighs the logic-masking gain: total SER gets
*worse*.  MinObsWin sees that the merged register would sit closer than
R_min to the next latch and refuses.

Run:  python examples/fig1_elw_tradeoff.py
"""

import numpy as np

from repro import Problem, gains
from repro.circuits import figure1_circuit
from repro.core.elw import circuit_elws
from repro.core.constraints import register_observability
from repro.core.minobs import minobs_retiming
from repro.core.minobswin import minobswin_retiming
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import min_register_path
from repro.pipeline import rebuild_retimed
from repro.ser.analysis import analyze_ser
from repro.sim.odc import observability

PHI = 20.0
SETUP, HOLD = 0.0, 2.0


def main() -> None:
    circuit = figure1_circuit(depth=4)
    graph = RetimingGraph.from_circuit(circuit)
    obs = observability(circuit, n_frames=6, n_patterns=256, seed=3).obs

    r0 = graph.zero_retiming()
    rmin = min_register_path(graph, r0, PHI, SETUP, HOLD)
    counts = {net: int(round(v * 256)) for net, v in obs.items()}
    problem = Problem(graph=graph, phi=PHI, setup=SETUP, hold=HOLD,
                      rmin=rmin, b=gains(graph, counts))

    elws = circuit_elws(circuit, PHI, SETUP, HOLD)
    ser0 = analyze_ser(circuit, PHI, SETUP, HOLD, obs=obs)
    print(f"R_min = {rmin:.1f}   (initial shortest register-to-latch "
          f"path)")
    print(f"original        : SER {ser0.total:.4e}   "
          f"register obs {register_observability(graph, r0, obs):.2f}   "
          f"|ELW(A)| {elws['A'].measure:.1f}")

    for name, solver in (("MinObs [17]", minobs_retiming),
                         ("MinObsWin", minobswin_retiming)):
        result = solver(problem, r0)
        retimed = rebuild_retimed(circuit, graph, result.r)
        ser = analyze_ser(retimed, PHI, SETUP, HOLD, obs=obs)
        elws_after = circuit_elws(retimed, PHI, SETUP, HOLD)
        moved = {graph.names[v]: int(result.r[v])
                 for v in np.nonzero(result.r)[0]}
        print(f"{name:16s}: SER {ser.total:.4e}   "
              f"register obs "
              f"{register_observability(graph, result.r, obs):.2f}   "
              f"|ELW(A)| {elws_after['A'].measure:.1f}   "
              f"moves {moved or 'none'}")

    print("\nThe MinObs move halves register observability but grows the")
    print("ELW of A, B and every chain gate by 1 -- total SER increases.")
    print("MinObsWin's P2' constraint rejects the move and keeps the")
    print("original (optimal) register placement.")


if __name__ == "__main__":
    main()
