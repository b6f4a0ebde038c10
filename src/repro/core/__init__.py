"""The paper's contribution: ELW analysis, Problem 1, and the solvers.

* :mod:`repro.core.intervals` -- interval-set algebra for error-latching
  windows.
* :mod:`repro.core.elw` -- exact ELW computation (eq. 3) and the L/R
  boundary view (eq. 6 / Theorem 1).
* :mod:`repro.core.constraints` -- the P0 / P1' / P2' constraint system of
  Problem 1 with violation diagnosis into active constraints (Fig. 2).
* :mod:`repro.core.regular_forest` -- the (weighted) regular forest
  maintaining active constraints with linear storage (Sec. IV-B/C).
* :mod:`repro.core.minobs` -- the Efficient MinObs baseline [17].
* :mod:`repro.core.minobswin` -- the MinObsWin algorithm (Algorithm 1).
* :mod:`repro.core.initialization` -- Phi / R_min selection (Sec. V).
* :mod:`repro.core.oracle` -- brute-force and LP optimality oracles.
"""

from .intervals import IntervalSet
from .elw import circuit_elws, graph_elws
from .constraints import Problem, Violation, check_constraints, gains
from .regular_forest import RegularForest
from .minobs import minobs_retiming
from .minobswin import RetimingResult, minobswin_retiming
from .initialization import InitialRetiming, initialize
from .oracle import brute_force_optimum, lp_minobs_optimum
from .objectives import (
    activity_weighted_gains,
    area_weighted_gains,
    toggle_activities,
)

__all__ = [
    "IntervalSet",
    "circuit_elws",
    "graph_elws",
    "Problem",
    "Violation",
    "check_constraints",
    "gains",
    "RegularForest",
    "minobs_retiming",
    "RetimingResult",
    "minobswin_retiming",
    "InitialRetiming",
    "initialize",
    "brute_force_optimum",
    "lp_minobs_optimum",
    "area_weighted_gains",
    "activity_weighted_gains",
    "toggle_activities",
]
