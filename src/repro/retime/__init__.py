"""Classical retiming algorithms and netlist-level application.

* :mod:`repro.retime.minperiod` -- Leiserson-Saxe FEAS-based min-period
  retiming (initialization substrate, Sec. V).
* :mod:`repro.retime.setup_hold` -- min-period retiming under setup *and*
  hold constraints (Lin-Zhou style, the paper's preferred Phi_sh start).
* :mod:`repro.retime.minarea` -- incremental min-area retiming (the
  iMinArea problem of [20], solved with the same regular-forest engine).
* :mod:`repro.retime.apply` -- rebuild a circuit from a retimed graph.
* :mod:`repro.retime.verify` -- validity, invariants and cycle-accurate
  equivalence checking.
"""

from .minperiod import feasible_retiming, min_period_retiming
from .setup_hold import min_period_setup_hold, repair_constraints
from .minarea import min_area_retiming
from .apply import apply_retiming
from .cslow import c_slow, check_cslow_equivalence
from .verify import (
    check_cycle_weights,
    check_sequential_equivalence,
    forward_initial_states,
)

__all__ = [
    "feasible_retiming",
    "min_period_retiming",
    "min_period_setup_hold",
    "repair_constraints",
    "min_area_retiming",
    "apply_retiming",
    "c_slow",
    "check_cslow_equivalence",
    "check_cycle_weights",
    "check_sequential_equivalence",
    "forward_initial_states",
]
