"""Soft-error-rate analysis (eq. 1 / eq. 4 of the paper).

* :mod:`repro.ser.rates` -- per-gate raw SER (err(g)).
* :mod:`repro.ser.analysis` -- the SER engine combining logic masking
  (observability), timing masking (ELW) and raw rates.
* :mod:`repro.ser.report` -- plain-text reporting and comparisons.
"""

from .rates import raw_rates
from .analysis import SerAnalysis, analyze_ser, extend_obs_to_registers
from .report import format_ser_report, format_comparison

__all__ = [
    "raw_rates",
    "SerAnalysis",
    "analyze_ser",
    "extend_obs_to_registers",
    "format_ser_report",
    "format_comparison",
]
