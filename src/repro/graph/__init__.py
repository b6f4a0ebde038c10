"""Leiserson-Saxe retiming graph, static timing, and path matrices."""

from .retiming_graph import HOST, Edge, RetimingGraph
from .timing import (
    achieved_period,
    arrival_times,
    label_lists,
    min_register_path,
)
from .paths import exact_min_period, wd_matrices

__all__ = [
    "HOST",
    "Edge",
    "RetimingGraph",
    "achieved_period",
    "arrival_times",
    "label_lists",
    "min_register_path",
    "exact_min_period",
    "wd_matrices",
]
