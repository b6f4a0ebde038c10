"""Min-period retiming (Leiserson-Saxe FEAS + binary search).

The initialization of Sec. V needs "the minimal clock period Phi_min"
retiming [24] as a fallback.  We implement the classical FEAS feasibility
test -- O(|V| |E|) per period probe, no W/D matrices -- and binary-search
the period.  Delays are reals, so the search runs to a tolerance and the
returned period is the *achieved* period of the found retiming (tests
compare it against the exact W/D-based optimum on small circuits).
"""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleError, RetimingError
from ..graph.retiming_graph import RetimingGraph
from ..graph.timing import arrival_times


def feasible_retiming(graph: RetimingGraph, phi: float, setup: float = 0.0,
                      r_init: np.ndarray | None = None,
                      ) -> np.ndarray | None:
    """FEAS: find a retiming meeting period ``phi``, or None.

    Classical relaxation: repeat up to ``|V|`` times -- compute arrival
    times of the current retimed graph and increment ``r(v)`` for every
    vertex whose arrival exceeds ``phi - setup``.  Legality (P0) is
    asserted each round; FEAS preserves it for well-formed graphs.
    A round at the zero retiming (round 0 unless ``r_init`` is given)
    reads the graph's cached :meth:`~RetimingGraph.zero_arrivals`, so a
    period search pays for that pass once.
    """
    graph.feas_probes += 1
    n = graph.n_vertices
    r = np.zeros(n, dtype=np.int64) if r_init is None \
        else np.asarray(r_init, dtype=np.int64).copy()
    target = phi - setup + 1e-9
    for _ in range(n + 1):
        try:
            delta = _arrivals(graph, r)
        except RetimingError:
            return None
        late = delta > target
        late[0] = False
        if not late.any():
            graph.validate_retiming(r)
            return r
        r[late] += 1
        if not graph.is_valid_retiming(r):
            return None
    return None


def min_period_retiming(graph: RetimingGraph, setup: float = 0.0,
                        tol: float = 1e-6,
                        ) -> tuple[float, np.ndarray]:
    """Binary-search the minimum feasible clock period.

    Returns ``(phi_min, r)`` where ``phi_min`` is the achieved period of
    the returned retiming (``max arrival + setup``).  Raises
    :class:`InfeasibleError` when even the loosest period fails (e.g. a
    register-free cycle).
    """
    if graph.n_vertices <= 1:
        return setup, graph.zero_retiming()
    delays = np.asarray(graph.delays)
    low = float(delays.max()) + setup  # one gate must fit in a cycle
    high = float(delays.sum()) + setup
    r_best = feasible_retiming(graph, high, setup)
    if r_best is None:
        raise InfeasibleError(
            "no feasible retiming even at the loosest period; the circuit "
            "likely has a register-free cycle")
    best = _achieved(graph, r_best, setup)
    if best < low:
        low = best
    # Invariant: `high` feasible with r_best, `low - tol` treated infeasible.
    high = best
    while high - low > tol:
        mid = (low + high) / 2.0
        candidate = feasible_retiming(graph, mid, setup)
        if candidate is None:
            low = mid
        else:
            achieved = _achieved(graph, candidate, setup)
            r_best = candidate
            high = min(achieved, mid)
    return _achieved(graph, r_best, setup), r_best


def _arrivals(graph: RetimingGraph, r: np.ndarray) -> np.ndarray:
    return arrival_times(graph, r) if r.any() else graph.zero_arrivals()


def _achieved(graph: RetimingGraph, r: np.ndarray, setup: float) -> float:
    delta = _arrivals(graph, r)
    return float(delta.max()) + setup if len(delta) else setup
