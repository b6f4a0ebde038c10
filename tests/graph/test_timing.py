"""Unit tests for static timing on the retiming graph."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import Problem, Violation, find_violations
from repro.errors import InfeasibleError, RetimingError
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import (
    BoundaryLabels,
    TimingAnalysis,
    achieved_period,
    arrival_times,
    boundary_labels,
    shortest_path_through,
)
from tests.conftest import tiny_random


def chain_graph(delays, weights):
    """host -> g0 -> g1 -> ... -> host with given delays/edge weights."""
    g = RetimingGraph()
    names = [f"g{i}" for i in range(len(delays))]
    for name, d in zip(names, delays):
        g.add_vertex(name, d)
    g.add_edge("__host__", names[0], weights[0], src_net="pi")
    for i in range(len(names) - 1):
        g.add_edge(names[i], names[i + 1], weights[i + 1])
    g.add_edge(names[-1], "__host__", weights[-1], tag=("po", 0))
    return g


class TestArrivalTimes:
    def test_chain_no_registers(self):
        g = chain_graph([1, 2, 3], [0, 0, 0, 0])
        delta = arrival_times(g, g.zero_retiming())
        assert list(delta) == [0, 1, 3, 6]

    def test_register_resets_arrival(self):
        g = chain_graph([1, 2, 3], [0, 0, 1, 0])
        delta = arrival_times(g, g.zero_retiming())
        assert list(delta) == [0, 1, 3, 3]

    def test_achieved_period(self):
        g = chain_graph([1, 2, 3], [0, 0, 1, 0])
        assert achieved_period(g, g.zero_retiming()) == 3.0
        assert achieved_period(g, g.zero_retiming(), setup=0.5) == 3.5

    def test_retiming_changes_arrival(self):
        g = chain_graph([1, 2, 3], [0, 0, 1, 0])
        r = g.zero_retiming()
        # move the register backward over g1 (r(g1) += 1)
        r[g.index["g1"]] = 1
        delta = arrival_times(g, r)
        assert list(delta) == [0, 1, 2, 5]


class TestBoundaryLabels:
    def test_direct_latch(self):
        g = chain_graph([1.0, 2.0], [0, 1, 0])
        lab = boundary_labels(g, g.zero_retiming(), phi=10, setup=1,
                              hold=2)
        i0, i1 = g.index["g0"], g.index["g1"]
        # g0 feeds a registered edge: its window is the latching window.
        assert lab.L[i0] == 9.0 and lab.R[i0] == 12.0
        assert lab.lt[i0] == i0 and lab.rt[i0] == i0
        # g1 feeds the host (PO): also a latch point.
        assert lab.L[i1] == 9.0 and lab.R[i1] == 12.0

    def test_propagation_through_fanout(self):
        g = chain_graph([1.0, 2.0, 3.0], [0, 0, 0, 0])
        lab = boundary_labels(g, g.zero_retiming(), phi=10, hold=2)
        i0, i1, i2 = (g.index[f"g{i}"] for i in range(3))
        assert lab.L[i2] == 10.0
        assert lab.L[i1] == pytest.approx(10.0 - 3.0)
        assert lab.L[i0] == pytest.approx(10.0 - 3.0 - 2.0)
        assert lab.R[i0] == pytest.approx(12.0 - 5.0)
        assert lab.lt[i0] == i2
        assert lab.shortest_path_vertices(i0) == [i0, i1, i2]
        assert lab.longest_path_vertices(i0) == [i0, i1, i2]

    def test_unobservable_vertex(self):
        g = RetimingGraph()
        g.add_vertex("dead", 1.0)
        lab = boundary_labels(g, g.zero_retiming(), phi=10)
        assert math.isinf(lab.L[1]) and lab.L[1] > 0
        assert lab.lt[1] == -1
        assert not lab.observable()[1]

    def test_min_branch_wins_for_L_max_for_R(self):
        # g0 fans out to a fast path (g1, PO) and a slow path (g2, PO).
        g = RetimingGraph()
        g.add_vertex("g0", 1.0)
        g.add_vertex("g1", 1.0)
        g.add_vertex("g2", 5.0)
        g.add_edge("__host__", "g0", 0, src_net="pi")
        g.add_edge("g0", "g1", 0)
        g.add_edge("g0", "g2", 0)
        g.add_edge("g1", "__host__", 0, tag=("po", 0))
        g.add_edge("g2", "__host__", 0, tag=("po", 1))
        lab = boundary_labels(g, g.zero_retiming(), phi=10, hold=2)
        i0 = g.index["g0"]
        assert lab.L[i0] == pytest.approx(10.0 - 5.0)   # through g2
        assert lab.R[i0] == pytest.approx(12.0 - 1.0)   # through g1
        assert lab.lt[i0] == g.index["g2"]
        assert lab.rt[i0] == g.index["g1"]

    def test_hold_at_outputs_flag(self):
        g = chain_graph([1.0], [0, 0])
        lab_on = boundary_labels(g, g.zero_retiming(), phi=10, hold=2,
                                 hold_at_outputs=True)
        lab_off = boundary_labels(g, g.zero_retiming(), phi=10, hold=2,
                                  hold_at_outputs=False)
        i0 = g.index["g0"]
        assert lab_on.R[i0] == 12.0
        assert math.isinf(lab_off.R[i0]) and lab_off.R[i0] < 0
        # L (setup side) unaffected.
        assert lab_on.L[i0] == lab_off.L[i0] == 10.0

    def test_shortest_path_through(self):
        g = chain_graph([1.0, 2.0, 4.0], [0, 1, 0, 0])
        lab = boundary_labels(g, g.zero_retiming(), phi=10, hold=2)
        # register feeds g1; path g1 -> g2 -> PO has length d(g1)+d(g2)
        assert shortest_path_through(g, lab, g.index["g1"]) == \
            pytest.approx(6.0)


class TestConsistency:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_setup_check_equals_p1_labels(self, seed):
        """max arrival <= phi - Ts iff L(v) >= d(v) for all observable v."""
        c = tiny_random(seed, n_gates=12, n_dffs=5)
        from repro.graph.retiming_graph import RetimingGraph

        g = RetimingGraph.from_circuit(c)
        r = g.zero_retiming()
        delta = arrival_times(g, r)
        for phi in (float(delta.max()) - 1.0, float(delta.max()),
                    float(delta.max()) + 1.0):
            analysis = TimingAnalysis(g, r, phi)
            lab = analysis.labels
            p1_ok = all(
                lab.L[v] >= g.delays[v] - 1e-9
                for v in range(1, g.n_vertices)
                if math.isfinite(lab.L[v]))
            # P1 over observable vertices is implied by the arrival check;
            # unobservable logic is exempt from P1 but not from arrival.
            if analysis.setup_ok():
                assert p1_ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_elw_bound_contains_exact_elw(self, seed):
        """Theorem 1: L/R are the outer boundaries of the exact ELW."""
        from repro.core.elw import graph_elws
        from repro.graph.retiming_graph import RetimingGraph

        c = tiny_random(seed, n_gates=12, n_dffs=5)
        g = RetimingGraph.from_circuit(c)
        r = g.zero_retiming()
        phi = achieved_period(g, r) + 3.0
        lab = boundary_labels(g, r, phi, setup=0.0, hold=2.0)
        elws = graph_elws(g, r, phi, setup=0.0, hold=2.0)
        for v in range(1, g.n_vertices):
            if elws[v].is_empty:
                assert not math.isfinite(lab.L[v])
                continue
            assert lab.L[v] == pytest.approx(elws[v].left)
            assert lab.R[v] == pytest.approx(elws[v].right)
            assert lab.R[v] - lab.L[v] >= elws[v].measure - 1e-9


# ----------------------------------------------------------------------
# Reference oracle: the per-edge object-walking loops the list-native
# timing pass replaced, kept verbatim as the specification.
# ----------------------------------------------------------------------

def reference_zero_weight_topo(graph, r):
    weights = graph.retimed_weights(r)
    u, v, _ = graph.edge_arrays()
    n = graph.n_vertices
    mask = (weights == 0) & (u != 0) & (v != 0)
    indegree = np.bincount(v[mask], minlength=n)
    succ = [[] for _ in range(n)]
    for uu, vv in zip(u[mask].tolist(), v[mask].tolist()):
        succ[uu].append(vv)
    stack = [x for x in range(1, n) if indegree[x] == 0]
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
        for s in succ[node]:
            indegree[s] -= 1
            if indegree[s] == 0:
                stack.append(s)
    if len(order) != n - 1:
        raise RetimingError("retiming leaves a register-free cycle")
    return order


def reference_arrival_times(graph, r):
    weights = graph.retimed_weights(r)
    delta = np.zeros(graph.n_vertices, dtype=float)
    for v in reference_zero_weight_topo(graph, r):
        best = 0.0
        for eidx in graph.in_edges[v]:
            e = graph.edges[eidx]
            if weights[eidx] == 0 and e.u != 0:
                if delta[e.u] > best:
                    best = delta[e.u]
        delta[v] = graph.delays[v] + best
    return delta


def reference_boundary_labels(graph, r, phi, setup, hold, hold_at_outputs):
    weights = graph.retimed_weights(r)
    order = reference_zero_weight_topo(graph, r)
    n = graph.n_vertices
    L = np.full(n, math.inf)
    R = np.full(n, -math.inf)
    lt = np.full(n, -1, dtype=np.int64)
    rt = np.full(n, -1, dtype=np.int64)
    lsucc = np.full(n, -1, dtype=np.int64)
    rsucc = np.full(n, -1, dtype=np.int64)
    window_left = phi - setup
    window_right = phi + hold
    for u in reversed(order):
        for eidx in graph.out_edges[u]:
            e = graph.edges[eidx]
            if e.v == 0 or weights[eidx] > 0:
                if window_left < L[u]:
                    L[u] = window_left
                    lt[u] = u
                    lsucc[u] = -1
                if weights[eidx] > 0 or hold_at_outputs:
                    if window_right > R[u]:
                        R[u] = window_right
                        rt[u] = u
                        rsucc[u] = -1
            else:
                v = e.v
                if not math.isfinite(L[v]):
                    continue
                left = L[v] - graph.delays[v]
                right = R[v] - graph.delays[v]
                if left < L[u]:
                    L[u] = left
                    lt[u] = lt[v]
                    lsucc[u] = v
                if right > R[u]:
                    R[u] = right
                    rt[u] = rt[v]
                    rsucc[u] = v
    return BoundaryLabels(L=L, R=R, lt=lt, rt=rt, lsucc=lsucc, rsucc=rsucc,
                          phi=phi, setup=setup, hold=hold)


def _first_mover(delta, candidates):
    if delta is None:
        return -1
    for v in candidates:
        if v >= 0 and delta[v] > 0:
            return int(v)
    return -1


def reference_find_violations(problem, r, delta=None, skip_p2=False,
                              limit=None):
    graph = problem.graph
    weights = graph.retimed_weights(r)
    negative = np.nonzero(weights < 0)[0]
    if negative.size:
        out = []
        for eidx in negative[:limit]:
            e = graph.edges[int(eidx)]
            deficit = int(-weights[eidx])
            out.append(Violation(
                kind="P0", p=e.v, q=e.u, deficit=deficit, edge=int(eidx),
                note=(f"edge {graph.names[e.u]} -> {graph.names[e.v]} "
                      f"has {int(weights[eidx])} registers; "
                      f"{graph.names[e.u]} must move {deficit} more")))
        return out
    labels = reference_boundary_labels(graph, r, problem.phi, problem.setup,
                                       problem.hold, problem.hold_at_outputs)
    if not skip_p2:
        found = _reference_p2(problem, weights, labels, delta, limit)
        if found:
            return found
    violation = _reference_p1(problem, labels, delta)
    return [violation] if violation is not None else []


def _reference_p2(problem, weights, labels, delta, limit):
    graph = problem.graph
    _, v_arr, _ = graph.edge_arrays()
    delays = np.asarray(graph.delays)
    registered = np.nonzero((weights > 0) & (v_arr != 0))[0]
    if not registered.size:
        return []
    fanouts = v_arr[registered]
    sp = delays[fanouts] + (problem.phi + problem.hold
                            - labels.R[fanouts])
    finite = np.isfinite(labels.R[fanouts])
    bad = registered[finite & (sp < problem.rmin - problem.eps)]
    out = []
    seen_targets = set()
    for eidx in bad:
        e = graph.edges[int(eidx)]
        v = e.v
        sp_v = float(delays[v] + (problem.phi + problem.hold
                                  - labels.R[v]))
        path = labels.shortest_path_vertices(v)
        z = path[-1]
        y_edge = None
        for out_idx in graph.out_edges[z]:
            if weights[out_idx] > 0:
                y_edge = out_idx
                break
        mover = _first_mover(delta, [e.u, z, *path])
        if y_edge is None or graph.edges[y_edge].v == 0:
            key = (mover, 0)
            if key in seen_targets:
                continue
            seen_targets.add(key)
            out.append(Violation(
                kind="P2", p=mover, q=0, deficit=0, edge=int(eidx),
                vertex=v,
                note=(f"short path {sp_v:.3f} < R_min "
                      f"{problem.rmin:.3f} from {graph.names[v]} ends "
                      f"at a primary output")))
        else:
            y = graph.edges[y_edge].v
            deficit = int(weights[y_edge])
            key = (mover, y)
            if key in seen_targets:
                continue
            seen_targets.add(key)
            out.append(Violation(
                kind="P2", p=mover, q=y, deficit=deficit, edge=int(eidx),
                vertex=v,
                note=(f"short path {sp_v:.3f} < R_min "
                      f"{problem.rmin:.3f} from {graph.names[v]}; clear "
                      f"{deficit} registers off {graph.names[z]} -> "
                      f"{graph.names[y]}")))
        if limit is not None and len(out) >= limit:
            break
    return out


def _reference_p1(problem, labels, delta):
    graph = problem.graph
    delays = np.asarray(graph.delays)
    slack = np.where(np.isfinite(labels.L), labels.L - delays, 0.0)
    slack[0] = 0.0
    worst = int(np.argmin(slack))
    worst_slack = float(slack[worst])
    if worst_slack >= -problem.eps:
        return None
    path = labels.longest_path_vertices(worst)
    z = path[-1]
    if z == worst and len(path) == 1:
        raise InfeasibleError("gate alone exceeds the clock period")
    mover = _first_mover(delta, [z, *reversed(path[1:])])
    return Violation(
        kind="P1", p=mover, q=worst, deficit=1, vertex=worst,
        note=(f"longest path from {graph.names[worst]} to "
              f"{graph.names[z]} violates setup by {-worst_slack:.3f}; "
              f"move a register out of {graph.names[worst]}"))


def random_valid_retiming(graph, rng, steps):
    """Random single-vertex moves, each kept only while P0 holds."""
    r = graph.zero_retiming()
    for _ in range(steps):
        x = int(rng.integers(1, graph.n_vertices))
        step = int(rng.choice((-1, 1)))
        r[x] += step
        if not graph.is_valid_retiming(r):
            r[x] -= step
    return r


@pytest.fixture(scope="module")
def small_tier_graphs():
    from repro.corpus.families import corpus_circuit, tier_specs

    specs = tier_specs("small")
    assert len(specs) == 12
    return {spec.name: RetimingGraph.from_circuit(
        corpus_circuit("small", spec.name)) for spec in specs}


def _diagnose(fn, problem, r, delta, limit):
    """``fn``'s violations, or the exception it raised."""
    try:
        return fn(problem, r, delta=delta, limit=limit)
    except InfeasibleError:
        return InfeasibleError


class TestListNativeTimingOracle:
    """The list-native timing pass is bit-identical to the reference
    loops on every small-tier corpus circuit under seeded random valid
    retimings."""

    @pytest.mark.parametrize("hold_at_outputs", [True, False])
    def test_labels_and_violations_match_reference(self, small_tier_graphs,
                                                   hold_at_outputs):
        rng = np.random.default_rng(12 + hold_at_outputs)
        compared = set()
        for name, graph in small_tier_graphs.items():
            for steps in (0, 3 * graph.n_vertices):
                r = random_valid_retiming(graph, rng, steps)
                order = graph.zero_weight_topo(r)
                assert order == reference_zero_weight_topo(graph, r), name
                delta_ref = reference_arrival_times(graph, r)
                arrival = arrival_times(graph, r)
                assert arrival.tobytes() == delta_ref.tobytes(), name
                period = float(arrival.max())
                for scale in (0.7, 1.0, 1.3):
                    phi = period * scale
                    got = boundary_labels(graph, r, phi, 0.0, 2.0,
                                          hold_at_outputs)
                    ref = reference_boundary_labels(graph, r, phi, 0.0, 2.0,
                                                    hold_at_outputs)
                    for field in ("L", "R", "lt", "rt", "lsucc", "rsucc"):
                        a, b = getattr(got, field), getattr(ref, field)
                        assert a.dtype == b.dtype, (name, field)
                        assert a.tobytes() == b.tobytes(), (name, field)
                    rmin = float(rng.uniform(0.0, 3.0 * 2.0))
                    problem = Problem(graph=graph, phi=phi, setup=0.0,
                                      hold=2.0, rmin=rmin,
                                      b=np.zeros(graph.n_vertices,
                                                 dtype=np.int64),
                                      hold_at_outputs=hold_at_outputs)
                    movers = rng.integers(0, 2, graph.n_vertices)
                    for delta in (None, movers):
                        for limit in (None, 1):
                            got_v = _diagnose(find_violations, problem, r,
                                              delta, limit)
                            ref_v = _diagnose(reference_find_violations,
                                              problem, r, delta, limit)
                            assert got_v == ref_v, (name, phi, limit)
                            if isinstance(got_v, list) and got_v:
                                compared.add(got_v[0].kind)
        # The sweep reached both label-driven diagnoses.
        assert {"P1", "P2"} <= compared

    def test_invalid_retiming_reports_p0_like_reference(self,
                                                        small_tier_graphs):
        graph = small_tier_graphs["rand_a"]
        r = graph.zero_retiming()
        r[1:] = np.random.default_rng(3).integers(-2, 3, graph.n_vertices - 1)
        problem = Problem(graph=graph, phi=10.0, setup=0.0, hold=2.0,
                          rmin=2.0, b=np.zeros(graph.n_vertices,
                                               dtype=np.int64))
        got = find_violations(problem, r)
        assert got and got[0].kind == "P0"
        assert got == reference_find_violations(problem, r)

    def test_register_free_cycle_raises(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge("__host__", "a", 0, src_net="pi")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        g.add_edge("b", "__host__", 0, tag=("po", 0))
        r = g.zero_retiming()
        assert not g.cycles_have_registers()
        for fn in (g.zero_weight_topo,
                   lambda r: arrival_times(g, r),
                   lambda r: boundary_labels(g, r, 10.0)):
            with pytest.raises(RetimingError):
                fn(r)
        with pytest.raises(RetimingError):
            reference_zero_weight_topo(g, r)
