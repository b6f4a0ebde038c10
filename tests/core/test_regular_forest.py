"""Tests for the (weighted) regular forest, including the Fig. 3 scenario."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import Problem, gains as vertex_gains
from repro.core.initialization import initialize
from repro.core.minobs import minobs_retiming
from repro.core.minobswin import minobswin_retiming
from repro.core.regular_forest import RegularForest
from repro.corpus.families import corpus_circuit, tier_specs
from repro.errors import RetimingError
from repro.graph.retiming_graph import RetimingGraph
from repro.sim.odc import observability


def forest(gains, pinned=0):
    return RegularForest(np.asarray(gains, dtype=np.int64), pinned=pinned)


def reference_delta(f):
    """The full per-tree DP over the whole forest, from scratch.

    The oracle of the incremental :meth:`RegularForest.positive_delta`:
    every tree is evaluated bottom-up and backtracked (ties go out) on
    every call, reading only the forest's public structure.
    """
    n = f.n_vertices
    b = f.b.tolist()
    weight = f.weight
    children = f.children
    drags_parent = f.drags_parent
    delta = [0] * n
    f_in = [0] * n
    f_out = [0] * n
    NEG = -(1 << 62)
    for start in range(n):
        if f.parent[start] >= 0:
            continue
        order = [start]
        for v in order:
            order.extend(children[v])
        for v in reversed(order):
            acc_in = NEG if v == f.pinned else b[v] * weight[v]
            acc_out = 0
            for c in children[v]:
                best = max(f_in[c], f_out[c])
                if drags_parent[c]:
                    acc_in += best
                    acc_out += f_out[c]
                else:
                    acc_in += f_in[c]
                    acc_out += best
            f_in[v] = max(acc_in, NEG)
            f_out[v] = acc_out
        if f_in[start] <= 0 and f_out[start] <= 0:
            continue
        choose = [(start, f_in[start] > f_out[start])]
        while choose:
            v, inside = choose.pop()
            if inside:
                delta[v] = weight[v]
            for c in children[v]:
                if drags_parent[c]:
                    child_in = inside and f_in[c] > f_out[c]
                else:
                    child_in = inside or f_in[c] > f_out[c]
                choose.append((c, child_in))
    return np.array(delta, dtype=np.int64)


def minimal_best_closed_set(candidates, constraints, gain):
    """Brute force: the unique minimal maximum-gain closed subset.

    ``candidates`` are the movable vertices; a constraint (p, q) whose q
    is not a candidate (the host) forbids p.  Maximum-gain closed sets
    are closed under intersection, so their intersection is one of them.
    """
    best, optima = 0, []
    for k in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, k):
            s = set(subset)
            if any(p in s and q not in s for p, q in constraints):
                continue
            g = gain(s)
            if g > best:
                best, optima = g, [s]
            elif g == best:
                optima.append(s)
    minimal = set.intersection(*optima)
    assert gain(minimal) == best
    return minimal


class TestStructure:
    def test_initial_singletons(self):
        f = forest([0, 5, -3])
        assert all(f.is_singleton(v) for v in range(3))
        assert f.n_constraints == 0

    def test_link_and_members(self):
        f = forest([0, 5, -3, 2])
        f.link(1, 2)
        f.link(1, 3)
        assert set(f.tree_members(2)) == {1, 2, 3}
        assert f.root(2) == 1
        assert f.constraints() == [(1, 2), (1, 3)]

    def test_link_same_tree_rejected(self):
        f = forest([0, 1, 1])
        f.link(1, 2)
        with pytest.raises(RetimingError):
            f.link(2, 1)

    def test_self_link_rejected(self):
        f = forest([0, 1])
        with pytest.raises(RetimingError):
            f.link(1, 1)

    def test_reroot_preserves_constraints(self):
        f = forest([0, 1, 1, 1])
        f.link(1, 2)
        f.link(2, 3)
        before = set(f.constraints())
        f._reroot(3)
        assert set(f.constraints()) == before
        assert f.root(1) == 3

    def test_break_tree(self):
        f = forest([0, 1, 1, 1])
        f.link(1, 2)
        f.link(2, 3)
        f.break_tree(2)
        assert f.is_singleton(2)
        # 1 and 3 are cut loose (their constraint to 2 dropped).
        assert f.root(1) != f.root(2)

    def test_set_weight_requires_singleton(self):
        f = forest([0, 1, 1])
        f.link(1, 2)
        with pytest.raises(RetimingError):
            f.set_weight(2, 3)
        f.break_tree(2)
        f.set_weight(2, 3)
        assert f.weight[2] == 3

    def test_set_weight_on_host_rejected(self):
        f = forest([0, 1])
        with pytest.raises(RetimingError):
            f.set_weight(0, 2)

    def test_implies_directions(self):
        f = forest([0, 1, 1, 1])
        f.add_constraint(1, 2, 1)   # 1 drags 2
        f.add_constraint(2, 3, 1)   # 2 drags 3
        assert f.implies(1, 3)
        assert not f.implies(3, 1)
        assert f.implies(2, 3)
        assert not f.implies(3, 2)

    def test_tree_gain_weighted(self):
        f = forest([0, 5, -2])
        f.add_constraint(1, 2, 3)   # weight(2) = 3
        # b(T) = sum b(v) w(v) over the tree holding 1 and 2.
        assert sum(int(f.b[m]) * f.weight[m]
                   for m in f.tree_members(1)) == 5 * 1 + (-2) * 3


class TestPositiveDelta:
    def test_positive_singleton_selected(self):
        f = forest([0, 7, -1])
        delta = f.positive_delta()
        assert delta[1] == 1 and delta[2] == 0

    def test_dragged_negative_included(self):
        f = forest([0, 7, -3])
        f.add_constraint(1, 2, 1)
        delta = f.positive_delta()
        assert delta[1] == 1 and delta[2] == 1

    def test_too_expensive_drag_excluded(self):
        f = forest([0, 7, -10])
        f.add_constraint(1, 2, 1)
        delta = f.positive_delta()
        assert not delta.any()

    def test_subset_selection_isolates_expensive_chain(self):
        # Two positive roots share a tree; only one needs the costly drag.
        f = forest([0, 7, -10, 6])
        f.add_constraint(1, 2, 1)   # 1 needs 2 (net -3)
        f.add_constraint(3, 1, 1)   # wait -- 3 drags 1 (1 is cheap)
        delta = f.positive_delta()
        # Selecting 3 forces 1 forces 2: 7 - 10 + 6 = 3 > 0 -> all in.
        assert delta[1] == delta[2] == delta[3] == 1

    def test_reverse_drag_subset(self):
        f = forest([0, 7, -10, 6])
        f.add_constraint(1, 2, 1)
        f.add_constraint(2, 3, 1)  # the costly 2 drags 3
        delta = f.positive_delta()
        # 3 alone is closed (nothing it drags): gain 6.
        # 1 would force 2 which forces 3: 7-10+6=3 < 6.
        assert delta[3] == 1
        assert delta[1] == 0 and delta[2] == 0

    def test_host_pinning(self):
        f = forest([0, 7])
        f.pin_tree(1)
        assert not f.positive_delta().any()

    def test_pin_is_directional(self):
        # Pinning v must not freeze unrelated positives in the host tree.
        f = forest([0, 7, 5])
        f.pin_tree(1)
        delta = f.positive_delta()
        assert delta[1] == 0 and delta[2] == 1

    def test_weights_scale_moves(self):
        f = forest([0, 7, -3])
        f.add_constraint(1, 2, 4)
        delta = f.positive_delta()
        # gain = 7 - 12 < 0 -> nothing
        assert not delta.any()
        f2 = forest([0, 13, -3])
        f2.add_constraint(1, 2, 4)
        d2 = f2.positive_delta()
        assert d2[1] == 1 and d2[2] == 4


class TestFig3Scenario:
    def test_positive_positive_link_with_breaktree(self):
        """Fig. 3: u and x positive; x dragged y (weight 1); then u needs
        y with weight 2 -- BreakTree(y), weight update, relink."""
        b = [0, 6, 5, -2]   # u=1, x=2, y=3
        f = forest(b)
        assert f.add_constraint(2, 3, 1)       # x drags y
        assert f.positive_delta()[3] == 1
        # Now u requires y to move by 2: weight update forces BreakTree.
        assert f.add_constraint(1, 3, 2)
        assert f.weight[3] == 2
        # The old (x, y) constraint was dropped by BreakTree...
        assert (2, 3) not in f.constraints()
        assert (1, 3) in f.constraints()
        delta = f.positive_delta()
        # u(6) drags y by 2 (cost -4): net positive -> selected.
        assert delta[1] == 1 and delta[3] == 2
        # x stays selectable independently.
        assert delta[2] == 1

    def test_add_constraint_idempotent(self):
        f = forest([0, 5, -1])
        assert f.add_constraint(1, 2, 1)
        assert not f.add_constraint(1, 2, 1)   # already implied

    def test_reset(self):
        f = forest([0, 5, -1])
        f.add_constraint(1, 2, 3)
        f.pin_tree(1)
        f.reset()
        assert f.n_constraints == 0
        assert all(f.is_singleton(v) for v in range(3))
        assert f.weight == [0, 1, 1]


class TestRandomizedInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_selection_closed_and_positive(self, data):
        """The selected set is always closed under stored constraints and
        its gain is positive; and it is the brute force's minimal
        optimum."""
        n = data.draw(st.integers(3, 7))
        gains = [0] + [data.draw(st.integers(-8, 8)) for _ in range(n - 1)]
        f = forest(gains)
        for _ in range(data.draw(st.integers(0, 8))):
            p = data.draw(st.integers(1, n - 1))
            q = data.draw(st.integers(1, n - 1))
            if p == q:
                continue
            w = data.draw(st.integers(1, 3))
            f.add_constraint(p, q, w)
        delta = f.positive_delta()
        chosen = {v for v in range(n) if delta[v] > 0}
        constraints = f.constraints()
        for p, q in constraints:
            if p in chosen:
                assert q in chosen or q == 0
        if chosen:
            gain = sum(gains[v] * f.weight[v] for v in chosen)
            assert gain > 0
        # The selection is exactly the brute-force minimal best closed
        # subset: the tie-break (ties go out) is pinned, not just the gain.
        assert chosen == minimal_best_closed_set(
            range(1, n), constraints,
            lambda s: sum(gains[v] * f.weight[v] for v in s))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_large_sparse_forest_against_per_tree_brute_force(self, data):
        """30-60 vertices, mostly singletons, move weights up to 4 and the
        pinned host inside a non-singleton tree: the selection is closed,
        every selected tree gains, and each tree's selection is its
        brute-force minimal optimum (trees are independent, so each is
        enumerated alone)."""
        n = data.draw(st.integers(30, 60))
        gains = [0] + [data.draw(st.integers(-8, 8)) for _ in range(n - 1)]
        f = forest(gains)
        perm = data.draw(st.permutations(range(1, n)))
        used = 0
        for k in range(data.draw(st.integers(1, 4))):
            size = data.draw(st.integers(2, 6))
            if k and used + size > (n - 1) // 2:
                break  # keep most vertices singletons
            cluster = perm[used:used + size]
            used += size
            for _ in range(data.draw(st.integers(1, 2 * size))):
                p = data.draw(st.sampled_from(cluster))
                q = data.draw(st.sampled_from(cluster))
                if p != q:
                    f.add_constraint(p, q, data.draw(st.integers(1, 4)))
            if k == 0:
                f.pin_tree(data.draw(st.sampled_from(cluster)))
        for v in perm[used:used + 5]:
            f.set_weight(v, data.draw(st.integers(2, 4)))
        assert not f.is_singleton(0)
        singletons = sum(f.is_singleton(v) for v in range(1, n))
        assert singletons >= n // 2

        delta = f.positive_delta()
        chosen = {v for v in range(n) if delta[v] > 0}
        assert 0 not in chosen
        assert all(delta[v] == f.weight[v] for v in chosen)
        constraints = f.constraints()
        for p, q in constraints:
            if p in chosen:
                assert q in chosen and q != 0

        def gain(vertices):
            return sum(gains[v] * f.weight[v] for v in vertices)

        best_total = 0
        roots = {f.root(v) for v in range(n)}
        for root in roots:
            members = f.tree_members(root)
            picked = chosen.intersection(members)
            if picked:
                assert gain(picked) > 0
            movable = [v for v in members if v != 0]
            inner = [(p, q) for p, q in constraints
                     if p in members or q in members]
            minimal = minimal_best_closed_set(movable, inner, gain)
            assert picked == minimal
            best_total += gain(minimal)
        assert gain(chosen) == best_total

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rerooting_leaves_the_selection_unchanged(self, data):
        """The selection depends on each tree's constraints, not on which
        vertex roots it: re-rooting at any vertex keeps positive_delta."""
        n = data.draw(st.integers(3, 12))
        f = forest([0] + [data.draw(st.integers(-8, 8))
                          for _ in range(n - 1)])
        for _ in range(data.draw(st.integers(0, 3 * n))):
            p = data.draw(st.integers(1, n - 1))
            q = data.draw(st.integers(1, n - 1))
            if data.draw(st.integers(0, 4)) == 0:
                f.pin_tree(p)
            elif p != q:
                f.add_constraint(p, q, data.draw(st.integers(1, 3)))
        expected = f.positive_delta()
        for v in data.draw(st.permutations(range(n))):
            f._reroot(v)
            assert f.root(v) == v
            assert (f.positive_delta() == expected).all()
            assert (reference_delta(f) == expected).all()


OPS = ("add", "pin", "break", "weight", "reroot", "reset")


class PairModel:
    """Naive reference for the forest's structure: the set of stored
    constraints as directed pairs, and the move weights.

    It decides every operation from the pairs alone: trees are the
    connected components, a constraint is implied when a directed path
    leads from p to q, and BreakTree drops exactly the pairs incident to
    the vertex.
    """

    def __init__(self, n, pinned):
        self.n = n
        self.pinned = pinned
        self.reset()

    def reset(self):
        self.pairs = set()
        self.weight = [1] * self.n
        self.weight[self.pinned] = 0

    def partition(self):
        component = list(range(self.n))

        def find(v):
            while component[v] != v:
                v = component[v]
            return v

        for p, q in self.pairs:
            component[find(p)] = find(q)
        groups = {}
        for v in range(self.n):
            groups.setdefault(find(v), set()).add(v)
        return {frozenset(group) for group in groups.values()}

    def _same_tree(self, p, q):
        return any(p in group and q in group for group in self.partition())

    def _reaches(self, p, q):
        seen, stack = {p}, [p]
        while stack:
            v = stack.pop()
            for a, b in self.pairs:
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return q in seen

    def break_tree(self, q):
        self.pairs = {(a, b) for a, b in self.pairs if q not in (a, b)}

    def _record(self, p, q, cut):
        """Store (p, q) unless implied; in one tree, first cut ``cut``
        loose (q for a constraint, p for a pin: the host stays)."""
        if self._same_tree(p, q):
            if self._reaches(p, q):
                return False
            self.break_tree(cut)
        self.pairs.add((p, q))
        return True

    def add_constraint(self, p, q, w):
        if p == q:
            return False
        if self.weight[q] != w:
            self.break_tree(q)
            self.weight[q] = w
            self.pairs.add((p, q))
            return True
        return self._record(p, q, q)

    def pin_tree(self, v):
        if v != self.pinned:
            self._record(v, self.pinned, v)


class TestIncrementalOracle:
    """The incremental DP against the full reference DP, and the
    forest's structure against a naive model."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_operation_sequences(self, data):
        """After any sequence of forest operations -- checked after each
        one, or after a batch of them -- positive_delta equals the full
        DP over the forest as it stands.  After every operation the
        stored constraints, the trees and the constraint count match
        the pair model."""
        n = data.draw(st.integers(2, 14))
        pinned = data.draw(st.integers(0, n - 1))
        f = forest([data.draw(st.integers(-8, 8)) for _ in range(n)],
                   pinned=pinned)
        model = PairModel(n, pinned)
        vertex = st.integers(0, n - 1)
        for _ in range(data.draw(st.integers(1, 50))):
            op = data.draw(st.sampled_from(OPS))
            v = data.draw(vertex)
            if op == "add":
                q = data.draw(vertex)
                if q != pinned:
                    w = data.draw(st.integers(1, 4))
                    assert f.add_constraint(v, q, w) == \
                        model.add_constraint(v, q, w)
            elif op == "pin":
                f.pin_tree(v)
                model.pin_tree(v)
            elif op == "break":
                f.break_tree(v)
                model.break_tree(v)
            elif op == "weight":
                if v != pinned and f.is_singleton(v):
                    w = data.draw(st.integers(1, 4))
                    f.set_weight(v, w)
                    model.weight[v] = w
            elif op == "reroot":
                f._reroot(v)
            else:
                f.reset()
                model.reset()
            constraints = f.constraints()
            assert set(constraints) == model.pairs
            assert f.n_constraints == len(constraints)
            trees = {}
            for u in range(n):
                trees.setdefault(f.root(u), set()).add(u)
            assert {frozenset(t) for t in trees.values()} == \
                model.partition()
            assert f.weight == model.weight
            if data.draw(st.booleans()):
                assert (f.positive_delta() == reference_delta(f)).all()
        assert (f.positive_delta() == reference_delta(f)).all()
        assert f.evaluations >= n

    def test_reweighted_singleton_is_re_evaluated(self):
        # 2's cached state is fresh when its weight changes; linking it
        # as a child with the same weight must not reuse the old state.
        f = forest([0, 5, -2])
        f.positive_delta()
        f.set_weight(2, 3)
        f.positive_delta()
        f.add_constraint(1, 2, 3)   # 5 - 2 * 3 < 0
        assert not f.positive_delta().any()
        assert not reference_delta(f).any()

    @pytest.mark.parametrize("solver", [minobs_retiming, minobswin_retiming])
    @pytest.mark.parametrize("name",
                             [spec.name for spec in tier_specs("small")])
    def test_every_solver_iteration(self, monkeypatch, name, solver):
        """Seeded small-tier solves: at every iteration, the selection
        the solver receives equals the full DP's."""
        circuit = corpus_circuit("small", name)
        graph = RetimingGraph.from_circuit(circuit)
        obs = observability(circuit, n_frames=4, n_patterns=64,
                            seed=0).obs
        counts = {net: int(round(value * 64)) for net, value in obs.items()}
        init = initialize(graph, 0.0, circuit.library.hold_time)
        problem = Problem(graph=graph, phi=init.phi, setup=0.0,
                          hold=circuit.library.hold_time, rmin=init.rmin,
                          b=vertex_gains(graph, counts))
        incremental = RegularForest.positive_delta
        calls = []

        def checked(self):
            delta = incremental(self)
            assert (delta == reference_delta(self)).all()
            calls.append(1)
            return delta

        monkeypatch.setattr(RegularForest, "positive_delta", checked)
        result = solver(problem, init.r0)
        assert len(calls) >= result.iterations > 0
