"""Tests for the (weighted) regular forest, including the Fig. 3 scenario."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.regular_forest import RegularForest
from repro.errors import RetimingError


def forest(gains, pinned=0):
    return RegularForest(np.asarray(gains, dtype=np.int64), pinned=pinned)


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
        assert f.tree_gain(1) == 5 * 1 + (-2) * 3


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
        its gain is positive; and it is optimal versus brute force."""
        import itertools

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
        # Brute-force the best closed subset.
        best = 0
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(1, n), k)
                for k in range(n)):
            s = set(subset)
            if any(p in s and q not in s for p, q in constraints if q != 0):
                continue
            if any(p in s for p, q in constraints if q == 0):
                continue
            best = max(best, sum(gains[v] * f.weight[v] for v in s))
        achieved = sum(gains[v] * f.weight[v] for v in chosen)
        assert achieved == best

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_large_sparse_forest_against_per_tree_brute_force(self, data):
        """30-60 vertices, mostly singletons, move weights up to 4 and the
        pinned host inside a non-singleton tree: the selection is closed,
        every selected tree gains, and the total gain is the brute-force
        maximum (trees are independent, so each is enumerated alone)."""
        import itertools

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
            best = 0
            for k in range(1, len(movable) + 1):
                for subset in itertools.combinations(movable, k):
                    s = set(subset)
                    if all(q in s for p, q in inner if p in s):
                        best = max(best, gain(s))
            assert gain(picked) == best
            best_total += best
        assert gain(chosen) == best_total
