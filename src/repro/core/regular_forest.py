"""The (weighted) regular forest of active constraints (Sec. IV-B/C).

The solvers maintain a set A of *active constraints* ``(p, q)`` -- "a
decrease of ``p`` requires a decrease of ``q``" -- discovered from
constraint violations.  Following Wang-Zhou [20], A is stored as a forest
(at most ``|V| - 1`` constraints, linear storage): tree edges are
constraints, each vertex carries its move amount ``w(v)`` (the *weighted*
extension of Sec. IV-C; ``w == 1`` everywhere reduces to the plain regular
forest of [20] used by the MinObs baseline).

The candidate move set of each iteration is the maximum-gain vertex set
closed under the stored constraints, computed exactly by a per-tree
dynamic program in :meth:`RegularForest.positive_delta` (this realizes
directly what the regularity conditions of [20] maintain incrementally
for whole-tree selection).  Constraints dragging the pinned host vertex
exclude their movers (the host cannot move).

Weight updates follow the paper's ``BreakTree`` discipline: a vertex's
weight may only change while it is a tree by itself, so the forest first
re-roots the vertex's tree at the vertex and severs its children
(Fig. 3's positive-tree-to-positive-tree link is the motivating case).
"""

from __future__ import annotations

import numpy as np

from ..errors import RetimingError


class RegularForest:
    """Forest of active constraints over the vertices of a retiming graph.

    Parameters
    ----------
    gains:
        Integer per-vertex gains ``b(v)``.
    pinned:
        Index of the immovable host vertex; any tree containing it is
        excluded from the positive set.
    """

    def __init__(self, gains: np.ndarray, pinned: int = 0):
        self.b = np.asarray(gains, dtype=np.int64)
        n = len(self.b)
        self.pinned = pinned
        self.parent: list[int] = [-1] * n
        self.children: list[set[int]] = [set() for _ in range(n)]
        # For a child c: True  -> constraint (c, parent): c drags parent
        #                False -> constraint (parent, c): parent drags c
        self.drags_parent: list[bool] = [False] * n
        self.weight: list[int] = [1] * n
        self.weight[pinned] = 0
        self.n_constraints = 0

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices managed by the forest."""
        return len(self.b)

    def root(self, v: int) -> int:
        """Root of the tree containing ``v``."""
        while self.parent[v] >= 0:
            v = self.parent[v]
        return v

    def tree_members(self, v: int) -> list[int]:
        """All vertices of the tree containing ``v`` (root-first BFS)."""
        stack = [self.root(v)]
        members: list[int] = []
        while stack:
            node = stack.pop()
            members.append(node)
            stack.extend(self.children[node])
        return members

    def tree_gain(self, v: int) -> int:
        """``b(T) = sum b(v) w(v)`` of the tree containing ``v``."""
        return int(sum(int(self.b[m]) * self.weight[m]
                       for m in self.tree_members(v)))

    def constraints(self) -> list[tuple[int, int]]:
        """All stored active constraints ``(p, q)``: p drags q."""
        out: list[tuple[int, int]] = []
        for c, p in enumerate(self.parent):
            if p < 0:
                continue
            out.append((c, p) if self.drags_parent[c] else (p, c))
        return out

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def _reroot(self, v: int) -> None:
        """Make ``v`` the root of its tree (reverses parent pointers)."""
        path: list[int] = [v]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        # path = v .. old_root; reverse each edge along it.
        for child, parent in zip(path, path[1:]):
            # remove child from parent, attach parent under child
            self.children[parent].discard(child)
            self.children[child].add(parent)
        # flags: edge (child, parent) direction is absolute; as parent
        # becomes the child, its flag is the negation of the old one.
        flags = [self.drags_parent[c] for c in path[:-1]]
        for (child, parent), flag in zip(zip(path, path[1:]), flags):
            self.parent[parent] = child
            self.drags_parent[parent] = not flag
        self.parent[v] = -1

    def link(self, p: int, q: int) -> None:
        """Store constraint (p, q): p drags q.  q's tree is merged under p.

        ``p`` and ``q`` must be in different trees.
        """
        if p == q:
            raise RetimingError("cannot link a vertex to itself")
        if self.root(p) == self.root(q):
            raise RetimingError("link requires distinct trees")
        self._reroot(q)
        self.parent[q] = p
        self.children[p].add(q)
        self.drags_parent[q] = False  # constraint (parent, child) = (p, q)
        self.n_constraints += 1

    def break_tree(self, q: int) -> None:
        """The paper's BreakTree: isolate ``q`` as a singleton tree.

        Re-roots ``q``'s tree at ``q`` and deletes the edges from ``q`` to
        its children (those constraints are dropped; if still needed they
        are re-discovered by later violations).
        """
        self._reroot(q)
        for child in self.children[q]:
            self.parent[child] = -1
            self.n_constraints -= 1
        self.children[q].clear()

    def is_singleton(self, v: int) -> bool:
        """True when ``v`` is a tree by itself."""
        return self.parent[v] < 0 and not self.children[v]

    def set_weight(self, q: int, w: int) -> None:
        """Update the move amount of ``q`` (must be a singleton tree)."""
        if q == self.pinned:
            raise RetimingError("cannot set a weight on the pinned host")
        if not self.is_singleton(q):
            raise RetimingError(
                "weights may only be updated on singleton trees "
                "(call break_tree first)")
        if w < 1:
            raise RetimingError("move weights must be >= 1")
        self.weight[q] = int(w)

    def implies(self, p: int, q: int) -> bool:
        """True when the stored constraints already force q to follow p.

        Checks for a directed drag path ``p -> ... -> q`` along the unique
        tree path between them (False when in different trees).
        """
        if p == q:
            return True
        # Ancestor chains to the roots.
        chain_p: list[int] = [p]
        while self.parent[chain_p[-1]] >= 0:
            chain_p.append(self.parent[chain_p[-1]])
        chain_q: list[int] = [q]
        while self.parent[chain_q[-1]] >= 0:
            chain_q.append(self.parent[chain_q[-1]])
        if chain_p[-1] != chain_q[-1]:
            return False
        set_p = {v: i for i, v in enumerate(chain_p)}
        lca = next(v for v in chain_q if v in set_p)
        up = chain_p[:chain_p.index(lca)]       # p .. just below lca
        down = chain_q[:chain_q.index(lca)]     # q .. just below lca
        # Upward steps c -> parent must drag the parent.
        if any(not self.drags_parent[c] for c in up):
            return False
        # Downward steps parent -> child must drag the child.
        if any(self.drags_parent[c] for c in down):
            return False
        return True

    # ------------------------------------------------------------------
    # Solver-facing API
    # ------------------------------------------------------------------

    def add_constraint(self, p: int, q: int, required_weight: int) -> bool:
        """Record constraint (p, q) with q's total move ``required_weight``.

        Performs the UpdateForest / BreakTree choreography of Algorithm 1
        (lines 18-24).  Returns False when the constraint (with the same
        weight) was already implied -- the caller treats that as lack of
        progress.
        """
        if q == self.pinned:
            raise RetimingError("the host cannot be dragged")
        if p == q:
            return False
        if self.weight[q] != required_weight:
            self.break_tree(q)
            self.set_weight(q, required_weight)
        if self.root(p) == self.root(q):
            if self.implies(p, q):
                return False
            self.break_tree(q)
            if p == q:  # break_tree may have made them identical roots
                return False
        self.link(p, q)
        return True

    def pin_tree(self, v: int) -> None:
        """Record the constraint (v, host): selecting ``v`` is forbidden.

        Used for unfixable violations (registers would cross a primary
        output): ``v in I`` would drag the immovable host into ``I``, so
        the closed-set selection excludes ``v`` permanently for this
        pass.
        """
        if v == self.pinned or self.implies(v, self.pinned):
            return
        if self.root(v) == self.root(self.pinned):
            self.break_tree(v)
        self.link(v, self.pinned)

    def positive_delta(self) -> np.ndarray:
        """Move amounts of the best candidate set ``I`` in the forest.

        Selects, independently per tree, the maximum-gain vertex subset
        closed under the stored active constraints (exact tree dynamic
        program over the two per-vertex states in/out, honoring each tree
        edge's drag direction; the pinned host is forced out).  Trees
        whose best closed subset has non-positive gain contribute
        nothing.  Returns ``delta[v] = w(v)`` for selected vertices, 0
        elsewhere.

        This realizes the regular forest's purpose -- ``I`` is the
        max-gain closed set under A -- with an explicit optimization
        instead of the incremental regularity maintenance of [20]; both
        give a closed set whose move strictly improves the objective.
        A call costs O(|V|): each vertex is visited once.
        """
        n = self.n_vertices
        b = self.b.tolist()
        weight = self.weight
        parent = self.parent
        children = self.children
        drags_parent = self.drags_parent
        pinned = self.pinned
        delta = [0] * n
        # Per-vertex DP states, allocated once per call rather than per
        # tree: each tree writes its members' states before reading them.
        f_in = [0] * n
        f_out = [0] * n
        NEG = -(1 << 62)

        for start in range(n):
            if parent[start] >= 0:
                continue
            if not children[start]:
                # Singleton tree: in alone, or nothing.
                if start != pinned and b[start] * weight[start] > 0:
                    delta[start] = weight[start]
                continue
            # Breadth-first order: every child comes after its parent, so
            # the reversed order visits children first.
            order = [start]
            for v in order:
                order.extend(children[v])
            for v in reversed(order):
                acc_in = NEG if v == pinned else b[v] * weight[v]
                acc_out = 0
                for c in children[v]:
                    c_in = f_in[c]
                    c_out = f_out[c]
                    best = c_in if c_in > c_out else c_out
                    if drags_parent[c]:
                        # (c, v): c in => v in; v out forces c out.
                        acc_in += best
                        acc_out += c_out
                    else:
                        # (v, c): v in => c in.
                        acc_in += c_in
                        acc_out += best
                f_in[v] = acc_in if acc_in > NEG else NEG
                f_out[v] = acc_out
            if f_in[start] <= 0 and f_out[start] <= 0:
                continue
            # Backtrack the optimal states.
            choose = [(start, f_in[start] > f_out[start])]
            while choose:
                v, inside = choose.pop()
                if inside:
                    delta[v] = weight[v]
                for c in children[v]:
                    if drags_parent[c]:
                        child_in = f_in[c] > f_out[c] if inside else False
                    else:
                        child_in = True if inside \
                            else f_in[c] > f_out[c]
                    choose.append((c, child_in))
        return np.array(delta, dtype=np.int64)

    def reset(self) -> None:
        """Drop all constraints and reset all weights to 1 (new pass)."""
        n = self.n_vertices
        self.parent = [-1] * n
        self.children = [set() for _ in range(n)]
        self.drags_parent = [False] * n
        self.weight = [1] * n
        self.weight[self.pinned] = 0
        self.n_constraints = 0

    def __repr__(self) -> str:
        return (f"RegularForest(|V|={self.n_vertices}, "
                f"constraints={self.n_constraints})")
