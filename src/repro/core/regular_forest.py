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

The program is incremental, in the spirit of [20]'s incremental
regularity: each vertex keeps its two DP states between calls, and a
*stale* flag (closed under ancestors) marks the states a structural
operation invalidated -- the re-rooted path, the new parent's ancestor
chain, a broken-off vertex and its old parent's ancestor chain, a
re-weighted vertex.  Each tree root keeps its cached selection; an
operation drops the cached selections of the trees it touches and
queues the resulting roots.  A call re-evaluates only stale vertices and
re-selects only queued roots, so it costs what the operations since the
last call changed, not ``O(|V|)``.

Weight updates follow the paper's ``BreakTree`` discipline: a vertex's
weight may only change while it is a tree by itself, so the forest first
cuts the vertex from its parent and its children (Fig. 3's
positive-tree-to-positive-tree link is the motivating case).  The cut
re-roots nothing: a tree's selection does not depend on which of its
vertices roots it, so each piece keeps whatever root it has.
"""

from __future__ import annotations

import numpy as np

from ..errors import RetimingError

#: The in-state of the pinned host: it can never be selected.
_NEG = -(1 << 62)


class RegularForest:
    """Forest of active constraints over the vertices of a retiming graph.

    Parameters
    ----------
    gains:
        Integer per-vertex gains ``b(v)``.
    pinned:
        Index of the immovable host vertex; any tree containing it is
        excluded from the positive set.

    Attributes
    ----------
    evaluations:
        Vertices whose DP states :meth:`positive_delta` has (re)computed
        since construction -- the incremental DP's work counter.
    """

    def __init__(self, gains: np.ndarray, pinned: int = 0):
        self.b = np.asarray(gains, dtype=np.int64)
        self._gain = self.b.tolist()
        self.pinned = pinned
        self.evaluations = 0
        self.reset()

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

    def constraints(self) -> list[tuple[int, int]]:
        """All stored active constraints ``(p, q)``: p drags q."""
        out: list[tuple[int, int]] = []
        for c, p in enumerate(self.parent):
            if p < 0:
                continue
            out.append((c, p) if self.drags_parent[c] else (p, c))
        return out

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------

    def _unselect(self, root: int) -> None:
        """Drop the cached selection of ``root``'s tree."""
        delta = self._delta
        for v in self._selection.pop(root, ()):
            delta[v] = 0

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def _reroot(self, v: int) -> None:
        """Make ``v`` the root of its tree (reverses parent pointers)."""
        parent = self.parent
        up = parent[v]
        if up < 0:
            return
        children = self.children
        drags_parent = self.drags_parent
        stale = self._stale
        # One pass up the path: each edge (child, up) flips to (up,
        # child), and the constraint's absolute direction is kept by
        # negating the flag as ``up`` becomes the child.
        child = v
        flag = drags_parent[v]
        parent[v] = -1
        stale[v] = True
        while up >= 0:
            next_up = parent[up]
            next_flag = drags_parent[up]
            children[up].discard(child)
            children[child].add(up)
            parent[up] = child
            drags_parent[up] = not flag
            stale[up] = True
            child, up, flag = up, next_up, next_flag
        self._unselect(child)   # the old root
        self._dirty.add(v)

    def _touch(self, v: int) -> None:
        """Mark ``v`` and its ancestors stale: their DP states changed.

        The stale set is ancestor-closed, and a stale root has already
        lost its selection and been queued, so the walk stops at the
        first stale vertex; a walk that reaches the root does both.
        """
        parent = self.parent
        stale = self._stale
        while not stale[v]:
            stale[v] = True
            up = parent[v]
            if up < 0:
                self._unselect(v)
                self._dirty.add(v)
                return
            v = up

    def link(self, p: int, q: int) -> None:
        """Store constraint (p, q): p drags q.  q's tree is merged under p.

        ``p`` and ``q`` must be in different trees.
        """
        if p == q:
            raise RetimingError("cannot link a vertex to itself")
        if self.root(p) == self.root(q):
            raise RetimingError("link requires distinct trees")
        self._link(p, q)

    def _link(self, p: int, q: int) -> None:
        """:meth:`link` for ``p`` and ``q`` known to be in different trees."""
        parent = self.parent
        if parent[q] >= 0:
            self._reroot(q)   # drops the selection of q's old root
        else:
            self._unselect(q)
        parent[q] = p
        self.children[p].add(q)
        self.drags_parent[q] = False  # constraint (parent, child) = (p, q)
        self.n_constraints += 1
        self._touch(p)

    def break_tree(self, q: int) -> None:
        """The paper's BreakTree: isolate ``q`` as a singleton tree.

        Deletes the edges from ``q`` to its parent and to its children
        (those constraints are dropped; if still needed they are
        re-discovered by later violations).  Nothing is re-rooted: the
        piece above ``q`` keeps the old root and each child roots its own
        subtree, which is sound because a tree's selection does not
        depend on which vertex roots it.
        """
        parent = self.parent
        dirty = self._dirty
        up = parent[q]
        if up < 0:
            self._unselect(q)
        else:
            parent[q] = -1
            self.children[up].discard(q)
            self.n_constraints -= 1
            self._touch(up)
        cut = self.children[q]
        for child in cut:
            parent[child] = -1
            dirty.add(child)
        self.n_constraints -= len(cut)
        cut.clear()
        self._stale[q] = True
        dirty.add(q)

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
        self._unselect(q)
        self.weight[q] = int(w)
        self._stale[q] = True
        self._dirty.add(q)

    def implies(self, p: int, q: int) -> bool:
        """True when the stored constraints already force q to follow p.

        Checks for a directed drag path ``p -> ... -> q`` along the unique
        tree path between them (False when in different trees).
        """
        if p == q:
            return True
        return bool(self._meet(p, q))

    def _meet(self, p: int, q: int) -> bool | None:
        """Whether the stored constraints imply (p, q) for ``q != p``:
        None when ``q`` is in another tree.

        Two plain walks to the roots decide the tree.  On the way, each
        walk collects a short prefix: the ancestors ``p`` drags along an
        upward path, and the ancestors that drag ``q`` along a downward
        path.  A vertex in both is where a directed drag path
        ``p -> ... -> q`` turns.  Only the two vertices' lowest common
        ancestor can be one, since an edge above it would have to point
        both ways, so the prefixes meet exactly when the tree path
        between ``p`` and ``q`` is a drag path.
        """
        parent = self.parent
        drags_parent = self.drags_parent
        # p's ancestors that p drags, then on to p's root.
        dragged = [p]
        v = p
        up = parent[v]
        while up >= 0 and drags_parent[v]:
            dragged.append(up)
            v = up
            up = parent[v]
        while up >= 0:
            v = up
            up = parent[v]
        root_p = v
        # q's ancestors that drag q, then on to q's root.
        draggers = [q]
        v = q
        up = parent[v]
        while up >= 0 and not drags_parent[v]:
            draggers.append(up)
            v = up
            up = parent[v]
        while up >= 0:
            v = up
            up = parent[v]
        if v != root_p:
            return None
        return not set(dragged).isdisjoint(draggers)

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
            self._link(p, q)
            return True
        implied = self._meet(p, q)
        if implied is not None:   # one tree
            if implied:
                return False
            self.break_tree(q)
        self._link(p, q)
        return True

    def pin_tree(self, v: int) -> None:
        """Record the constraint (v, host): selecting ``v`` is forbidden.

        Used for unfixable violations (registers would cross a primary
        output): ``v in I`` would drag the immovable host into ``I``, so
        the closed-set selection excludes ``v`` permanently for this
        pass.
        """
        host = self.pinned
        if v == host:
            return
        implied = self._meet(v, host)
        if implied is not None:   # one tree
            if implied:
                return
            self.break_tree(v)
        self._link(v, host)

    def positive_delta(self) -> np.ndarray:
        """Move amounts of the best candidate set ``I`` in the forest.

        Selects, independently per tree, the maximum-gain vertex subset
        closed under the stored active constraints (exact tree dynamic
        program over the two per-vertex states in/out, honoring each tree
        edge's drag direction; the pinned host is forced out).  Ties go
        out, so each tree yields its unique *minimal* maximum-gain closed
        subset, whatever vertex roots it.  Trees whose best closed subset
        has non-positive gain contribute nothing.  Returns
        ``delta[v] = w(v)`` for selected vertices, 0 elsewhere.

        This realizes the regular forest's purpose -- ``I`` is the
        max-gain closed set under A -- with an explicit optimization
        instead of the incremental regularity maintenance of [20]; both
        give a closed set whose move strictly improves the objective.

        Cost: only the vertices made stale since the last call are
        re-evaluated (children before parents), and only the trees
        touched since then are re-selected.  The backtrack skips any
        out-vertex whose best subtree value is 0, since nothing below it
        can be selected.  Untouched trees keep their cached selection.
        The returned array is the one ``O(|V|)`` step, a C-level copy.
        """
        parent = self.parent
        roots = [v for v in self._dirty if parent[v] < 0]
        self._dirty.clear()
        if roots:
            self._update(roots)
        return np.array(self._delta, dtype=np.int64)

    def _update(self, roots: list[int]) -> None:
        """Re-evaluate the stale states of, and re-select, ``roots``."""
        gain = self._gain
        weight = self.weight
        children = self.children
        drags_parent = self.drags_parent
        pinned = self.pinned
        stale = self._stale
        f_in = self._f_in
        f_out = self._f_out
        delta = self._delta
        selection = self._selection
        evaluated = 0
        for root in roots:
            if stale[root]:
                # The stale vertices form a subtree at the root; order
                # them parents-first, then evaluate children-first.
                order = [root]
                for v in order:
                    for c in children[v]:
                        if stale[c]:
                            order.append(c)
                evaluated += len(order)
                for v in reversed(order):
                    acc_in = _NEG if v == pinned else gain[v] * weight[v]
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
                    f_in[v] = acc_in if acc_in > _NEG else _NEG
                    f_out[v] = acc_out
                    stale[v] = False
            # Backtrack the optimal states (ties go out), with one stack
            # per state; an out-vertex whose best subtree value is 0 is
            # not pushed, since nothing below it can be selected.
            chosen: list[int] = []
            inside: list[int] = []
            outside: list[int] = []
            if f_in[root] > f_out[root]:
                inside.append(root)
            elif f_out[root]:
                outside.append(root)
            while inside or outside:
                if inside:
                    v = inside.pop()
                    chosen.append(v)
                    delta[v] = weight[v]
                    for c in children[v]:
                        # (v, c): c must follow; (c, v): c is free.
                        if drags_parent[c] and f_in[c] <= f_out[c]:
                            if f_out[c]:
                                outside.append(c)
                        else:
                            inside.append(c)
                else:
                    v = outside.pop()
                    for c in children[v]:
                        # (c, v): c must stay out; (v, c): c is free.
                        if drags_parent[c] or f_in[c] <= f_out[c]:
                            if f_out[c]:
                                outside.append(c)
                        else:
                            inside.append(c)
            if chosen:
                selection[root] = chosen
        self.evaluations += evaluated

    def reset(self) -> None:
        """Drop all constraints and reset all weights to 1 (new pass)."""
        n = self.n_vertices
        self.parent = [-1] * n
        self.children = [set() for _ in range(n)]
        # For a child c: True  -> constraint (c, parent): c drags parent
        #                False -> constraint (parent, c): parent drags c
        self.drags_parent = [False] * n
        self.weight = [1] * n
        self.weight[self.pinned] = 0
        self.n_constraints = 0
        # Incremental DP state: per-vertex in/out values, the
        # ancestor-closed stale flags, the cached selection per root and
        # the roots queued for re-selection.
        self._f_in = [0] * n
        self._f_out = [0] * n
        self._stale = [True] * n
        self._delta = [0] * n
        self._selection: dict[int, list[int]] = {}
        self._dirty: set[int] = set(range(n))

    def __repr__(self) -> str:
        return (f"RegularForest(|V|={self.n_vertices}, "
                f"constraints={self.n_constraints})")

