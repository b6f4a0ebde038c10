"""Interval-set algebra for error-latching windows.

An error-latching window (eq. 2) is a union of disjoint closed intervals
``[L_1, R_1] u ... u [L_l, R_l]``.  :class:`IntervalSet` implements the
operations the ELW propagation of eq. (3) needs: union, scalar shift, and
total measure ``|ELW|``; plus containment/intersection helpers used by the
tests and the fault-injection validation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def _merge(pairs: Iterable[tuple[float, float]],
           ) -> tuple[tuple[float, float], ...]:
    """Merge sorted pairs into disjoint intervals, dropping empty ones."""
    merged: list[tuple[float, float]] = []
    for left, right in pairs:
        if left > right:
            continue
        if merged and left <= merged[-1][1]:
            if right > merged[-1][1]:
                merged[-1] = (merged[-1][0], right)
        else:
            merged.append((left, right))
    return tuple(merged)


class IntervalSet:
    """An immutable union of disjoint, sorted, closed intervals.

    Construct from any iterable of ``(left, right)`` pairs; overlapping and
    touching intervals are merged (closed intervals: ``[0, 1]`` and
    ``[1, 2]`` merge into ``[0, 2]``).  Empty (``left > right``) intervals
    are dropped.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Sequence[float]] = ()):
        self._intervals: tuple[tuple[float, float], ...] = _merge(
            sorted((float(l), float(r)) for l, r in intervals))

    @classmethod
    def _from_float_pairs(cls,
                          pairs: list[tuple[float, float]]) -> "IntervalSet":
        """The set of ``pairs``, which must already be float tuples.

        Equal to ``IntervalSet(pairs)`` without the per-endpoint
        ``float()`` and, for a single pair, the sort.  Sorts ``pairs``
        in place.
        """
        self = cls.__new__(cls)
        if len(pairs) == 1:
            left, right = pair = pairs[0]
            self._intervals = (pair,) if left <= right else ()
        else:
            pairs.sort()
            self._intervals = _merge(pairs)
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set (measure 0)."""
        return cls(())

    @classmethod
    def single(cls, left: float, right: float) -> "IntervalSet":
        """A single interval ``[left, right]``."""
        return cls(((left, right),))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        """The disjoint intervals, sorted by left endpoint."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        """True when the set contains no interval."""
        return not self._intervals

    @property
    def left(self) -> float:
        """Leftmost boundary ``L_1`` (``+inf`` for the empty set)."""
        return self._intervals[0][0] if self._intervals else math.inf

    @property
    def right(self) -> float:
        """Rightmost boundary ``R_l`` (``-inf`` for the empty set)."""
        return self._intervals[-1][1] if self._intervals else -math.inf

    @property
    def measure(self) -> float:
        """Total length ``sum(R_i - L_i)`` -- the paper's ``|ELW|``.

        Summed left to right; the one- and two-interval sets every ELW
        kernel call builds skip the generator.
        """
        intervals = self._intervals
        if len(intervals) == 1:
            (left, right), = intervals
            return right - left
        if len(intervals) == 2:
            (l1, r1), (l2, r2) = intervals
            return (r1 - l1) + (r2 - l2)
        return sum(r - l for l, r in intervals)

    @property
    def span(self) -> float:
        """Outer span ``R_l - L_1`` (0 for the empty set).

        This is the quantity the L/R labels of eq. (6) bound (Theorem 1):
        ``span >= measure`` always.
        """
        if not self._intervals:
            return 0.0
        return self.right - self.left

    def contains(self, x: float, tol: float = 1e-9) -> bool:
        """True when point ``x`` lies in some interval (within ``tol``)."""
        return any(l - tol <= x <= r + tol for l, r in self._intervals)

    def covers(self, other: "IntervalSet", tol: float = 1e-9) -> bool:
        """True when every interval of ``other`` is inside this set."""
        for left, right in other._intervals:
            if not any(l - tol <= left and right <= r + tol
                       for l, r in self._intervals):
                return False
        return True

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def shift(self, offset: float) -> "IntervalSet":
        """Translate every interval by ``offset``.

        ``ELW(f) - d(f)`` in eq. (3) is ``elw.shift(-d)``.
        """
        return IntervalSet((l + offset, r + offset) for l, r in self._intervals)

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        """Union with any number of other interval sets."""
        parts: list[tuple[float, float]] = list(self._intervals)
        for other in others:
            parts.extend(other._intervals)
        return IntervalSet(parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection."""
        out: list[tuple[float, float]] = []
        i = j = 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            left = max(a[i][0], b[j][0])
            right = min(a[i][1], b[j][1])
            if left <= right:
                out.append((left, right))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    def __sub__(self, offset: float) -> "IntervalSet":
        """``elw - d`` notation of eq. (3): shift left by ``offset``."""
        return self.shift(-float(offset))

    def __add__(self, offset: float) -> "IntervalSet":
        return self.shift(float(offset))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    def __repr__(self) -> str:
        if not self._intervals:
            return "IntervalSet(empty)"
        body = " u ".join(f"[{l:g}, {r:g}]" for l, r in self._intervals)
        return f"IntervalSet({body})"
