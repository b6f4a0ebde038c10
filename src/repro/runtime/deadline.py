"""Wall-clock deadlines for one stage attempt.

A :class:`Deadline` is a monotonic wall-clock budget shared by one stage
attempt.  The core solvers deliberately do not import this module (core
sits below runtime in the layering); the suite hands them a plain float
``deadline`` budget, the value of :meth:`Deadline.remaining`.
"""

from __future__ import annotations

import time
from collections.abc import Callable


class Deadline:
    """A wall-clock budget started at construction time.

    Parameters
    ----------
    budget:
        Seconds until expiry, or ``None`` for no limit.
    clock:
        Monotonic clock (injectable for tests); defaults to
        :func:`time.perf_counter`.
    """

    __slots__ = ("budget", "started", "_clock")

    def __init__(self, budget: float | None,
                 clock: Callable[[], float] = time.perf_counter):
        if budget is not None and budget < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget!r}")
        self.budget = None if budget is None else float(budget)
        self._clock = clock
        self.started = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self.started

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` when unlimited.

        The return value is exactly what the solvers accept as their
        ``deadline`` argument.
        """
        if self.budget is None:
            return None
        return max(0.0, self.budget - self.elapsed())

    def expired(self) -> bool:
        """True once the budget is spent."""
        return self.budget is not None and self.elapsed() > self.budget

    def __repr__(self) -> str:
        budget = "inf" if self.budget is None else f"{self.budget:g}s"
        return f"Deadline(budget={budget}, elapsed={self.elapsed():.3f}s)"

