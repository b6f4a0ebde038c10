"""Wall-clock deadlines with cooperative cancellation.

A :class:`Deadline` is a monotonic wall-clock budget shared by one stage
attempt.  The core solvers deliberately do not import this module (core
sits below runtime in the layering); instead they accept a plain float
budget plus a ``should_stop`` callback, both of which a ``Deadline``
produces via :meth:`Deadline.remaining` and :meth:`Deadline.as_should_stop`.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..errors import DeadlineExceeded


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

    @classmethod
    def unlimited(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

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

    def check(self, stage: str = "stage") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` when expired."""
        if self.expired():
            elapsed = self.elapsed()
            raise DeadlineExceeded(
                f"{stage} exceeded its {self.budget:g}s deadline "
                f"({elapsed:.3f}s elapsed)", stage=stage, elapsed=elapsed)

    def as_should_stop(self) -> Callable[[], bool]:
        """A zero-argument cancellation predicate for cooperative loops."""
        return self.expired

    def __repr__(self) -> str:
        budget = "inf" if self.budget is None else f"{self.budget:g}s"
        return f"Deadline(budget={budget}, elapsed={self.elapsed():.3f}s)"

