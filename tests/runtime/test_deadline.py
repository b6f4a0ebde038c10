"""Tests for repro.runtime.deadline (fake-clock driven)."""

import pytest

from repro.runtime.deadline import Deadline


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_elapsed_tracks_clock(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert d.elapsed() == 0.0
        clock.advance(3.5)
        assert d.elapsed() == pytest.approx(3.5)

    def test_remaining_clamps_at_zero(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5)
        clock.advance(5.0)
        assert d.remaining() == 0.0

    def test_expired_transitions_once_budget_is_spent(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        assert not d.expired()
        clock.advance(0.999)
        assert not d.expired()
        clock.advance(0.002)
        assert d.expired()

    def test_unlimited_never_expires(self):
        clock = FakeClock()
        d = Deadline(None, clock=clock)
        clock.advance(1e9)
        assert not d.expired()
        assert d.remaining() is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_zero_budget_expires_immediately(self):
        clock = FakeClock()
        d = Deadline(0.0, clock=clock)
        clock.advance(1e-9)
        assert d.expired()

    def test_repr_mentions_budget(self):
        assert "inf" in repr(Deadline(None))
        assert "2s" in repr(Deadline(2.0))

