"""Tests for repro.runtime.deadline (fake-clock driven)."""

import pytest

from repro.errors import DeadlineExceeded
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
        d.check("anything")  # must not raise

    def test_unlimited_classmethod(self):
        assert Deadline.unlimited().budget is None

    def test_check_raises_with_stage_and_elapsed(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        d.check("solve")
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            d.check("solve")
        assert excinfo.value.stage == "solve"
        assert excinfo.value.elapsed == pytest.approx(2.0)
        assert "solve" in str(excinfo.value)

    def test_as_should_stop_is_live(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        stop = d.as_should_stop()
        assert stop() is False
        clock.advance(2.0)
        assert stop() is True

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

