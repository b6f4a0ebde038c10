"""Seeded exponential backoff with jitter (the supervisor's restart
pacing), and a retry ladder that never sleeps.

Sleeps are observed through a patched ``time.sleep`` (never actually
slept), so these tests are instant.
"""

import time

import pytest

from repro.errors import DeadlineExceeded
from repro.runtime.executor import (BACKOFF_CAP, BACKOFF_FACTOR,
                                    backoff_delay, backoff_rng,
                                    run_ladder)


@pytest.fixture
def sleeps(monkeypatch):
    observed = []
    monkeypatch.setattr(time, "sleep", observed.append)
    return observed


def flaky(fail_times, value="ok"):
    """A rung that fails ``fail_times`` times, then succeeds."""
    calls = {"n": 0}

    def fn(ctx):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise RuntimeError(f"flake #{calls['n']}")
        return value

    return fn


class TestDelayMath:
    def test_delay_grows_exponentially_within_jitter(self):
        rng = backoff_rng(0, "stage")
        for attempt in range(5):
            delay = backoff_delay(0.1, attempt, rng)
            ceiling = 0.1 * BACKOFF_FACTOR ** attempt
            assert 0.5 * ceiling <= delay < ceiling

    def test_delay_caps(self):
        rng = backoff_rng(0, "stage")
        assert backoff_delay(1.0, 30, rng) <= BACKOFF_CAP

    def test_zero_base_never_sleeps(self):
        rng = backoff_rng(0, "stage")
        assert backoff_delay(0.0, 3, rng) == 0.0

    def test_rng_is_deterministic_per_identity(self):
        a = backoff_rng(7, "solve", "s13207").random()
        b = backoff_rng(7, "solve", "s13207").random()
        assert a == b
        assert backoff_rng(7, "solve", "s15850.1").random() != a
        assert backoff_rng(8, "solve", "s13207").random() != a


class TestLadderSleeps:
    def test_default_backoff_zero_never_sleeps(self, sleeps):
        outcome = run_ladder("solve", [("r0", flaky(2))], max_retries=2)
        assert outcome.value == "ok" and outcome.attempts == 3
        assert sleeps == []  # retries are immediate

    def test_non_retryable_failure_skips_sleeps_and_degrades(self, sleeps):
        def hard_fail(ctx):
            raise DeadlineExceeded("over budget", stage="solve",
                                   elapsed=1.0)

        outcome = run_ladder(
            "solve", [("exact", hard_fail), ("identity", lambda ctx: "id")],
            max_retries=3)
        assert outcome.value == "id" and outcome.degraded
        assert outcome.attempts == 2  # no retry of the deterministic fail
        assert sleeps == []  # deterministic failure: retrying cannot help

    def test_degrading_between_rungs_never_sleeps(self, sleeps):
        def always_fail(ctx):
            raise RuntimeError("rung is broken")

        outcome = run_ladder(
            "solve", [("exact", always_fail), ("identity", lambda ctx: 1)],
            max_retries=0)
        assert outcome.value == 1
        assert sleeps == []  # a lower rung uses different resources
