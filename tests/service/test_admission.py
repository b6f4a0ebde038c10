"""Admission control: validation, queue bound, token buckets.

The token-bucket property test is the other half of the service
property-testing satellite: under any schedule of requests and waits,
the number of admissions never exceeds ``burst + rate * elapsed``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError
from repro.service.admission import (MAX_NETLIST_CHARS, TABLE1_NAMES,
                                     AdmissionController, TokenBucket,
                                     validate_payload)

TINY_BENCH = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
"""


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def admit_error(controller, payload, depth=0):
    with pytest.raises(AdmissionError) as excinfo:
        controller.admit(payload, depth)
    return excinfo.value


@pytest.fixture
def controller():
    return AdmissionController(queue_limit=4, rate=1000.0, burst=1000.0)


class TestValidation:
    def test_table1_circuit_accepted(self, controller):
        spec, tenant = controller.admit({"circuit": "s13207"}, 0)
        assert spec == {"circuit": "s13207"}
        assert tenant == "default"

    def test_inline_netlist_accepted(self, controller):
        payload = {"netlist": TINY_BENCH, "name": "tiny", "tenant": "t1",
                   "scale": 0.5, "frames": 3}
        spec, tenant = controller.admit(payload, 0)
        assert spec == {"netlist": TINY_BENCH, "name": "tiny",
                        "scale": 0.5, "frames": 3}
        assert tenant == "t1"

    def test_unknown_circuit_lists_table1(self, controller):
        error = admit_error(controller, {"circuit": "s27"})
        assert error.status == 400 and error.field == "circuit"
        for name in TABLE1_NAMES:
            assert name in str(error)

    def test_unknown_field_rejected(self, controller):
        error = admit_error(controller, {"circuit": "s13207", "spice": 1})
        assert error.status == 400 and error.field == "spice"

    def test_core_field_is_unknown(self, controller):
        # The engine-selection field is gone: a client that still sends
        # it gets the ordinary unknown-field 400, never a silent accept.
        error = admit_error(controller, {"circuit": "s13207",
                                         "core": "flat"})
        assert error.status == 400 and error.field == "core"
        assert "unknown field 'core'" in str(error)

    def test_exactly_one_source_required(self, controller):
        assert admit_error(controller, {}).status == 400
        both = {"circuit": "s13207", "netlist": TINY_BENCH}
        assert "exactly one" in str(admit_error(controller, both))

    def test_non_object_body_rejected(self, controller):
        assert admit_error(controller, [1, 2]).status == 400

    def test_malformed_netlist_fails_with_located_message(self, controller):
        error = admit_error(
            controller, {"netlist": "y = AND(a\n", "name": "broken"})
        assert error.status == 400 and error.field == "netlist"
        assert "1:" in str(error)  # the parser's line-located message

    def test_oversize_netlist_is_413(self, controller):
        text = "#" * (MAX_NETLIST_CHARS + 1)
        error = admit_error(controller, {"netlist": text})
        assert error.status == 413

    def test_numeric_bounds(self, controller):
        for payload in ({"circuit": "s13207", "scale": 0.0},
                        {"circuit": "s13207", "seed": -1},
                        {"circuit": "s13207", "frames": 65},
                        {"circuit": "s13207", "patterns": "many"},
                        {"circuit": "s13207", "epsilon": 1.5},
                        {"circuit": "s13207", "frames": True}):
            assert admit_error(controller, payload).status == 400

    def test_algorithms_subset(self, controller):
        spec = validate_payload({"circuit": "s13207",
                                 "algorithms": ["minobswin"]})
        assert spec["algorithms"] == ["minobswin"]
        error = admit_error(
            controller, {"circuit": "s13207", "algorithms": ["asap"]})
        assert error.field == "algorithms"

    def test_bad_tenant_rejected(self, controller):
        error = admit_error(controller,
                            {"circuit": "s13207", "tenant": "x" * 65})
        assert error.status == 400 and error.field == "tenant"

    def test_spec_keeps_only_client_set_knobs(self):
        # Defaults fill in at execution time, not admission time, so a
        # stored spec stays meaningful across service config changes.
        assert validate_payload({"circuit": "s13207"}) == \
            {"circuit": "s13207"}


class TestQueueBound:
    def test_full_queue_is_429_with_retry_after(self, controller):
        error = admit_error(controller, {"circuit": "s13207"},
                            depth=controller.queue_limit)
        assert error.status == 429
        assert error.retry_after == 5.0

    def test_validation_beats_queue_bound(self, controller):
        # A malformed request is never "retryable later".
        error = admit_error(controller, {"circuit": "nope"},
                            depth=controller.queue_limit)
        assert error.status == 400


class TestTokenBucket:
    def test_burst_then_starve(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.allow()[0] for _ in range(4)] == \
            [True, True, True, False]

    def test_retry_after_wait_grants(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.allow() == (True, 0.0)
        allowed, retry_after = bucket.allow()
        assert not allowed and retry_after == pytest.approx(0.5)
        clock.advance(retry_after)
        assert bucket.allow()[0]

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        grants = sum(bucket.allow()[0] for _ in range(5))
        assert grants == 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(min_value=0.5, max_value=50.0),
           burst=st.floats(min_value=1.0, max_value=20.0),
           steps=st.lists(
               st.one_of(st.just("request"),
                         st.floats(min_value=0.0, max_value=5.0)),
               min_size=1, max_size=60))
    def test_grants_never_exceed_rate(self, rate, burst, steps):
        """Core property: over any schedule, admissions are bounded by
        the initial burst plus the refill over elapsed time."""
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        granted, elapsed = 0, 0.0
        for step in steps:
            if step == "request":
                if bucket.allow()[0]:
                    granted += 1
            else:
                clock.advance(step)
                elapsed += step
        assert granted <= burst + rate * elapsed + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(min_value=0.5, max_value=50.0),
           waits=st.lists(st.floats(min_value=0.0, max_value=2.0),
                          min_size=1, max_size=30))
    def test_retry_after_is_sufficient(self, rate, waits):
        """Whenever the bucket rejects, waiting exactly ``retry_after``
        makes the next request succeed."""
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=1.0, clock=clock)
        for wait in waits:
            clock.advance(wait)
            allowed, retry_after = bucket.allow()
            if not allowed:
                clock.advance(retry_after)
                assert bucket.allow()[0]


class TestTenantIsolation:
    def test_buckets_are_per_tenant(self):
        clock = FakeClock()
        controller = AdmissionController(queue_limit=64, rate=1.0,
                                         burst=1.0, clock=clock)
        controller.admit({"circuit": "s13207", "tenant": "a"}, 0)
        error = admit_error(controller,
                            {"circuit": "s13207", "tenant": "a"})
        assert error.status == 429 and error.retry_after > 0
        # Tenant b is unaffected by a's exhaustion.
        spec, tenant = controller.admit(
            {"circuit": "s13207", "tenant": "b"}, 0)
        assert tenant == "b"

    def test_bucket_map_is_lru_bounded(self):
        from repro.service import admission
        clock = FakeClock()
        controller = AdmissionController(queue_limit=64, rate=1.0,
                                         burst=5.0, clock=clock)
        for i in range(admission.MAX_TENANTS + 10):
            controller.bucket(f"tenant-{i}")
        assert len(controller._buckets) == admission.MAX_TENANTS
        assert "tenant-0" not in controller._buckets
