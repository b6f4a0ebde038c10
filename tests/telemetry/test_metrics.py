"""Unit tests for the metrics registry and its exports."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import (DEFAULT_SECONDS_BUCKETS, Histogram,
                                     prometheus_name)


class TestMetricKinds:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache.hits")
        counter.inc()
        counter.inc(3)
        assert registry.counter("cache.hits").value == 4
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("suite.phi")
        gauge.set(8.25)
        gauge.inc(0.75)
        gauge.dec(2.0)
        assert registry.gauge("suite.phi").value == pytest.approx(7.0)

    def test_histogram_buckets_and_overflow(self):
        hist = Histogram((0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1]  # last bucket is +Inf overflow
        assert hist.count == 4
        assert hist.sum == pytest.approx(3.05)

    def test_histogram_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram(())
        with pytest.raises(TelemetryError):
            Histogram((1.0, 0.1))

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x")

    def test_histogram_rebind_with_different_bounds_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(0.1, 1.0))
        registry.histogram("h", buckets=(0.1, 1.0))  # same bounds: fine
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(0.5, 5.0))


class TestSnapshotAndDelta:
    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.counter("c", help="a counter").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(0.1,)).observe(0.05)
        snap = registry.snapshot()
        assert snap["format"] == "repro-metrics"
        assert snap["version"] == 1
        assert snap["metrics"]["c"] == {"type": "counter", "value": 2,
                                        "help": "a counter"}
        assert snap["metrics"]["g"]["type"] == "gauge"
        hist = snap["metrics"]["h"]
        assert hist["buckets"] == [0.1]
        assert hist["counts"] == [1, 0]
        assert hist["count"] == 1
        # Snapshots are decoupled from the live metrics.
        registry.counter("c").inc()
        assert snap["metrics"]["c"]["value"] == 2

    def test_delta_subtracts_and_drops_zero(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(5)
        registry.counter("idle").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        before = registry.snapshot()
        registry.counter("hits").inc(3)
        registry.counter("fresh").inc()
        registry.gauge("depth").set(4)
        registry.histogram("lat", buckets=(1.0,)).observe(2.0)
        after = registry.snapshot()
        delta = MetricsRegistry.delta(before, after)
        assert delta["hits"] == 3
        assert "idle" not in delta  # unchanged counters are dropped
        assert delta["fresh"] == 1  # absent from before counts from zero
        assert delta["depth"] == 4  # gauges report the after value
        assert delta["lat"] == {"count": 1, "sum": pytest.approx(2.0),
                                "counts": [0, 1]}

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        before = worker.snapshot()
        worker.counter("hits").inc(3)
        worker.gauge("depth").set(4)
        worker.histogram("lat", buckets=(1.0,)).observe(2.0)
        delta = MetricsRegistry.delta(before, worker.snapshot())
        parent = MetricsRegistry()
        parent.counter("hits").inc(2)
        parent.gauge("depth").set(1)
        parent.histogram("lat", buckets=(1.0,)).observe(0.5)
        parent.merge(delta)
        parent.merge(delta)
        assert parent.counter("hits").value == 8
        assert parent.gauge("depth").value == 1  # gauges are not merged
        lat = parent.histogram("lat", buckets=(1.0,))
        assert lat.counts == [1, 2]
        assert lat.count == 3 and lat.sum == pytest.approx(4.5)

    def test_merge_rejects_mismatched_buckets(self):
        parent = MetricsRegistry()
        parent.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(TelemetryError):
            parent.merge({"lat": {"count": 1, "sum": 0.5, "counts": [1, 0]}})

    def test_delta_is_json_serializable(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("n").inc()
        json.dumps(MetricsRegistry.delta(before, registry.snapshot()))


class TestExports:
    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits", help="lookups that hit").inc(3)
        registry.gauge("suite.phi").set(8.25)
        registry.histogram("stage.seconds.solve:minobs",
                           buckets=(0.1, 1.0)).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP repro_cache_hits lookups that hit" in text
        assert "# TYPE repro_cache_hits counter" in text
        assert "repro_cache_hits 3" in text
        assert "repro_suite_phi 8.25" in text
        prom = prometheus_name("stage.seconds.solve:minobs")
        assert prom == "repro_stage_seconds_solve_minobs"
        assert f'{prom}_bucket{{le="0.1"}} 0' in text
        assert f'{prom}_bucket{{le="1"}} 1' in text
        assert f'{prom}_bucket{{le="+Inf"}} 1' in text
        assert f"{prom}_sum 0.5" in text
        assert f"{prom}_count 1" in text

    def test_write_json_vs_prometheus_by_extension(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        json_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        registry.write(json_path)
        registry.write(prom_path)
        assert json.loads(json_path.read_text())["format"] == "repro-metrics"
        assert prom_path.read_text().startswith("# TYPE repro_n counter")

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.reset()
        assert registry.snapshot()["metrics"] == {}

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_SECONDS_BUCKETS) == \
            sorted(DEFAULT_SECONDS_BUCKETS)
