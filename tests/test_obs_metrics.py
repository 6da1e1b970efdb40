"""Metrics registry, report determinism, and the shared percentile math."""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_of,
)


class TestPercentileOf:
    def test_empty_is_zero(self):
        assert percentile_of([], 50) == 0.0

    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile_of(samples, 50) == 2.0
        assert percentile_of(samples, 100) == 4.0
        assert percentile_of(samples, 0) == 1.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            percentile_of([1.0], 101)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("c", {})
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g", {})
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3

    def test_histogram_percentiles(self):
        histogram = Histogram("h", {})
        for value in [10.0, 20.0, 30.0, 40.0]:
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.mean == 25.0
        assert histogram.percentile(50) == 20.0
        snapshot = histogram.snapshot()
        assert snapshot["p50"] == 20.0
        assert snapshot["max"] == 40.0

    def test_empty_histogram_is_zeroes(self):
        histogram = Histogram("latency", {})
        assert histogram.mean == 0.0
        assert histogram.maximum == 0.0
        assert histogram.percentile(99) == 0.0

    def test_histogram_matches_shared_percentile_math(self):
        for samples in ([5.0, 1.0, 4.0, 2.0, 3.0], range(100, 0, -1)):
            histogram = Histogram("latency", {})
            for value in samples:
                histogram.record(float(value))
            for pct in (0, 25, 50, 75, 95, 99, 100):
                expected = percentile_of(sorted(map(float, samples)), pct)
                assert histogram.percentile(pct) == expected
        # Nearest rank over 1..100: the p-th percentile is p itself.
        assert [histogram.percentile(p) for p in (50, 95, 99)] == [50, 95, 99]
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("net.sent", node="r1")
        b = registry.counter("net.sent", node="r1")
        c = registry.counter("net.sent", node="r2")
        assert a is b
        assert a is not c

    def test_value_and_sum(self):
        registry = MetricsRegistry()
        registry.counter("store.appends", origin="a").inc(2)
        registry.counter("store.appends", origin="b").inc(3)
        assert registry.value("store.appends", origin="a") == 2
        assert registry.value("store.appends", origin="missing") == 0
        assert registry.sum_values("store.appends") == 5

    def test_report_lookup_and_render(self):
        registry = MetricsRegistry()
        registry.counter("net.sent").inc(7)
        report = registry.report()
        assert report.get("net.sent")["value"] == 7
        assert "net.sent" in report.render()


def _seeded_run_report_json(seed: int) -> str:
    cluster = (
        Cluster.build(seed=seed)
        .with_network(latency=3.0)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_tracing()
        .create()
    )
    for index in range(5):
        cluster.replication.write_insert("order", f"o-{index}", {"total": index})
    cluster.sim.run(until=60.0)
    return cluster.metrics_report().to_json()


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        assert _seeded_run_report_json(42) == _seeded_run_report_json(42)

    def test_report_reflects_traffic(self):
        payload = _seeded_run_report_json(42)
        assert '"net.sent"' in payload
        assert '"store.appends"' in payload
