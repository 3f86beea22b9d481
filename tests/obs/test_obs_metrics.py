"""Unit tests of the metrics registry: exactness, merging, deferral."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    merge_snapshots,
)


class TestInstruments:
    def test_counter_is_exact_and_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(10**18)
        assert counter.value == 10**18 + 1
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0

    def test_histogram_edges_are_inclusive_upper_bounds(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        histogram.observe_many([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0])
        # (-inf,1], (1,2], (2,4], (4,inf): edge hits land in their bucket.
        assert histogram.counts == [2, 2, 2, 1]
        assert histogram.count == 7

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_observe_counts_matches_observe_many(self):
        loop = Histogram("h", bounds=(1.0, 2.0))
        batch = Histogram("h", bounds=(1.0, 2.0))
        loop.observe_many([0.5, 1.5, 1.5, 7.0])
        batch.observe_counts([1, 2, 1])
        assert loop.counts == batch.counts
        assert loop.count == batch.count

    def test_observe_counts_rejects_misaligned_or_negative(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            histogram.observe_counts([1, 2])  # needs len(bounds) + 1 entries
        with pytest.raises(ConfigurationError):
            histogram.observe_counts([1, -1, 0])


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_bounds_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_keys_are_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z")
        registry.inc("a")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]

    def test_deferred_publication_runs_at_snapshot_once(self):
        registry = MetricsRegistry()
        calls = []

        def publish(target):
            calls.append(1)
            target.inc("late", 5)

        registry.defer(publish)
        assert calls == []  # nothing runs at defer time
        assert registry.snapshot()["counters"]["late"] == 5
        registry.snapshot()
        assert calls == [1]  # drained exactly once

    def test_deferred_callback_may_defer_more(self):
        registry = MetricsRegistry()

        def outer(target):
            target.inc("outer")
            target.defer(lambda inner_target: inner_target.inc("inner"))

        registry.defer(outer)
        counters = registry.snapshot()["counters"]
        assert counters == {"outer": 1, "inner": 1}


class TestActivation:
    def test_disabled_by_default(self):
        assert obs_metrics.ACTIVE is None

    def test_collecting_scopes_and_restores(self):
        with collecting() as registry:
            assert obs_metrics.ACTIVE is registry
            with collecting() as nested:
                assert obs_metrics.ACTIVE is nested
            assert obs_metrics.ACTIVE is registry
        assert obs_metrics.ACTIVE is None


class TestMerge:
    def test_split_observations_merge_to_the_serial_totals(self):
        serial = MetricsRegistry()
        shard_a = MetricsRegistry()
        shard_b = MetricsRegistry()
        for registry in (serial, shard_a):
            registry.inc("events", 3)
            registry.histogram("lat", bounds=(1.0, 2.0)).observe_many([0.5, 1.5])
        for registry in (serial, shard_b):
            registry.inc("events", 4)
            registry.histogram("lat", bounds=(1.0, 2.0)).observe_many([5.0])
            registry.gauge("energy").add(1.25)
        merged = merge_snapshots([shard_a.snapshot(), shard_b.snapshot()])
        assert merged == serial.snapshot()

    def test_merge_order_is_deterministic_for_gauges(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        first.gauge("g").set(1.0)
        second.gauge("g").set(2.0)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["gauges"]["g"] == 2.0

    def test_merge_rejects_mismatched_histogram_bounds(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        first.histogram("h", bounds=(1.0,)).observe(0.5)
        second.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError):
            merge_snapshots([first.snapshot(), second.snapshot()])

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == {"counters": {}, "gauges": {}, "histograms": {}}
