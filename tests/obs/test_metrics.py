"""The labeled metrics registry: instruments, aggregates, NOOP path."""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_METRICS,
    NoopMetricsRegistry,
)
from repro.sim.clock import SimClock


class TestCounter:
    def test_unlabeled_inc(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("requests_total").inc(-1.0)

    def test_labeled_series_are_cached(self):
        counter = Counter("ops_total", labelnames=("op",))
        child = counter.labels(op="get")
        child.inc()
        assert counter.labels(op="get") is child
        counter.labels(op="put").inc(3)
        assert counter.total() == pytest.approx(4.0)

    def test_label_mismatch_rejected(self):
        counter = Counter("ops_total", labelnames=("op",))
        with pytest.raises(ValueError):
            counter.labels(verb="get")
        with pytest.raises(ValueError):
            Counter("plain_total").labels(op="get")

    def test_labeled_parent_rejects_direct_inc(self):
        with pytest.raises(ValueError):
            Counter("ops_total", labelnames=("op",)).inc()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("9starts_with_digit")
        with pytest.raises(ValueError):
            Counter("ok_total", labelnames=("bad-dash",))
        with pytest.raises(ValueError):
            Counter("ok_total", labelnames=("__reserved",))


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == pytest.approx(6.0)

    def test_max_over_series(self):
        gauge = Gauge("state", labelnames=("address",))
        gauge.labels(address="a").set(1.0)
        gauge.labels(address="b").set(2.0)
        assert gauge.max() == 2.0
        assert Gauge("empty").max() == 0.0


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        hist = Histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.sum == pytest.approx(5.55)
        assert hist.count == 3
        buckets = hist._default().cumulative_buckets()
        assert buckets == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_default_buckets(self):
        assert Histogram("latency").bounds == DEFAULT_LATENCY_BUCKETS

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))


class TestRegistry:
    def test_factories_are_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "help", labelnames=("op",))
        b = registry.counter("hits_total", "other help", labelnames=("op",))
        assert a is b
        assert len(registry) == 1

    def test_kind_or_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits_total")
        with pytest.raises(ValueError):
            registry.gauge("hits_total")
        with pytest.raises(ValueError):
            registry.counter("hits_total", labelnames=("op",))

    def test_total_and_series_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", labelnames=("op",))
        counter.labels(op="get").inc(2)
        counter.labels(op="put").inc(3)
        hist = registry.histogram("lat", buckets=(1.0,))
        hist.observe(0.5)
        assert registry.total("ops_total") == pytest.approx(5.0)
        assert registry.total("lat") == pytest.approx(0.5)  # histogram: sum
        assert registry.total("unknown") == 0.0
        assert registry.series_values("unknown") == []
        assert sorted(registry.series_values("ops_total")) == [2.0, 3.0]

    def test_series_values_label_prefix_filter(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("state", labelnames=("address",))
        gauge.labels(address="globedoc/replica://h/s#1").set(2.0)
        gauge.labels(address="feed.example/service").set(1.0)
        only_replicas = registry.series_values(
            "state", {"address": "globedoc/replica"}
        )
        assert only_replicas == [2.0]

    def test_collectors_run_on_collect(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("derived")
        registry.register_collector(lambda: gauge.set(42.0))
        assert gauge.value == 0.0
        registry.collect()
        assert gauge.value == 42.0

    def test_injected_clock_is_exposed(self):
        clock = SimClock(7.0)
        assert MetricsRegistry(clock=clock).clock.now() == 7.0


class TestNoopRegistry:
    def test_disabled_flag_and_shared_instrument(self):
        assert NOOP_METRICS.enabled is False
        assert MetricsRegistry().enabled is True
        counter = NOOP_METRICS.counter("anything_total")
        assert counter is NOOP_METRICS.gauge("anything_else")
        assert counter is NoopMetricsRegistry().histogram("h")

    def test_all_operations_are_inert(self):
        instrument = NOOP_METRICS.counter("c", labelnames=("op",))
        child = instrument.labels(op="get")
        assert child is instrument
        child.inc()
        child.set(3.0)
        child.dec()
        child.observe(1.0)
        assert child.value == 0.0
        calls = []
        NOOP_METRICS.register_collector(lambda: calls.append(1))
        NOOP_METRICS.collect()
        assert calls == []  # collectors dropped: nothing to scrape
