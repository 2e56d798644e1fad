"""The SLO alert engine: rule math and the pending/firing lifecycle."""

from __future__ import annotations

import pytest

from repro.obs import (
    STATE_FIRING,
    STATE_INACTIVE,
    STATE_PENDING,
    STATE_RESOLVED,
    AlertEngine,
    MetricsRegistry,
    RateRule,
    ThresholdRule,
)
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock(0.0)


@pytest.fixture
def registry(clock):
    return MetricsRegistry(clock=clock)


def engine_with(registry, clock, *rules, cost=0.0):
    engine = AlertEngine(registry, clock, evaluation_cost=cost)
    for rule in rules:
        engine.add_rule(rule)
    return engine


class TestThresholdRule:
    def test_aggregates_over_series(self, registry, clock):
        gauge = registry.gauge("state", labelnames=("address",))
        gauge.labels(address="a").set(2.0)
        gauge.labels(address="b").set(1.0)
        rule_max = ThresholdRule("r", metric="state", threshold=1.5)
        assert rule_max.value(registry, clock.now()) == 2.0
        assert rule_max.breached(2.0)
        assert not rule_max.breached(1.0)

    def test_label_prefix_restriction(self, registry, clock):
        gauge = registry.gauge("state", labelnames=("address",))
        gauge.labels(address="globedoc/replica://h/s#1").set(0.0)
        gauge.labels(address="feed.example/service").set(2.0)
        rule = ThresholdRule(
            "replicas_only",
            metric="state",
            threshold=1.5,
            op=">=",
            label_prefixes={"address": "globedoc/replica"},
        )
        # The feed endpoint's open breaker must not breach this rule.
        assert rule.value(registry, clock.now()) == 0.0

    def test_missing_metric_aggregates_to_zero(self, registry, clock):
        rule = ThresholdRule("r", metric="absent", threshold=1.0)
        assert rule.value(registry, clock.now()) == 0.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", metric="m", threshold=1.0, op="!=")


class TestRateRule:
    def test_increase_over_trailing_window(self, registry, clock):
        counter = registry.counter("rejections_total")
        rule = RateRule("r", metric="rejections_total", threshold=0.0, window_seconds=30.0)
        assert rule.value(registry, clock.now()) == 0.0  # first-ever sample
        clock.advance(10.0)
        counter.inc(4)
        assert rule.value(registry, clock.now()) == 4.0
        clock.advance(35.0)  # the burst leaves the window
        assert rule.value(registry, clock.now()) == 0.0

    def test_anchor_sample_retained_at_horizon(self, registry, clock):
        counter = registry.counter("c_total")
        rule = RateRule("r", metric="c_total", threshold=0.0, window_seconds=10.0)
        rule.value(registry, clock.now())
        for _ in range(5):
            clock.advance(5.0)
            counter.inc()
            rule.value(registry, clock.now())
        # Increase over the last 10 s is the two most recent increments.
        assert rule.value(registry, clock.now()) == 2.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            RateRule("r", metric="m", threshold=0.0, window_seconds=0.0)


class TestEngineLifecycle:
    def test_fires_immediately_without_hold(self, registry, clock):
        gauge = registry.gauge("g")
        rule = ThresholdRule("breach", metric="g", threshold=1.0, op=">=")
        engine = engine_with(registry, clock, rule)
        engine.evaluate()
        assert engine.state_of("breach") == STATE_INACTIVE
        gauge.set(2.0)
        transitions = engine.evaluate()
        assert [t.state for t in transitions] == [STATE_PENDING, STATE_FIRING]
        assert engine.firing() == ["breach"]
        gauge.set(0.0)
        transitions = engine.evaluate()
        assert [t.state for t in transitions] == [STATE_RESOLVED]
        engine.evaluate()
        assert engine.state_of("breach") == STATE_INACTIVE

    def test_refire_after_resolution(self, registry, clock):
        gauge = registry.gauge("g")
        rule = ThresholdRule("flap", metric="g", threshold=1.0, op=">=")
        engine = engine_with(registry, clock, rule)
        for value in (2.0, 0.0, 2.0):
            gauge.set(value)
            clock.advance(1.0)
            engine.evaluate()
        assert engine.state_of("flap") == STATE_FIRING
        times = engine.fire_resolve_times()["flap"]
        assert times["fired_at"] is not None and times["resolved_at"] is not None
        # First fire, last resolve.
        assert times["fired_at"] < times["resolved_at"]

    def test_evaluation_cost_charged_to_clock(self, registry, clock):
        rules = [
            ThresholdRule(f"r{i}", metric="g", threshold=1.0) for i in range(3)
        ]
        engine = engine_with(registry, clock, *rules, cost=0.5)
        engine.evaluate()
        assert clock.now() == pytest.approx(1.5)  # 3 rules x 0.5 s

    def test_collectors_run_before_rules(self, registry, clock):
        gauge = registry.gauge("derived")
        registry.register_collector(lambda: gauge.set(5.0))
        rule = ThresholdRule("r", metric="derived", threshold=1.0)
        engine = engine_with(registry, clock, rule)
        engine.evaluate()  # first pass already sees the collected value
        assert engine.state_of("r") == STATE_FIRING

    def test_duplicate_rule_name_rejected(self, registry, clock):
        engine = engine_with(
            registry, clock, ThresholdRule("r", metric="g", threshold=1.0)
        )
        with pytest.raises(ValueError):
            engine.add_rule(RateRule("r", metric="g", threshold=0.0, window_seconds=1.0))

    def test_timeline_is_clock_stamped_and_serialisable(self, registry, clock):
        gauge = registry.gauge("g")
        rule = ThresholdRule("r", metric="g", threshold=1.0, severity="critical")
        engine = engine_with(registry, clock, rule)
        clock.advance(3.0)
        gauge.set(2.0)
        engine.evaluate()
        dicts = engine.timeline_dicts()
        assert [d["state"] for d in dicts] == [STATE_PENDING, STATE_FIRING]
        assert all(d["at"] == 3.0 for d in dicts)
        assert all(d["severity"] == "critical" for d in dicts)
        assert all(d["value"] == 2.0 for d in dicts)

    def test_negative_cost_rejected(self, registry, clock):
        with pytest.raises(ValueError):
            AlertEngine(registry, clock, evaluation_cost=-0.1)
