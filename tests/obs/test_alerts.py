"""The SLO alert engine: rule math and the pending/firing lifecycle."""

from __future__ import annotations

import pytest

from repro.obs import (
    STATE_FIRING,
    STATE_INACTIVE,
    STATE_PENDING,
    STATE_RESOLVED,
    AlertEngine,
    RateRule,
    ThresholdRule,
)
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock(0.0)


class Reading:
    """A settable number and its reader, as a component state stands in."""

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def __call__(self) -> float:
        return self.value


def engine_with(clock, *rules, cost=0.0):
    engine = AlertEngine(clock, evaluation_cost=cost)
    for rule in rules:
        engine.add_rule(rule)
    return engine


class TestThresholdRule:
    def test_value_is_what_the_reader_reads(self, clock):
        rule = ThresholdRule("r", read=Reading(2.0), threshold=1.5)
        assert rule.value(rule.read(), clock.now()) == 2.0
        assert rule.breached(2.0)
        assert not rule.breached(1.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", read=Reading(), threshold=1.0, op="!=")


class TestRateRule:
    def test_increase_over_trailing_window(self, clock):
        total = Reading()
        rule = RateRule("r", read=total, threshold=0.0, window_seconds=30.0)
        assert rule.value(total(), clock.now()) == 0.0  # first-ever sample
        clock.advance(10.0)
        total.value += 4
        assert rule.value(total(), clock.now()) == 4.0
        clock.advance(35.0)  # the burst leaves the window
        assert rule.value(total(), clock.now()) == 0.0

    def test_anchor_sample_retained_at_horizon(self, clock):
        total = Reading()
        rule = RateRule("r", read=total, threshold=0.0, window_seconds=10.0)
        rule.value(total(), clock.now())
        for _ in range(5):
            clock.advance(5.0)
            total.value += 1
            rule.value(total(), clock.now())
        # Increase over the last 10 s is the two most recent increments.
        assert rule.value(total(), clock.now()) == 2.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            RateRule("r", read=Reading(), threshold=0.0, window_seconds=0.0)


class TestEngineLifecycle:
    def test_fires_immediately_without_hold(self, clock):
        reading = Reading()
        rule = ThresholdRule("breach", read=reading, threshold=1.0, op=">=")
        engine = engine_with(clock, rule)
        engine.evaluate()
        assert engine.state_of("breach") == STATE_INACTIVE
        reading.value = 2.0
        transitions = engine.evaluate()
        assert [t.state for t in transitions] == [STATE_PENDING, STATE_FIRING]
        assert engine.firing() == ["breach"]
        reading.value = 0.0
        transitions = engine.evaluate()
        assert [t.state for t in transitions] == [STATE_RESOLVED]
        engine.evaluate()
        assert engine.state_of("breach") == STATE_INACTIVE

    def test_refire_after_resolution(self, clock):
        reading = Reading()
        rule = ThresholdRule("flap", read=reading, threshold=1.0, op=">=")
        engine = engine_with(clock, rule)
        for value in (2.0, 0.0, 2.0):
            reading.value = value
            clock.advance(1.0)
            engine.evaluate()
        assert engine.state_of("flap") == STATE_FIRING
        times = engine.fire_resolve_times()["flap"]
        assert times["fired_at"] is not None and times["resolved_at"] is not None
        # First fire, last resolve.
        assert times["fired_at"] < times["resolved_at"]

    def test_evaluation_cost_charged_to_clock(self, clock):
        rules = [ThresholdRule(f"r{i}", read=Reading(), threshold=1.0) for i in range(3)]
        engine = engine_with(clock, *rules, cost=0.5)
        engine.evaluate()
        assert clock.now() == pytest.approx(1.5)  # 3 rules x 0.5 s

    def test_inputs_read_before_evaluation_is_charged(self, clock):
        """A reading that ages with the clock (a feed view's staleness)
        must not see the monitor's own evaluation cost."""
        rules = [
            ThresholdRule(f"r{i}", read=clock.now, threshold=3.5) for i in range(2)
        ]
        engine = engine_with(clock, *rules, cost=0.5)
        clock.advance(3.0)
        engine.evaluate()  # read at 3.0, then charged 2 x 0.5 s
        assert clock.now() == 4.0
        assert engine.firing() == []

    def test_duplicate_rule_name_rejected(self, clock):
        engine = engine_with(clock, ThresholdRule("r", read=Reading(), threshold=1.0))
        with pytest.raises(ValueError):
            engine.add_rule(RateRule("r", read=Reading(), threshold=0.0, window_seconds=1.0))

    def test_timeline_is_clock_stamped_and_serialisable(self, clock):
        reading = Reading()
        rule = ThresholdRule("r", read=reading, threshold=1.0, severity="critical")
        engine = engine_with(clock, rule)
        clock.advance(3.0)
        reading.value = 2.0
        engine.evaluate()
        dicts = engine.timeline_dicts()
        assert [d["state"] for d in dicts] == [STATE_PENDING, STATE_FIRING]
        assert all(d["at"] == 3.0 for d in dicts)
        assert all(d["severity"] == "critical" for d in dicts)
        assert all(d["value"] == 2.0 for d in dicts)

    def test_negative_cost_rejected(self, clock):
        with pytest.raises(ValueError):
            AlertEngine(clock, evaluation_cost=-0.1)
