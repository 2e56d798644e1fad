"""SLO objectives, burn-rate rules, and the fast/slow alert plane."""

from __future__ import annotations

import pytest

from repro.obs import (
    STATE_FIRING,
    STATE_INACTIVE,
    STATE_PENDING,
    STATE_RESOLVED,
    AlertEngine,
    AvailabilityObjective,
    BurnRateRule,
    BurnWindow,
    LatencyObjective,
    SloPlane,
    Span,
)
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock(0.0)


def access(objective, status=200, duration=0.1, name="proxy.handle", times=1):
    """Feed *objective* *times* closed access spans."""
    for _ in range(times):
        objective.on_span(
            Span(name, 1, None, 0.0, attributes={"status": status}, end=duration)
        )


def availability(target=0.9):
    return AvailabilityObjective("avail", target=target)


class TestLatencyObjective:
    def test_counts_spans_within_threshold(self):
        objective = LatencyObjective("lat", threshold_s=0.25, target=0.99)
        for duration in (0.1, 0.2, 0.25, 0.4, 1.0):
            access(objective, duration=duration)
        access(objective, duration=0.1, name="session.fetch")  # not an access
        # Upper-inclusive: 0.25 itself is a good event.
        assert objective.counts() == (3.0, 5.0)
        assert objective.compliance() == pytest.approx(0.6)
        verdict = objective.verdict()
        assert verdict["met"] is False
        assert verdict["events"] == 5.0

    def test_no_spans_reads_zero_traffic(self):
        objective = LatencyObjective("lat", threshold_s=0.25, target=0.99)
        assert objective.counts() == (0.0, 0.0)
        # No traffic is not a breach.
        assert objective.compliance() == 1.0
        assert objective.verdict()["met"] is True

    def test_target_must_be_a_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="target"):
                LatencyObjective("lat", threshold_s=0.25, target=bad)


class TestAvailabilityObjective:
    def test_good_and_total_from_span_status(self):
        objective = availability(target=0.9)
        access(objective, status=200, times=3)
        access(objective, status=403)
        assert objective.counts() == (3.0, 4.0)
        assert objective.error_budget == pytest.approx(0.1)
        assert objective.verdict()["compliance"] == pytest.approx(0.75)


class TestBurnRateRule:
    def make(self, window=60.0, threshold=1.0, target=0.9):
        objective = availability(target)
        return objective, BurnRateRule(
            "avail:burn", objective, window_seconds=window, threshold=threshold
        )

    def burn(self, rule, now):
        return rule.value(rule.read(), now)

    def test_first_sample_measures_nothing(self):
        objective, rule = self.make()
        access(objective, status=404, times=100)
        assert self.burn(rule, now=0.0) == 0.0

    def test_burn_is_bad_fraction_over_budget(self):
        objective, rule = self.make(target=0.9)  # budget 0.1
        self.burn(rule, now=0.0)  # anchor
        access(objective, status=200, times=8)
        access(objective, status=404, times=2)
        # bad_fraction 0.2 over budget 0.1 → burning 2× tolerated rate.
        assert self.burn(rule, now=10.0) == pytest.approx(2.0)
        assert rule.breached(2.0)
        assert not rule.breached(1.0)  # strictly greater-than

    def test_quiet_window_burns_nothing(self):
        objective, rule = self.make()
        access(objective, status=404, times=5)
        self.burn(rule, now=0.0)
        # No new events since the anchor: d_total == 0.
        assert self.burn(rule, now=30.0) == 0.0

    def test_window_anchor_forgets_old_breaches(self):
        objective, rule = self.make(window=60.0, target=0.9)
        self.burn(rule, now=0.0)
        access(objective, status=404, times=10)
        assert self.burn(rule, now=10.0) > 0.0
        access(objective, status=200, times=10)
        self.burn(rule, now=30.0)
        # 100 s later the breach samples have left the 60 s window; the
        # surviving anchor already contains the errors, so the measured
        # window is clean.
        assert self.burn(rule, now=130.0) == 0.0

    def test_invalid_parameters_rejected(self):
        _, rule = self.make()
        with pytest.raises(ValueError, match="window_seconds"):
            BurnRateRule("r", rule.objective, window_seconds=0.0, threshold=1.0)
        with pytest.raises(ValueError, match="threshold"):
            BurnRateRule("r", rule.objective, window_seconds=60.0, threshold=0.0)


class TestSloPlane:
    def wired(self, clock):
        engine = AlertEngine(clock)
        return SloPlane(engine), engine

    def test_add_registers_fast_and_slow_rules(self, clock):
        plane, engine = self.wired(clock)
        objective = availability()
        fast = BurnWindow(window_seconds=60.0, threshold=10.0, severity="critical")
        slow = BurnWindow(window_seconds=300.0, threshold=2.0)
        plane.add(objective, fast=fast, slow=slow)
        assert [r.name for r in engine.rules] == [
            "avail:fast_burn", "avail:slow_burn",
        ]
        assert [r.window.seconds for r in engine.rules] == [60.0, 300.0]
        assert plane.objectives == [objective]
        with pytest.raises(ValueError, match="already registered"):
            plane.add(objective, fast=fast, slow=slow)

    def test_none_window_skipped(self, clock):
        plane, engine = self.wired(clock)
        plane.add(
            availability(),
            fast=BurnWindow(window_seconds=60.0, threshold=10.0),
            slow=None,
        )
        assert [r.name for r in engine.rules] == ["avail:fast_burn"]

    def test_breach_walks_pending_firing_resolved(self, clock):
        plane, engine = self.wired(clock)
        objective = plane.add(
            availability(target=0.75),
            fast=BurnWindow(window_seconds=60.0, threshold=1.0,
                            severity="critical"),
            slow=None,
        )
        rule = "avail:fast_burn"
        engine.evaluate()  # first sample: anchors, measures nothing
        assert engine.state_of(rule) == STATE_INACTIVE

        access(objective, status=200, times=10)
        clock.advance(10.0)
        engine.evaluate()
        assert engine.state_of(rule) == STATE_INACTIVE  # healthy traffic

        access(objective, status=404, times=10)
        clock.advance(10.0)
        engine.evaluate()  # bad fraction 0.5 over budget 0.25 → burn 2.0
        assert engine.state_of(rule) == STATE_FIRING

        clock.advance(70.0)  # breach samples age out of the window
        engine.evaluate()
        assert engine.state_of(rule) == STATE_RESOLVED
        engine.evaluate()
        assert engine.state_of(rule) == STATE_INACTIVE

        states = [e.state for e in engine.timeline if e.rule == rule]
        assert states == [STATE_PENDING, STATE_FIRING, STATE_RESOLVED]
        assert all(
            e.severity == "critical" for e in engine.timeline if e.rule == rule
        )

    def test_report_filters_timeline_and_judges_compliance(self, clock):
        plane, engine = self.wired(clock)
        objective = plane.add(
            availability(target=0.75),
            fast=BurnWindow(window_seconds=60.0, threshold=1.0),
            slow=None,
        )
        # A foreign rule's transitions must not leak into the SLO report.
        from repro.obs import ThresholdRule

        engine.add_rule(
            ThresholdRule("other_rule", read=lambda: objective.total, threshold=0.5)
        )
        engine.evaluate()
        access(objective, status=404, times=4)
        access(objective, status=200, times=4)
        clock.advance(10.0)
        engine.evaluate()

        report = plane.report()
        assert [v["objective"] for v in report["objectives"]] == ["avail"]
        verdict = report["objectives"][0]
        assert verdict["compliance"] == pytest.approx(0.5)
        assert verdict["met"] is False
        assert verdict["alerts"]["avail:fast_burn"] == STATE_FIRING
        assert report["all_met"] is False
        assert report["alert_timeline"]  # the burn transitions are there
        assert all(
            event["rule"].startswith("avail:")
            for event in report["alert_timeline"]
        )
