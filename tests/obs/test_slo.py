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
    MetricsRegistry,
    SloPlane,
)
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock(0.0)


@pytest.fixture
def registry(clock):
    return MetricsRegistry(clock=clock)


class TestLatencyObjective:
    def test_counts_from_cumulative_buckets(self, registry):
        latency = registry.histogram("access_seconds")
        for value in (0.1, 0.2, 0.25, 0.4, 1.0):
            latency.observe(value)
        objective = LatencyObjective(
            "lat", metric="access_seconds", threshold_s=0.25, target=0.99
        )
        # Buckets are upper-inclusive: 0.25 itself is a good event.
        assert objective.counts(registry) == (3.0, 5.0)
        assert objective.compliance(registry) == pytest.approx(0.6)
        verdict = objective.verdict(registry)
        assert verdict["met"] is False
        assert verdict["events"] == 5.0

    def test_missing_metric_reads_zero_traffic(self, registry):
        objective = LatencyObjective(
            "lat", metric="never_created", threshold_s=0.25, target=0.99
        )
        assert objective.counts(registry) == (0.0, 0.0)
        # No traffic is not a breach.
        assert objective.compliance(registry) == 1.0
        assert objective.verdict(registry)["met"] is True

    def test_non_histogram_metric_rejected(self, registry):
        registry.counter("requests_total")
        objective = LatencyObjective(
            "lat", metric="requests_total", threshold_s=0.25, target=0.99
        )
        with pytest.raises(ValueError, match="needs a histogram"):
            objective.counts(registry)

    def test_off_bucket_threshold_rejected(self, registry):
        registry.histogram("access_seconds")
        objective = LatencyObjective(
            "lat", metric="access_seconds", threshold_s=0.3, target=0.99
        )
        # Rounding 0.3 to a neighbouring bound would silently redefine
        # the promise; refuse instead.
        with pytest.raises(ValueError, match="not a bucket bound"):
            objective.counts(registry)

    def test_target_must_be_a_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="target"):
                LatencyObjective("lat", metric="m", threshold_s=0.25, target=bad)


class TestAvailabilityObjective:
    def test_good_and_total_from_labeled_counter(self, registry):
        requests = registry.counter("requests_total", labelnames=("outcome",))
        requests.labels(outcome="ok").inc(3)
        requests.labels(outcome="rejected").inc(1)
        objective = AvailabilityObjective(
            "avail", metric="requests_total",
            good_labels={"outcome": "ok"}, target=0.9,
        )
        assert objective.counts(registry) == (3.0, 4.0)
        assert objective.error_budget == pytest.approx(0.1)
        assert objective.verdict(registry)["compliance"] == pytest.approx(0.75)

    def test_good_labels_required(self):
        with pytest.raises(ValueError, match="good_labels"):
            AvailabilityObjective(
                "avail", metric="requests_total", good_labels={}, target=0.9
            )


class TestBurnRateRule:
    def make(self, registry, window=60.0, threshold=1.0, target=0.9):
        requests = registry.counter("requests_total", labelnames=("outcome",))
        objective = AvailabilityObjective(
            "avail", metric="requests_total",
            good_labels={"outcome": "ok"}, target=target,
        )
        return requests, BurnRateRule(
            "avail:burn", objective, window_seconds=window, threshold=threshold
        )

    def test_first_sample_measures_nothing(self, registry):
        requests, rule = self.make(registry)
        requests.labels(outcome="error").inc(100)
        assert rule.value(registry, now=0.0) == 0.0

    def test_burn_is_bad_fraction_over_budget(self, registry):
        requests, rule = self.make(registry, target=0.9)  # budget 0.1
        rule.value(registry, now=0.0)  # anchor
        requests.labels(outcome="ok").inc(8)
        requests.labels(outcome="error").inc(2)
        # bad_fraction 0.2 over budget 0.1 → burning 2× tolerated rate.
        assert rule.value(registry, now=10.0) == pytest.approx(2.0)
        assert rule.breached(2.0)
        assert not rule.breached(1.0)  # strictly greater-than

    def test_quiet_window_burns_nothing(self, registry):
        requests, rule = self.make(registry)
        requests.labels(outcome="error").inc(5)
        rule.value(registry, now=0.0)
        # No new events since the anchor: d_total == 0.
        assert rule.value(registry, now=30.0) == 0.0

    def test_window_anchor_forgets_old_breaches(self, registry):
        requests, rule = self.make(registry, window=60.0, target=0.9)
        rule.value(registry, now=0.0)
        requests.labels(outcome="error").inc(10)
        assert rule.value(registry, now=10.0) > 0.0
        requests.labels(outcome="ok").inc(10)
        rule.value(registry, now=30.0)
        # 100 s later the breach samples have left the 60 s window; the
        # surviving anchor already contains the errors, so the measured
        # window is clean.
        assert rule.value(registry, now=130.0) == 0.0

    def test_invalid_parameters_rejected(self, registry):
        _, rule = self.make(registry)
        with pytest.raises(ValueError, match="window_seconds"):
            BurnRateRule("r", rule.objective, window_seconds=0.0, threshold=1.0)
        with pytest.raises(ValueError, match="threshold"):
            BurnRateRule("r", rule.objective, window_seconds=60.0, threshold=0.0)


class TestSloPlane:
    def wired(self, clock, registry):
        engine = AlertEngine(registry, clock)
        return SloPlane(registry, engine), engine

    def test_add_registers_fast_and_slow_rules(self, clock, registry):
        plane, engine = self.wired(clock, registry)
        objective = AvailabilityObjective(
            "avail", metric="requests_total",
            good_labels={"outcome": "ok"}, target=0.9,
        )
        fast = BurnWindow(window_seconds=60.0, threshold=10.0, severity="critical")
        slow = BurnWindow(window_seconds=300.0, threshold=2.0)
        plane.add(objective, fast=fast, slow=slow)
        assert [r.name for r in engine.rules] == [
            "avail:fast_burn", "avail:slow_burn",
        ]
        assert [r.window_seconds for r in engine.rules] == [60.0, 300.0]
        assert plane.objectives == [objective]
        with pytest.raises(ValueError, match="already registered"):
            plane.add(objective, fast=fast, slow=slow)

    def test_none_window_skipped(self, clock, registry):
        plane, engine = self.wired(clock, registry)
        plane.add(
            AvailabilityObjective(
                "avail", metric="requests_total",
                good_labels={"outcome": "ok"}, target=0.9,
            ),
            fast=BurnWindow(window_seconds=60.0, threshold=10.0),
            slow=None,
        )
        assert [r.name for r in engine.rules] == ["avail:fast_burn"]

    def test_breach_walks_pending_firing_resolved(self, clock, registry):
        plane, engine = self.wired(clock, registry)
        requests = registry.counter("requests_total", labelnames=("outcome",))
        plane.add(
            AvailabilityObjective(
                "avail", metric="requests_total",
                good_labels={"outcome": "ok"}, target=0.75,
            ),
            fast=BurnWindow(window_seconds=60.0, threshold=1.0,
                            severity="critical"),
            slow=None,
        )
        rule = "avail:fast_burn"
        engine.evaluate()  # first sample: anchors, measures nothing
        assert engine.state_of(rule) == STATE_INACTIVE

        requests.labels(outcome="ok").inc(10)
        clock.advance(10.0)
        engine.evaluate()
        assert engine.state_of(rule) == STATE_INACTIVE  # healthy traffic

        requests.labels(outcome="error").inc(10)
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

    def test_report_filters_timeline_and_judges_compliance(
        self, clock, registry
    ):
        plane, engine = self.wired(clock, registry)
        requests = registry.counter("requests_total", labelnames=("outcome",))
        plane.add(
            AvailabilityObjective(
                "avail", metric="requests_total",
                good_labels={"outcome": "ok"}, target=0.75,
            ),
            fast=BurnWindow(window_seconds=60.0, threshold=1.0),
            slow=None,
        )
        # A foreign rule's transitions must not leak into the SLO report.
        from repro.obs import ThresholdRule

        engine.add_rule(
            ThresholdRule("other_rule", metric="requests_total", threshold=0.5)
        )
        engine.evaluate()
        requests.labels(outcome="error").inc(4)
        requests.labels(outcome="ok").inc(4)
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
