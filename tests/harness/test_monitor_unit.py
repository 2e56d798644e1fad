"""The monitor-plane bench: its gate logic and report shape, pinned with
synthetic data so a regression names the exact rule it broke; and the
alert timeline and workload health, asserted on the session's shared
run.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.kernel import problems, write_envelope
from repro.harness.monitor import (
    ALERT_TRANSITIONS,
    CACHE_TTL,
    QUARANTINE_SECONDS,
    SCRAPE_INTERVAL,
    TARGET,
    FaultTimes,
    MonitorReport,
    _MonitorWorld,
    criteria,
)
from repro.harness.report import render_bench_summary
from repro.net.health import CircuitState


def failed_gates(report: MonitorReport):
    return problems(criteria(report))


def clean_report(**overrides) -> MonitorReport:
    faults = FaultTimes(
        replica_killed_at=20.0,
        replica_restored_at=50.0,
        feed_killed_at=100.0,
        feed_restored_at=160.0,
        revocation_published_at=200.0,
        revoked_doc_abandoned_at=240.0,
    )
    fire_resolve = {
        "replica_circuit_open": {"fired_at": 30.0, "resolved_at": 75.0},
        "revocation_staleness_high": {"fired_at": 150.0, "resolved_at": 165.0},
        "revocation_rejections": {"fired_at": 230.0, "resolved_at": 280.0},
    }
    timeline = [
        {"rule": rule, "state": state, "at": stamps[key], "value": 1.0,
         "severity": "warning"}
        for rule, stamps in fire_resolve.items()
        for state, key in (("firing", "fired_at"), ("resolved", "resolved_at"))
    ]
    timeline.sort(key=lambda event: event["at"])
    fields = dict(
        scrape_interval=SCRAPE_INTERVAL,
        scrapes=40,
        rules=list(fire_resolve),
        timeline=timeline,
        fire_resolve=fire_resolve,
        faults=faults,
        accesses=120,
        ok=110,
        rejected=10,
        other_failures=0,
        final_firing=[],
    )
    fields.update(overrides)
    return MonitorReport(**fields)


class TestGates:
    def test_clean_report_passes(self):
        assert failed_gates(clean_report()) == []

    def test_missing_transition_flagged(self):
        report = clean_report()
        report.fire_resolve["replica_circuit_open"]["resolved_at"] = None
        assert failed_gates(report) == [
            "circuit_resolve_after_restore: infs exceeds bound 35.0s"
        ]

    def test_slow_detection_flagged(self):
        report = clean_report()
        bound = CACHE_TTL + 3 * SCRAPE_INTERVAL
        report.fire_resolve["replica_circuit_open"]["fired_at"] = (
            report.faults.replica_killed_at + bound + 1.0
        )
        assert any("circuit_fire_after_kill" in p for p in failed_gates(report))


class TestReportShape:
    def test_alert_latencies_measure_against_faults(self):
        latencies = clean_report().alert_latencies()
        assert latencies["circuit_fire_after_kill"] == 10.0
        assert latencies["circuit_resolve_after_restore"] == 25.0
        assert latencies["rejections_resolve_after_abandon"] == 40.0
        # Resolution within quarantine + cadence slack, by construction.
        assert latencies["circuit_resolve_after_restore"] <= (
            QUARANTINE_SECONDS + 3 * SCRAPE_INTERVAL
        )

    def test_latency_none_when_fault_never_injected(self):
        report = clean_report()
        report.faults.replica_killed_at = -1.0
        assert report.alert_latencies()["circuit_fire_after_kill"] is None

    def test_to_dict_is_wire_clean(self):
        data = clean_report().to_dict()
        assert data["alert_latencies"]["circuit_fire_after_kill"] == 10.0
        assert data["accesses"] == 120 and data["faults"]["feed_killed_at"] == 100.0
        assert len(data["timeline"]) == 6
        json.dumps(data)

    def test_write_report_roundtrips(self, tmp_path):
        path = tmp_path / "BENCH_monitor_plane.json"
        report = clean_report()
        write_envelope(path, TARGET, report, criteria(report), 0)
        assert json.loads(path.read_text())["body"]["scrapes"] == 40


class TestAggregateSection:
    """The monitor plane's rows in the ``bench-report`` table."""

    def test_monitor_plane_section_renders_timeline(self, tmp_path):
        report = clean_report()
        report.fire_resolve["revocation_rejections"]["resolved_at"] = 300.0
        envelope = write_envelope(tmp_path / "m.json", TARGET, report, criteria(report), 0)
        section = render_bench_summary({"monitor_plane": envelope})
        for key in ALERT_TRANSITIONS:
            assert f"latency[{key}]" in section
        assert "FAIL: rejections_resolve_after_abandon: 60.0s exceeds bound 45.0s" in section

    def test_monitor_plane_section_tolerates_partial_report(self):
        section = render_bench_summary({"monitor_plane": {"timeline": []}})
        assert "no criteria envelope" in section


class TestBenchRun:
    """The alert timeline and the workload, asserted on the session's
    shared run (the gates threshold only the six latencies)."""

    @pytest.fixture(scope="class")
    def report(self, bench_report):
        return bench_report("monitor")

    def test_alerts_fire_and_resolve_in_injection_order(self, report):
        stamps = [
            report.fire_resolve[rule][transition]
            for rule, transition, _, _ in ALERT_TRANSITIONS.values()
        ]
        assert None not in stamps and stamps == sorted(stamps)
        for key, latency in report.alert_latencies().items():
            assert latency >= 0, key

    def test_workload_fails_only_on_the_revoked_document(self, report):
        assert report.final_firing == []
        assert report.rejected > 0
        assert report.other_failures == 0
        assert report.scrapes >= 10


class TestRuleReaders:
    """What the three rules read, straight from the two client stacks."""

    REPLICA = "globedoc/replica://canardo.inria.fr/objectserver#r1"
    FEED = "ginger.cs.vu.nl/objectserver"

    @pytest.fixture
    def world(self):
        return _MonitorWorld(seed=0)

    def open_breaker(self, world, address):
        tracker = world.stacks[0].binder.health
        for _ in range(tracker.failure_threshold):
            tracker.record_failure(address)
        return tracker

    def test_circuit_reader_ignores_service_endpoints(self, world):
        self.open_breaker(world, self.FEED)
        assert world._worst_replica_circuit() == 0.0
        self.open_breaker(world, self.REPLICA)
        assert world._worst_replica_circuit() == 2.0

    def test_circuit_reader_expires_every_quarantine(self, world):
        """Reading a breaker applies its quarantine expiry, so the reader
        visits service endpoints too before it filters them out."""
        tracker = self.open_breaker(world, self.FEED)
        self.open_breaker(world, self.REPLICA)
        world.clock.advance(QUARANTINE_SECONDS)
        assert world._worst_replica_circuit() == 1.0
        assert tracker.record(self.FEED).state is CircuitState.HALF_OPEN

    def test_feed_readers_are_floats_before_any_sync(self, world):
        assert world._worst_staleness() == -1.0
        rejections = world._rejections()
        assert rejections == 0.0 and isinstance(rejections, float)
