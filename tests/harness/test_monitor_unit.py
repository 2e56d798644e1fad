"""Unit tests for the monitor-plane bench internals.

The integration run lives in CI (``repro.harness monitor --quick``);
here the gate logic and report shape are pinned with synthetic data, so
a regression names the exact rule it broke.
"""

from __future__ import annotations

import json

from repro.harness.kernel import problems, write_envelope
from repro.harness.monitor import (
    CACHE_TTL,
    QUARANTINE_SECONDS,
    SCRAPE_INTERVAL,
    TARGET,
    FaultTimes,
    MonitorReport,
    criteria,
)
from repro.harness.report import render_bench_summary


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
        harness_access_seconds=50.0,
        registry_access_seconds=50.2,
        idle_text_identical=True,
        idle_json_identical=True,
        series_count=60,
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
        assert any("never reached resolved_at" in p for p in failed_gates(report))

    def test_out_of_order_timeline_flagged(self):
        report = clean_report()
        # The staleness alert firing before the circuit alert resolves.
        report.fire_resolve["revocation_staleness_high"]["fired_at"] = 60.0
        report.faults.feed_killed_at = 55.0
        assert any("out of order" in p for p in failed_gates(report))

    def test_slow_detection_flagged(self):
        report = clean_report()
        bound = CACHE_TTL + 3 * SCRAPE_INTERVAL
        report.fire_resolve["replica_circuit_open"]["fired_at"] = (
            report.faults.replica_killed_at + bound + 1.0
        )
        assert any("circuit_fire_after_kill" in p for p in failed_gates(report))

    def test_negative_latency_flagged(self):
        report = clean_report()
        report.fire_resolve["replica_circuit_open"]["fired_at"] = 10.0
        assert any("negative latency" in p for p in failed_gates(report))

    def test_consistency_drift_flagged(self):
        report = clean_report(registry_access_seconds=52.0)  # 4% off
        assert any("consistency ratio" in p for p in failed_gates(report))

    def test_nondeterministic_scrapes_flagged(self):
        assert any(
            "text scrapes differ" in p
            for p in failed_gates(clean_report(idle_text_identical=False))
        )
        assert any(
            "JSON snapshots differ" in p
            for p in failed_gates(clean_report(idle_json_identical=False))
        )

    def test_stuck_alert_flagged(self):
        report = clean_report(final_firing=["revocation_rejections"])
        assert any("still firing" in p for p in failed_gates(report))

    def test_missing_rejections_flagged(self):
        assert any(
            "no revocation rejections" in p
            for p in failed_gates(clean_report(rejected=0))
        )

    def test_spurious_failures_flagged(self):
        assert any(
            "non-revocation failures" in p
            for p in failed_gates(clean_report(other_failures=2))
        )

    def test_missing_cadence_flagged(self):
        assert any(
            "cadence did not run" in p
            for p in failed_gates(clean_report(scrapes=3))
        )


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

    def test_consistency_ratio_zero_without_accesses(self):
        assert clean_report(harness_access_seconds=0.0).consistency_ratio == 0.0

    def test_to_dict_is_wire_clean(self):
        data = clean_report().to_dict()
        assert data["consistency_ratio"] > 0
        assert data["accesses"] == 120 and data["faults"]["feed_killed_at"] == 100.0
        assert len(data["timeline"]) == 6
        json.dumps(data)

    def test_write_report_roundtrips(self, tmp_path):
        path = tmp_path / "BENCH_monitor_plane.json"
        report = clean_report()
        write_envelope(path, TARGET, report, criteria(report), True, 0)
        assert json.loads(path.read_text())["body"]["scrapes"] == 40


class TestAggregateSection:
    """The monitor plane's rows in the ``bench-report`` table."""

    def test_monitor_plane_section_renders_timeline(self, tmp_path):
        report = clean_report(final_firing=["revocation_rejections"])
        envelope = write_envelope(
            tmp_path / "m.json", TARGET, report, criteria(report), True, 0
        )
        section = render_bench_summary({"monitor_plane": envelope})
        for rule in report.rules:
            assert f"reached[{rule}.fired_at]" in section
        assert "latency[circuit_fire_after_kill]" in section
        assert "FAIL: alerts still firing at end of run" in section

    def test_monitor_plane_section_tolerates_partial_report(self):
        section = render_bench_summary({"monitor_plane": {"timeline": []}})
        assert "no criteria envelope" in section
