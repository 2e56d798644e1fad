"""Unit tests for the recovery bench internals.

The kill/restart sweep itself runs in CI (``repro.harness recovery
--quick``); here the gate logic and report shape are pinned down with
synthetic data, so a regression names the exact rule it broke.
"""

from __future__ import annotations

import json

from repro.harness.kernel import problems as failed_gates, write_envelope
from repro.harness.recovery import (
    TARGET,
    RecoveryReport,
    ReplicaRecovery,
    RevocationResume,
    TamperFailClosed,
    TornTail,
    criteria,
)


def clean_report(**overrides) -> RecoveryReport:
    report = RecoveryReport(
        replica=ReplicaRecovery(
            documents=2,
            recovered_replicas=2,
            reverified_replicas=2,
            naming_records_recovered=2,
            location_addresses_recovered=2,
            restart_cycles=1,
            accesses_after_restart=4,
            accesses_ok=4,
            content_intact=True,
            post_restart_publish_ok=True,
        ),
        revocation=RevocationResume(
            feed_head_before=1,
            feed_head_after=1,
            feed_statements_recovered=1,
            cursor_statements_recovered=1,
            revoked_rejected_from_disk=True,
            refreshes_at_rejection=0,
            rejection_error="RevokedKeyError",
            staleness_reset=True,
            clean_access_ok_after_sync=True,
            head_after_sync=1,
            regression_detected=True,
        ),
        torn=TornTail(
            torn_bytes_dropped=108,
            recovered_replicas=2,
            expected_replicas=2,
            accesses_ok=4,
            accesses_after_restart=4,
        ),
        tamper=TamperFailClosed(
            failed_closed=True, error_type="RecoveryIntegrityError"
        ),
    )
    for key, value in overrides.items():
        section, _, attr = key.partition("__")
        setattr(getattr(report, section), attr, value)
    return report


def problems(**overrides):
    return failed_gates(criteria(clean_report(**overrides)))


class TestGates:
    def test_clean_report_passes(self):
        assert problems() == []

    def test_lost_replica_fails(self):
        assert any("recovered 1 of 2 replicas" in p for p in problems(
            replica__recovered_replicas=1
        ))

    def test_unverified_replica_fails(self):
        assert any("re-verified" in p for p in problems(
            replica__reverified_replicas=1
        ))

    def test_naming_shortfall_fails(self):
        assert any("naming recovered" in p for p in problems(
            replica__naming_records_recovered=0
        ))

    def test_location_shortfall_fails(self):
        assert any("location recovered" in p for p in problems(
            replica__location_addresses_recovered=1
        ))

    def test_failed_access_fails(self):
        assert any("accesses" in p for p in problems(replica__accesses_ok=3))

    def test_content_mismatch_fails(self):
        assert any("byte-compare" in p for p in problems(
            replica__content_intact=False
        ))

    def test_broken_write_path_fails(self):
        assert any("write path" in p for p in problems(
            replica__post_restart_publish_ok=False
        ))

    def test_feed_head_change_fails(self):
        assert any("feed head changed" in p for p in problems(
            revocation__feed_head_after=0
        ))

    def test_fail_open_window_fails(self):
        assert any("fail-open window" in p for p in problems(
            revocation__refreshes_at_rejection=1
        ))

    def test_served_revoked_fails(self):
        assert any("revoked OID" in p for p in problems(
            revocation__revoked_rejected_from_disk=False
        ))

    def test_wrong_rejection_error_fails(self):
        assert any("RevokedKeyError" in p for p in problems(
            revocation__rejection_error="RevocationStalenessError"
        ))

    def test_recovered_view_vouching_fails(self):
        assert any("must not vouch" in p for p in problems(
            revocation__staleness_reset=False
        ))

    def test_checker_behind_feed_fails(self):
        assert any("behind" in p for p in problems(revocation__head_after_sync=0))

    def test_missed_regression_fails(self):
        assert any("regression" in p for p in problems(
            revocation__regression_detected=False
        ))

    def test_torn_tail_costing_replicas_fails(self):
        assert any("torn" in p.lower() for p in problems(
            torn__recovered_replicas=1
        ))

    def test_torn_scenario_dropping_nothing_fails(self):
        assert any("scenario broken" in p for p in problems(
            torn__torn_bytes_dropped=0
        ))

    def test_accepted_tamper_fails(self):
        assert any("unproven bytes" in p for p in problems(
            tamper__failed_closed=False
        ))


class TestReportShape:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "BENCH_recovery.json"
        report = clean_report()
        write_envelope(path, TARGET, report, criteria(report), True, 0)
        data = json.loads(path.read_text())["body"]
        assert data["replica"]["recovered_replicas"] == 2
        assert data["revocation"]["refreshes_at_rejection"] == 0
        assert data["torn"]["torn_bytes_dropped"] == 108
        assert data["tamper"]["failed_closed"] is True

    def test_digest_appears_in_bench_summary(self, tmp_path):
        from repro.harness.report import (
            aggregate_bench_reports,
            render_bench_summary,
        )

        report = clean_report(revocation__refreshes_at_rejection=1)
        write_envelope(
            tmp_path / "BENCH_recovery.json", TARGET, report, criteria(report), True, 0
        )
        summary = render_bench_summary(aggregate_bench_reports(tmp_path))
        assert "revocation.rejected_from_disk" in summary
        assert "FAIL: rejection needed 1 feed RPCs" in summary
        assert "1 reports, 20 criteria, 1 failing" in summary

    def test_digest_absent_without_report(self, tmp_path):
        from repro.harness.report import (
            aggregate_bench_reports,
            render_bench_summary,
        )

        summary = render_bench_summary(aggregate_bench_reports(tmp_path))
        assert "recovery" not in summary
