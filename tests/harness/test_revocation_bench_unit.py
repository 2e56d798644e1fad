"""The revocation bench: its gate logic and report shape, pinned with
synthetic data so a regression names the exact rule it broke; and what
the run counts but does not gate, asserted on the session's shared run.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.harness.kernel import problems, write_envelope
from repro.harness.revocation_bench import (
    CONTAINMENT_SLACK,
    TARGET,
    OverheadPoint,
    ProxyContainment,
    RevocationReport,
    criteria,
)


def failed_gates(report: RevocationReport):
    return problems(criteria(report))


def contained_proxy(
    host="canardo.inria.fr",
    max_staleness=20.0,
    containment_seconds=12.0,
    rejection_error="RevokedKeyError",
    **overrides,
) -> ProxyContainment:
    fields = dict(
        host=host,
        max_staleness=max_staleness,
        poll_interval=max_staleness / 2.0,
        contained=True,
        containment_seconds=containment_seconds,
        rejection_error=rejection_error,
        stale_serves=3,
        feed_refreshes=4,
    )
    fields.update(overrides)
    return ProxyContainment(**fields)


def overhead(enabled, mean=0.005, ok=30, refreshes=3) -> OverheadPoint:
    return OverheadPoint(
        enabled=enabled,
        accesses=30,
        ok=ok,
        mean_access_seconds=mean,
        p95_access_seconds=mean * 1.5,
        feed_refreshes=refreshes if enabled else 0,
    )


def clean_report() -> RevocationReport:
    return RevocationReport(
        proxies=2,
        feed_sites_reached=["root/europe/vu"],
        containment=[
            contained_proxy(containment_seconds=9.0),
            contained_proxy(
                host="sporty.cs.vu.nl", max_staleness=30.0,
                containment_seconds=16.0,
            ),
        ],
        baseline=overhead(False, mean=0.005),
        enabled=overhead(True, mean=0.007),
    )


class TestGates:
    def test_clean_report_passes(self):
        assert failed_gates(clean_report()) == []

    def test_uncontained_proxy_flagged(self):
        report = clean_report()
        report.containment[0] = ProxyContainment(
            host="canardo.inria.fr", max_staleness=20.0, poll_interval=10.0
        )
        assert report.containment[0].containment_seconds == math.inf
        assert failed_gates(report) == [
            "containment took infs on canardo.inria.fr, past its 20s staleness window"
        ]

    def test_late_containment_flagged(self):
        report = clean_report()
        report.containment[0] = contained_proxy(
            containment_seconds=20.0 + CONTAINMENT_SLACK + 1.0
        )
        assert any("past its" in p for p in failed_gates(report))

    def test_overhead_ratio_gated(self):
        report = clean_report()
        report.enabled = overhead(True, mean=0.013)  # 2.6× the baseline
        assert any("overhead ratio" in p for p in failed_gates(report))

    def test_idle_feed_not_steady_state(self):
        report = clean_report()
        report.enabled = overhead(True, mean=0.007, refreshes=1)
        assert any("steady-state" in p for p in failed_gates(report))


class TestReportShape:
    def test_to_dict_summarises_percentiles(self):
        data = clean_report().to_dict()
        summary = data["containment_summary"]
        assert summary["contained"] == 2 and summary["proxies"] == 2
        assert summary["p50_seconds"] == 12.5
        assert summary["max_seconds"] == 16.0
        assert data["overhead_ratio"] == 1.4
        json.dumps(data)  # wire-clean

    def test_empty_containment_summary(self):
        report = RevocationReport(proxies=0, feed_sites_reached=[])
        data = report.to_dict()
        assert data["containment_summary"] == {"contained": 0, "proxies": 0}
        assert data["overhead_ratio"] == 0.0

    def test_write_report_roundtrips(self, tmp_path):
        path = tmp_path / "BENCH_revocation.json"
        report = clean_report()
        write_envelope(path, TARGET, report, criteria(report), 0)
        assert json.loads(path.read_text())["body"]["proxies"] == 2


class TestBenchRun:
    """What the containment sweep and the overhead schedules count,
    asserted on the session's shared run (the gates threshold only the
    latencies and the overhead ratio)."""

    @pytest.fixture(scope="class")
    def report(self, bench_report):
        return bench_report("revocation")

    def test_every_rejection_is_revoked_key_error(self, report):
        for proxy in report.containment:
            assert proxy.contained, proxy.host
            assert proxy.rejection_error == "RevokedKeyError", proxy.host

    def test_containment_is_permanent(self, report):
        for proxy in report.containment:
            assert proxy.post_containment_ok == 0, proxy.host

    def test_no_non_security_failure(self, report):
        for proxy in report.containment:
            assert proxy.other_failures == 0, proxy.host

    def test_overhead_schedules_fully_served(self, report):
        for point in (report.baseline, report.enabled):
            assert point.ok == point.accesses > 0, point
