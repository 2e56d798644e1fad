"""Unit tests for the revocation bench internals.

The integration sweep runs in CI (``repro.harness revocation --quick``);
here the gate logic and report shape are pinned down with synthetic
data, so a regression names the exact rule it broke.
"""

from __future__ import annotations

import json

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
        report.containment[0] = contained_proxy(
            contained=False, containment_seconds=-1.0, rejection_error=""
        )
        assert any("never contained" in p for p in failed_gates(report))

    def test_late_containment_flagged(self):
        report = clean_report()
        report.containment[0] = contained_proxy(
            containment_seconds=20.0 + CONTAINMENT_SLACK + 1.0
        )
        assert any("past its" in p for p in failed_gates(report))

    def test_wrong_rejection_error_flagged(self):
        report = clean_report()
        report.containment[0] = contained_proxy(
            rejection_error="AuthenticityError"
        )
        assert any("not RevokedKeyError" in p for p in failed_gates(report))

    def test_post_containment_serve_flagged(self):
        report = clean_report()
        report.containment[0] = contained_proxy(post_containment_ok=1)
        assert any("after containment" in p for p in failed_gates(report))

    def test_spurious_failures_flagged(self):
        report = clean_report()
        report.containment[0] = contained_proxy(other_failures=2)
        assert any("non-security failures" in p for p in failed_gates(report))

    def test_overhead_ratio_gated(self):
        report = clean_report()
        report.enabled = overhead(True, mean=0.013)  # 2.6× the baseline
        assert any("overhead ratio" in p for p in failed_gates(report))

    def test_idle_feed_not_steady_state(self):
        report = clean_report()
        report.enabled = overhead(True, mean=0.007, refreshes=1)
        assert any("steady-state" in p for p in failed_gates(report))

    def test_failing_schedules_flagged(self):
        report = clean_report()
        report.baseline = overhead(False, ok=29)
        assert any("baseline schedule" in p for p in failed_gates(report))


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
        write_envelope(path, TARGET, report, criteria(report), True, 0)
        assert json.loads(path.read_text())["body"]["proxies"] == 2
