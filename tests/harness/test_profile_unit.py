"""Profile-bench gates and report shape.

The session's shared quick run (the same configuration CI executes)
backs every assertion; mutation tests then pin that each gate actually
detects the regression it names.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.harness.kernel import problems, write_envelope
from repro.harness.profile_bench import (
    ALLOWED_ROOTS,
    EXPECTED_CATEGORIES,
    EXPECTED_SPANS,
    TARGET,
    criteria,
)
from repro.harness.report import render_bench_summary


@pytest.fixture(scope="module")
def report(quick_report):
    return quick_report("profile")


def failed_gates(report: dict):
    return problems(criteria(report))


class TestQuickRunPassesGates:
    def test_no_problems(self, report):
        assert failed_gates(report) == []

    def test_stitching_is_total(self, report):
        stitching = report["stitching"]
        assert stitching["stitch_rate"] == 1.0
        assert stitching["orphan_spans"] == 0
        assert stitching["skewed_spans"] == 0
        assert stitching["spans_dropped"] == 0
        assert stitching["duplicate_refs"] == 0
        assert stitching["cross_process_spans"] > 0
        assert stitching["cross_process_traces"] > 0

    def test_every_root_is_a_workload_entry_point(self, report):
        assert report["bad_roots"] == []
        assert set(report["roots"]) <= ALLOWED_ROOTS

    def test_expected_span_families_present(self, report):
        for name in EXPECTED_SPANS:
            assert report["phases"][name]["count"] > 0, name

    def test_attribution_closes_and_covers_categories(self, report):
        profile = report["profile"]
        assert profile["traces_profiled"] > 0
        assert profile["rootless_traces"] == 0
        assert report["max_relative_attribution_error"] <= 0.01
        for category in EXPECTED_CATEGORIES:
            assert category in profile["categories"], category
        fractions = sum(c["fraction"] for c in profile["categories"].values())
        assert fractions == pytest.approx(1.0)
        assert len(profile["hottest"]) == 5

    def test_burn_alert_walked_full_lifecycle(self, report):
        states = [
            event["state"]
            for event in report["slo"]["alert_timeline"]
            if event["rule"] == "access_latency:fast_burn"
        ]
        for state in ("pending", "firing", "resolved"):
            assert state in states
        assert states.index("firing") < states.index("resolved")

    def test_report_is_json_serialisable(self, report, tmp_path):
        out = tmp_path / "BENCH_profile.json"
        write_envelope(out, TARGET, report, criteria(report), True, 0)
        assert json.loads(out.read_text())["name"] == "profile"


class TestGatesDetectRegressions:
    def test_stitch_rate_below_one_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["stitching"]["stitch_rate"] = 0.98
        assert any("stitch rate" in p for p in failed_gates(broken))

    def test_dropped_spans_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["stitching"]["spans_dropped"] = 3
        assert any("spans_dropped" in p for p in failed_gates(broken))

    def test_bad_root_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["bad_roots"] = ["server.handle (server-ginger:9)"]
        assert any("trace roots" in p for p in failed_gates(broken))

    def test_missing_span_family_flagged(self, report):
        broken = copy.deepcopy(report)
        del broken["phases"]["gossip.run"]
        assert any("gossip.run" in p for p in failed_gates(broken))

    def test_attribution_error_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["max_relative_attribution_error"] = 0.05
        assert any("attribution" in p for p in failed_gates(broken))

    def test_missing_category_flagged(self, report):
        broken = copy.deepcopy(report)
        del broken["profile"]["categories"]["storage"]
        assert any("'storage'" in p for p in failed_gates(broken))

    def test_incomplete_alert_lifecycle_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["slo"]["alert_timeline"] = [
            event
            for event in broken["slo"]["alert_timeline"]
            if not (
                event["rule"] == "access_latency:fast_burn"
                and event["state"] == "resolved"
            )
        ]
        assert any("pending" in p for p in failed_gates(broken))

    def test_degraded_reads_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["workload"]["read_ok"] = broken["workload"]["reads"] - 1
        assert any("reads degraded" in p for p in failed_gates(broken))


class TestRendering:
    def test_bench_summary_includes_profile_section(self, report, tmp_path):
        envelope = write_envelope(
            tmp_path / "p.json", TARGET, report, criteria(report), True, 0
        )
        summary = render_bench_summary({"profile": envelope})
        assert "stitch_rate" in summary and "attribution_error" in summary
        assert "pipelined_attempt_share" in summary
        assert " 0 failing" in summary

    def test_section_absent_without_report(self):
        assert "profile" not in render_bench_summary({})
        assert "unreadable" in render_bench_summary({"profile": {"error": "missing"}})
