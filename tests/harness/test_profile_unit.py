"""The profile bench: its two gates, and everything else its run
records — stitching, roots, span families, critical-path categories,
the rejection census, workload health.

The session's shared run (the one ``BENCH_profile.json`` holds) backs
every assertion; mutation tests then pin that each gate actually
detects the regression it names.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.harness.kernel import problems, write_envelope
from repro.harness.profile_bench import TARGET, criteria
from repro.harness.report import render_bench_summary

#: Every trace root must be one of these — a client access, a writer
#: publish, an anti-entropy round, or a revocation-feed poll. Any other
#: root means a server-side span failed to join its causing trace.
ALLOWED_ROOTS = {"proxy.handle", "session.publish", "gossip.run", "revocation.refresh"}

#: Span families the mixed workload must produce somewhere in the fleet
#: — one per instrumented pipeline layer, plus the server-side families
#: that only a stitched trace can attribute. A missing name means an
#: instrumentation point was unplugged.
EXPECTED_SPANS = (
    "proxy.handle",
    "session.establish",
    "session.fetch",
    "bind.resolve",
    "bind.locate",
    "check.public_key",
    "check.certificate",
    "check.consistency",
    "check.element_hash",
    "check.freshness",
    "cache.get",
    "cache.put",
    "rpc.call",
    "server.handle",
    "gossip.run",
    "versioning.put_delta",
    "storage.journal",
    "revocation.refresh",
)

#: Adversarial probes: every violated property must be rejected by its
#: own check's span (name → expected error type).
EXPECTED_REJECTIONS = {
    "check.element_hash": "AuthenticityError",
    "check.consistency": "ConsistencyError",
    "check.freshness": "FreshnessError",
}

#: Cost categories the critical-path aggregate must cover.
EXPECTED_CATEGORIES = ("cache", "crypto", "merge", "proxy", "rpc", "storage")


@pytest.fixture(scope="module")
def report(bench_report):
    return bench_report("profile")


def failed_gates(report: dict):
    return problems(criteria(report))


class TestBenchRun:
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
        assert set(report["roots"]) <= ALLOWED_ROOTS

    def test_expected_span_families_present(self, report):
        phases = report["phases"]
        for name in EXPECTED_SPANS:
            assert phases[name]["count"] > 0, name
            assert phases[name]["p50_s"] <= phases[name]["p95_s"] <= phases[name]["max_s"]

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

    def test_honest_workload_fully_succeeds(self, report):
        workload = report["workload"]
        assert workload["read_ok"] == workload["reads"]
        assert workload["recovery_ok"] == workload["recovery_requests"]
        assert workload["converged"]
        assert workload["gossip_pulled"] + workload["gossip_pushed"] > 0

    def test_rejection_census_matches_probes(self, report):
        rejections = report["security_rejections"]
        for span_name, error_type in EXPECTED_REJECTIONS.items():
            assert error_type in rejections.get(span_name, {}), (
                f"{span_name} did not reject with {error_type}: {rejections}"
            )
        assert set(report["workload"]["probes"].values()) == {
            "AuthenticityError", "ConsistencyError", "FreshnessError"
        }

    def test_report_is_json_serialisable(self, report, tmp_path):
        out = tmp_path / "BENCH_profile.json"
        write_envelope(out, TARGET, report, criteria(report), 0)
        loaded = json.loads(out.read_text())
        assert loaded["name"] == "profile"
        assert loaded["body"]["security_rejections"] == report["security_rejections"]


def test_span_time_reproduces_access_metrics():
    """The property the former span/metrics consistency gate stood in
    for, stated directly on the profile bench's read stack (verify
    cache, content cache, revocation feed): the phases derived from an
    access's spans account for its ``proxy.handle`` time."""
    from repro.crypto.verifycache import VerificationCache
    from repro.harness.experiment import Testbed
    from repro.obs import RingBufferSink, Tracer
    from repro.proxy.contentcache import ContentCache
    from repro.proxy.metrics import AccessMetrics

    testbed = Testbed()
    published = testbed.publish(
        testbed.document_owner("vu.nl/conserve", {"index.html": b"x" * 4096})
    )
    ring = RingBufferSink()
    tracer = Tracer(clock=testbed.clock, sinks=(ring,))
    host = "sporty.cs.vu.nl"
    stack = testbed.client_stack(
        host,
        verification_cache=VerificationCache(),
        content_cache=ContentCache(
            clock=testbed.network.host(host), ttl=30.0, tracer=tracer
        ),
        revocation_max_staleness=120.0,
        tracer=tracer,
    )
    for i in range(6):  # cold bind, cache hits, then a feed re-poll
        ring.clear()
        assert stack.proxy.handle(published.url("index.html")).ok
        (root,) = ring.named("proxy.handle")
        derived = AccessMetrics.from_spans(ring.spans).total
        assert derived == pytest.approx(root.duration, rel=0.01), f"access {i}"
        testbed.clock.advance(25.0)


class TestGatesDetectRegressions:
    def test_stitch_rate_below_one_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["stitching"]["stitch_rate"] = 0.98
        assert any("stitch rate" in p for p in failed_gates(broken))

    def test_attribution_error_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["max_relative_attribution_error"] = 0.05
        assert any("attribution" in p for p in failed_gates(broken))


class TestRendering:
    def test_bench_summary_includes_profile_section(self, report, tmp_path):
        envelope = write_envelope(
            tmp_path / "p.json", TARGET, report, criteria(report), 0
        )
        summary = render_bench_summary({"profile": envelope})
        assert "stitch_rate" in summary and "attribution_error" in summary
        assert " 0 failing" in summary

    def test_section_absent_without_report(self):
        assert "profile" not in render_bench_summary({})
        assert "unreadable" in render_bench_summary({"profile": {"error": "missing"}})
