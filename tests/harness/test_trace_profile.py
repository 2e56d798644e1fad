"""The trace gates of the profile bench: span coverage, rejection
census, pipelined-vs-sequential attempt share.

These were the ``trace`` target's gates before it was folded into
``profile``. The session's shared quick profile run backs the structural
claims; mutated copies then pin that each folded gate still fails with
its original message.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.harness.kernel import problems, write_envelope
from repro.harness.profile_bench import (
    EXPECTED_REJECTIONS,
    EXPECTED_SPANS,
    TARGET,
    criteria,
)


@pytest.fixture(scope="module")
def report(quick_report):
    return quick_report("profile")


def test_all_gates_pass(report):
    assert problems(criteria(report)) == []


def test_every_instrumented_layer_produced_spans(report):
    phases = report["phases"]
    for name in EXPECTED_SPANS:
        assert name in phases, f"missing span {name!r}"
        assert phases[name]["count"] > 0
        assert phases[name]["p50_s"] <= phases[name]["p95_s"] <= phases[name]["max_s"]


def test_honest_workload_fully_succeeds(report):
    workload = report["workload"]
    assert workload["read_ok"] == workload["reads"]


def test_rejection_census_matches_probes(report):
    rejections = report["security_rejections"]
    for span_name, error_type in EXPECTED_REJECTIONS.items():
        assert error_type in rejections.get(span_name, {}), (
            f"{span_name} did not reject with {error_type}: {rejections}"
        )
    assert set(report["workload"]["probes"].values()) == {
        "AuthenticityError", "ConsistencyError", "FreshnessError"
    }


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


def test_pipelining_moves_attempts_off_the_serving_path(report):
    comparison = report["pipeline_comparison"]
    sequential, pipelined = comparison["sequential"], comparison["pipelined"]
    assert pipelined["rpc_attempt_share"] < sequential["rpc_attempt_share"]
    assert pipelined["elapsed_s"] <= sequential["elapsed_s"]
    assert comparison["speedup"] >= 1.0


def test_report_round_trips_as_json(report, tmp_path):
    out = tmp_path / "profile.json"
    write_envelope(out, TARGET, report, criteria(report), True, 0)
    loaded = json.loads(out.read_text())
    assert loaded["name"] == "profile"
    assert loaded["body"]["security_rejections"] == report["security_rejections"]


def mutate(report, path, value):
    broken = copy.deepcopy(report)
    node = broken
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return problems(criteria(broken))


class TestFoldedGatesDetectRegressions:
    def test_wrong_check_rejecting_flagged(self, report):
        found = mutate(
            report, ("security_rejections", "check.element_hash"),
            {"ConsistencyError": 1},
        )
        assert found == [
            "expected 'check.element_hash' to reject with AuthenticityError, "
            "got {'ConsistencyError': 1}"
        ]

    def test_attempt_share_not_shrinking_flagged(self, report):
        share = report["pipeline_comparison"]["sequential"]["rpc_attempt_share"]
        found = mutate(
            report, ("pipeline_comparison", "pipelined", "rpc_attempt_share"), share
        )
        assert len(found) == 1
        assert "pipelined rpc.attempt share of proxy.handle did not shrink" in found[0]

    def test_slower_pipeline_flagged(self, report):
        found = mutate(report, ("pipeline_comparison", "pipelined", "elapsed_s"), 9.0)
        assert any("pipelined workload slower than sequential" in p for p in found)

    def test_degraded_comparison_workload_flagged(self, report):
        found = mutate(report, ("pipeline_comparison", "sequential", "ok"), 0)
        assert any("pipeline-comparison workload degraded (sequential" in p for p in found)

    def test_missing_pipeline_spans_flagged(self, report):
        found = mutate(
            report, ("pipeline_comparison", "pipelined", "pipeline_spans"), {}
        )
        assert "no 'pipeline.prefetch' spans recorded in pipelined mode" in found
