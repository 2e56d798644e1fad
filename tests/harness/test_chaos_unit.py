"""The chaos bench: its gate logic, report shape and world, pinned with
synthetic sweep points so a regression names the exact rule it broke;
and the genuineness invariant, asserted on the session's shared run.
"""

from __future__ import annotations

import json

from repro.harness.chaos import (
    ELEMENTS,
    REPLICA_SITES,
    TARGET,
    ChaosPoint,
    ChaosReport,
    _build_world,
    criteria,
)
from repro.harness.kernel import problems, write_envelope


def failed_gates(report: ChaosReport):
    return problems(criteria(report))


def make_point(
    drop=0.1,
    requests=40,
    ok=40,
    unverified_bytes=0,
    retries=3,
    failovers=1,
) -> ChaosPoint:
    return ChaosPoint(
        drop_probability=drop,
        corrupt_probability=0.02,
        requests=requests,
        ok=ok,
        failed=requests - ok,
        unverified_bytes=unverified_bytes,
        retries=retries,
        failovers=failovers,
        quarantines=0,
        backoff_seconds=0.5,
        transport_requests=requests * 3,
        drops_injected=int(drop * requests),
        corruptions_injected=1,
    )


def make_report(resilient, baseline) -> ChaosReport:
    return ChaosReport(replicas=3, resilient=resilient, baseline=baseline)


class TestChaosPoint:
    def test_availability(self):
        assert make_point(requests=40, ok=30).availability == 0.75

    def test_availability_zero_requests(self):
        # No division-by-zero: an empty point reads as fully unavailable.
        assert make_point(requests=0, ok=0).availability == 0.0


class TestChaosReportDict:
    def test_to_dict_includes_derived_availability(self):
        report = make_report(
            [make_point(ok=40)], [make_point(ok=20, retries=0, failovers=0)]
        )
        data = report.to_dict()
        assert data["replicas"] == 3
        assert data["resilient"][0]["availability"] == 1.0
        assert data["baseline"][0]["availability"] == 0.5
        assert data["resilient"][0]["drop_probability"] == 0.1

    def test_write_report_round_trips(self, tmp_path):
        report = make_report([make_point()], [make_point(ok=30)])
        out = tmp_path / "chaos.json"
        write_envelope(out, TARGET, report, criteria(report), 0)
        loaded = json.loads(out.read_text())
        assert loaded["body"]["resilient"][0]["ok"] == 40
        assert all(c["ok"] for c in loaded["criteria"])


class TestCheckReport:
    def test_clean_sweep_passes(self):
        report = make_report(
            [make_point(drop=0.0), make_point(drop=0.2), make_point(drop=0.3, ok=35)],
            [make_point(drop=0.0, ok=38), make_point(drop=0.2, ok=25),
             make_point(drop=0.3, ok=15)],
        )
        assert failed_gates(report) == []

    def test_low_availability_at_moderate_drop_fails(self):
        report = make_report(
            [make_point(drop=0.2, ok=39)],  # 97.5% < 99%
            [make_point(drop=0.2, ok=20)],
        )
        problems = failed_gates(report)
        assert any("availability" in p for p in problems)

    def test_high_drop_rate_exempt_from_availability_gate(self):
        # At drop 0.3 the resilient stack may degrade; only the
        # aggregate-beats-baseline rule still applies.
        report = make_report(
            [make_point(drop=0.3, ok=25)], [make_point(drop=0.3, ok=10)]
        )
        assert failed_gates(report) == []

    def test_resilience_must_beat_baseline(self):
        report = make_report(
            [make_point(ok=40)], [make_point(ok=40, retries=0, failovers=0)]
        )
        problems = failed_gates(report)
        assert any("earned nothing" in p for p in problems)


class TestBuildWorld:
    def test_three_replica_deployment(self):
        testbed, published = _build_world()
        oid_hex = published.owner.oid.hex
        for site in REPLICA_SITES:
            addresses = testbed.location_service.tree.addresses_at(oid_hex, site)
            assert addresses, f"no replica registered at {site}"
        # All three serve the genuine content through a real client.
        stack = testbed.client_stack("sporty.cs.vu.nl")
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok and response.content == ELEMENTS["index.html"]


def test_sweep_serves_only_owner_bytes(bench_report):
    """Faults may cost availability, never integrity: at every drop rate
    neither stack served a byte the owner did not publish, though both
    saw drops and corruptions."""
    report = bench_report("chaos")
    for point in report.resilient + report.baseline:
        assert point.unverified_bytes == 0, point
        assert point.drops_injected + point.corruptions_injected > 0, point
