"""Unit tests for the convergence bench internals.

The partition/heal sweep itself runs in CI (``repro.harness convergence
--quick``); here the gate logic and report shape are pinned down with
synthetic data, so a regression names the exact rule it broke.
"""

from __future__ import annotations

import json

from repro.harness.convergence import (
    TARGET,
    ConvergenceReport,
    PartitionedConvergence,
    RecoveryGate,
    criteria,
)
from repro.harness.kernel import problems, write_envelope


def failed_gates(report: ConvergenceReport):
    return problems(criteria(report))


def clean_report(**overrides) -> ConvergenceReport:
    report = ConvergenceReport(
        partitioned=PartitionedConvergence(
            writers=3,
            rounds=2,
            deltas=6,
            gossip_pulled=2,
            gossip_pushed=4,
            server_digests={"a": "d1", "b": "d1"},
            reader_digests={"a": "d1", "b": "d1"},
            byte_identical=True,
            elements=3,
        ),
        recovery=RecoveryGate(
            deltas_published=3,
            recovered_deltas=3,
            reverified_deltas=3,
            recovered_grants=3,
            digest_intact=True,
            frontier_cert_recovered=True,
            tamper_failed_closed=True,
            tamper_error="RecoveryIntegrityError",
        ),
    )
    for key, value in overrides.items():
        setattr(report, key, value)
    return report


class TestGates:
    def test_clean_report_passes(self):
        assert failed_gates(clean_report()) == []

    def test_divergence_fails(self):
        report = clean_report()
        report.partitioned.byte_identical = False
        assert any("diverged" in p.lower() for p in failed_gates(report))

    def test_missing_gossip_fails(self):
        report = clean_report()
        report.partitioned.gossip_pulled = 0
        report.partitioned.gossip_pushed = 0
        assert any("gossip" in p for p in failed_gates(report))

    def test_lost_delta_fails(self):
        report = clean_report()
        report.recovery.recovered_deltas = 2
        assert any("lost deltas" in p for p in failed_gates(report))

    def test_unreverified_recovery_fails(self):
        report = clean_report()
        report.recovery.reverified_deltas = 0
        assert any("re-verified" in p for p in failed_gates(report))

    def test_accepted_tamper_fails(self):
        report = clean_report()
        report.recovery.tamper_failed_closed = False
        assert any("tamper" in p.lower() for p in failed_gates(report))

    def test_changed_digest_fails(self):
        report = clean_report()
        report.recovery.digest_intact = False
        assert any("different bytes" in p for p in failed_gates(report))


class TestRendering:
    def test_report_roundtrips_as_json(self, tmp_path):
        path = tmp_path / "BENCH_convergence.json"
        report = clean_report()
        write_envelope(path, TARGET, report, criteria(report), True, 0)
        data = json.loads(path.read_text())["body"]
        assert data["partitioned"]["byte_identical"] is True
        assert data["recovery"]["tamper_error"] == "RecoveryIntegrityError"
        assert set(data) == {"partitioned", "recovery"}
