"""End-to-end crash recovery on the full testbed.

The scenario the durability subsystem exists for: a durable world is
populated, killed, and restarted over the same directory; the restarted
world must serve the same proven bytes, and a client that persisted its
revocation cursor must reject a revoked OID before reaching any feed.
These tests drive the public harness entry points so what CI gates is
exactly what a user of the harness runs.
"""

from __future__ import annotations

import os

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.harness.kernel import problems
from repro.harness.recovery import criteria
from tests.conftest import fast_keys


class TestRecoveryBench:
    def test_quick_bench_passes_every_gate(self, quick_report):
        assert problems(criteria(quick_report("recovery"))) == []

    def test_report_counts_are_live(self, quick_report):
        report = quick_report("recovery")
        assert report.replica.recovered_replicas == report.replica.documents == 2
        assert report.torn.torn_bytes_dropped > 0
        assert report.tamper.error_type == "RecoveryIntegrityError"


class TestTestbedRestart:
    """The restart primitive itself, outside the bench harness."""

    def test_restarted_testbed_serves_identical_bytes(self, tmp_path):
        data_dir = str(tmp_path / "world")
        testbed = Testbed(data_dir=data_dir, storage_sync=False)
        owner = DocumentOwner("vu.nl/crash-doc", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>survives</html>"))
        published = testbed.publish(owner)
        zone_keys = testbed.zone_keys
        clock = testbed.clock
        testbed.close_stores()

        restarted = Testbed(
            clock=clock, data_dir=data_dir, storage_sync=False, zone_keys=zone_keys
        )
        assert restarted.object_server.recovered_replicas == 1
        assert restarted.object_server.reverified_replicas == 1
        stack = restarted.client_stack("ensamble02.cornell.edu")
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok and response.content == b"<html>survives</html>"
        restarted.close_stores()

    def test_restarted_client_rejects_revoked_before_any_rpc(self, tmp_path):
        from repro.revocation.statement import RevocationStatement

        data_dir = str(tmp_path / "world")
        cursor_dir = os.path.join(str(tmp_path), "cursor")
        testbed = Testbed(data_dir=data_dir, storage_sync=False)
        owner = DocumentOwner("vu.nl/doomed", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"compromised"))
        published = testbed.publish(owner)
        stack = testbed.client_stack(
            "sporty.cs.vu.nl",
            revocation_max_staleness=60.0,
            revocation_cursor_dir=cursor_dir,
        )
        assert stack.proxy.handle(published.url("index.html")).ok
        testbed.object_server.revocation_feed.publish(
            RevocationStatement.revoke_key(
                owner.keys, owner.oid, serial=1, issued_at=testbed.clock.now()
            )
        )
        testbed.clock.advance(stack.revocation.poll_interval + 1.0)
        assert not stack.proxy.handle(published.url("index.html")).ok
        stack.revocation.store.close()
        zone_keys = testbed.zone_keys
        clock = testbed.clock
        testbed.close_stores()

        restarted = Testbed(
            clock=clock, data_dir=data_dir, storage_sync=False, zone_keys=zone_keys
        )
        stack = restarted.client_stack(
            "sporty.cs.vu.nl",
            revocation_max_staleness=60.0,
            revocation_cursor_dir=cursor_dir,
        )
        response = stack.proxy.handle(published.url("index.html"))
        assert response.status == 403
        assert response.security_failure == "RevokedKeyError"
        # Condemned straight from the recovered cursor: no feed RPC ran.
        assert stack.revocation.stats.refreshes == 0
        restarted.close_stores()
