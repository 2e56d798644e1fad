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


#: The six durable components, by where each keeps its log under the
#: test's directory (the client's cursor lives beside the world).
STORE_DIRS = {
    "server": "world/objectserver/server",
    "feed": "world/objectserver/feed",
    "versioning": "world/objectserver/versioning",
    "naming": "world/naming",
    "location": "world/location",
    "cursor": "cursor",
}


class TestUnreadableRecordFailsClosed:
    @pytest.mark.parametrize("component", sorted(STORE_DIRS))
    def test_unknown_op_behind_a_valid_history_refuses_to_recover(
        self, tmp_path, component
    ):
        """A store that recovers *past* a record it cannot read restarts
        short and vouches for nothing it lost: every component refuses."""
        from repro.errors import RecoveryIntegrityError
        from repro.revocation.statement import RevocationStatement
        from repro.storage.store import DurableStore

        data_dir = str(tmp_path / "world")
        cursor_dir = str(tmp_path / "cursor")

        def start(testbed):
            return testbed.client_stack(
                "sporty.cs.vu.nl",
                revocation_max_staleness=60.0,
                revocation_cursor_dir=cursor_dir,
            )

        # A valid history in all six logs.
        testbed = Testbed(data_dir=data_dir, storage_sync=False)
        owner = DocumentOwner("vu.nl/doc", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>fine</html>"))
        owner.put_element(PageElement("old.html", b"<html>withdrawn</html>"))
        published = testbed.publish(owner)
        testbed.object_server.versioning.register_object(owner.public_key)
        testbed.object_server.revocation_feed.publish(
            RevocationStatement.revoke_element(
                owner.keys, owner.oid, "old.html", cert_version=1, serial=1,
                issued_at=testbed.clock.now(),
            )
        )
        stack = start(testbed)
        assert stack.proxy.handle(published.url("index.html")).ok
        assert stack.revocation.head == 1
        stack.revocation.store.close()
        zone_keys, clock = testbed.zone_keys, testbed.clock
        testbed.close_stores()

        with DurableStore(str(tmp_path / STORE_DIRS[component]), sync=False) as store:
            assert store.seq > 0
            store.append({"op": "bogus"})

        with pytest.raises(RecoveryIntegrityError, match="unknown operation 'bogus'"):
            start(
                Testbed(
                    clock=clock, data_dir=data_dir, storage_sync=False,
                    zone_keys=zone_keys,
                )
            )
