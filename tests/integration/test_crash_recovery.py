"""End-to-end crash recovery on the full testbed.

The scenario the durability subsystem exists for: a durable world is
populated, killed, and restarted over the same directory; the restarted
world must serve the same proven bytes, and a client that persisted its
revocation cursor must reject a revoked OID before reaching any feed.
Restart is an operational event, not a security event — and a yes/no on
a deterministic run, so it is decided here, not by a bench.
"""

from __future__ import annotations

import os

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.storage.store import WAL_NAME
from repro.storage.wal import FRAME_HEADER
from tests.conftest import fast_keys


def restart(testbed: Testbed, damage=None) -> Testbed:
    """The kill/restart primitive: close the stores, rebuild the world
    from nothing but the directory (clock and zone keys are the
    operator's configuration and survive out of band). ``damage()``, if
    given, is what happens to the directory while the world is down."""
    testbed.close_stores()
    if damage is not None:
        damage()
    return Testbed(
        clock=testbed.clock, data_dir=testbed.data_dir, storage_sync=False,
        zone_keys=testbed.zone_keys,
    )


def publish(testbed: Testbed, name: str, content: bytes):
    owner = DocumentOwner(name, keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", content))
    return testbed.publish(owner)


class TestTestbedRestart:
    def test_restarted_testbed_serves_identical_bytes(self, tmp_path):
        """Three kill/restart cycles over compacted logs, the second kill
        mid-append: every replica comes back re-verified, naming and
        location answer again, a torn tail costs only the torn bytes, and
        both the read and the write path work afterwards."""
        data_dir = str(tmp_path / "world")
        testbed = Testbed(data_dir=data_dir, storage_sync=False)
        contents = {
            f"vu.nl/crash-doc-{i}": f"<html>survives {i}</html>".encode()
            for i in range(2)
        }
        published = {
            name: publish(testbed, name, content) for name, content in contents.items()
        }
        testbed.compact_stores()  # what the restarts read is a rewritten log

        def tear() -> None:
            # The crash mid-append: half a frame lands after the valid log.
            wal_path = os.path.join(data_dir, "objectserver", "server", WAL_NAME)
            with open(wal_path, "ab") as fh:
                fh.write(FRAME_HEADER.pack(4096) + b"\x17" * 100)

        for damage in (None, tear, None):
            testbed = restart(testbed, damage)
            server = testbed.object_server
            assert server.recovered_replicas == len(contents)
            assert server.reverified_replicas == server.recovered_replicas
            assert testbed.naming_store.recovered_records >= len(contents)
            assert testbed.location_store.recovered_addresses >= len(contents)
            torn = server.state_store.store.wal.torn_bytes_dropped
            assert torn == (FRAME_HEADER.size + 100 if damage is tear else 0)
            stack = testbed.client_stack("ensamble02.cornell.edu")
            for name, content in contents.items():
                response = stack.proxy.handle(published[name].url("index.html"))
                assert response.ok and response.content == content

        # The write path survived too: publish through the recovered
        # services and fetch it back from another site.
        fresh = publish(testbed, "vu.nl/post-restart", b"<html>published after</html>")
        response = testbed.client_stack("canardo.inria.fr").proxy.handle(
            fresh.url("index.html")
        )
        assert response.ok and response.content == b"<html>published after</html>"
        testbed.close_stores()

    def test_restarted_client_rejects_revoked_before_any_rpc(self, tmp_path):
        from repro.revocation.statement import RevocationStatement

        cursor_dir = os.path.join(str(tmp_path), "cursor")

        def client(testbed):
            return testbed.client_stack(
                "sporty.cs.vu.nl",
                revocation_max_staleness=60.0,
                revocation_cursor_dir=cursor_dir,
            )

        testbed = Testbed(data_dir=str(tmp_path / "world"), storage_sync=False)
        doomed = publish(testbed, "vu.nl/doomed", b"compromised")
        clean = publish(testbed, "vu.nl/clean", b"fine")
        stack = client(testbed)
        assert stack.proxy.handle(doomed.url("index.html")).ok
        testbed.object_server.revocation_feed.publish(
            RevocationStatement.revoke_key(
                doomed.owner.keys, doomed.owner.oid, serial=1,
                issued_at=testbed.clock.now(),
            )
        )
        testbed.clock.advance(stack.revocation.poll_interval + 1.0)
        assert not stack.proxy.handle(doomed.url("index.html")).ok
        stack.revocation.store.close()
        head_before = testbed.object_server.revocation_feed.head

        testbed = restart(testbed)
        feed = testbed.object_server.revocation_feed
        assert feed.head == head_before == 1  # no regression across the restart
        stack = client(testbed)
        checker = stack.revocation
        assert checker.stats.statements_recovered == 1
        assert checker.staleness is None  # recovered, not synced: vouches for nothing
        response = stack.proxy.handle(doomed.url("index.html"))
        assert response.status == 403
        assert response.security_failure == "RevokedKeyError"
        # Condemned straight from the recovered cursor: no feed RPC ran.
        assert checker.stats.refreshes == 0
        # Vouching still needs freshness: the first clean access syncs
        # against the recovered feed and is served.
        response = stack.proxy.handle(clean.url("index.html"))
        assert response.ok and response.content == b"fine"
        assert checker.stats.refreshes == 1 and checker.head == feed.head
        testbed.close_stores()


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


#: A known ``op`` missing its fields, per component.
FIELDLESS = {
    "server": {"op": "replica.create"},
    "feed": {"op": "publish"},
    "versioning": {"op": "delta"},
    "naming": {"op": "record"},
    "location": {"op": "insert"},
    "cursor": {"op": "head"},
}


class TestUnreadableRecordFailsClosed:
    def assert_refuses(self, tmp_path, component, record, match):
        """A store that recovers *past* a record it cannot read restarts
        short and vouches for nothing it lost: every component refuses,
        and with the one exception callers catch."""
        from repro.errors import RecoveryIntegrityError
        from repro.revocation.statement import RevocationStatement
        from repro.storage.store import DurableStore

        cursor_dir = str(tmp_path / "cursor")

        def start(testbed):
            return testbed.client_stack(
                "sporty.cs.vu.nl",
                revocation_max_staleness=60.0,
                revocation_cursor_dir=cursor_dir,
            )

        # A valid history in all six logs.
        testbed = Testbed(data_dir=str(tmp_path / "world"), storage_sync=False)
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

        def append_unreadable() -> None:
            directory = str(tmp_path / STORE_DIRS[component])
            with DurableStore(directory, sync=False) as store:
                assert store.seq > 0
                store.append(record)

        with pytest.raises(RecoveryIntegrityError, match=match):
            start(restart(testbed, damage=append_unreadable))

    @pytest.mark.parametrize("component", sorted(STORE_DIRS))
    def test_unknown_op_behind_a_valid_history_refuses_to_recover(
        self, tmp_path, component
    ):
        self.assert_refuses(
            tmp_path, component, {"op": "bogus"}, "unknown operation 'bogus'"
        )

    @pytest.mark.parametrize(
        "component, record",
        [
            *(pytest.param(c, FIELDLESS[c], id=f"{c}-missing-field") for c in sorted(STORE_DIRS)),
            *(pytest.param(c, ["no mapping"], id=f"{c}-non-dict") for c in sorted(STORE_DIRS)),
            pytest.param("cursor", {"op": "head", "head": "x"}, id="cursor-non-integer-head"),
        ],
    )
    def test_known_op_it_cannot_read_refuses_to_recover(
        self, tmp_path, component, record
    ):
        self.assert_refuses(tmp_path, component, record, "cannot be read")
