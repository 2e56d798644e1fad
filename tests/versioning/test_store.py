"""The server-side delta store: admission, durability, fail-closed recovery."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import (
    RecoveryIntegrityError,
    ReplicaError,
    SecurityError,
    UnauthorizedWriterError,
)
from repro.storage.store import WAL_NAME, DurableStore
from repro.storage.wal import WriteAheadLog
from repro.versioning import (
    DeltaDag,
    SignedDelta,
    VersionedObjectStore,
    WriterGrant,
    merge_deltas,
)
from repro.versioning.store import gossip_once

from tests.conftest import fast_keys


@pytest.fixture
def store(clock):
    return VersionedObjectStore(clock=clock)


def registered(store, owner_keys, oid, make_writer, writer_id="alice"):
    store.register_object(owner_keys.public)
    writer, grant = make_writer(writer_id)
    store.put_grant(oid.hex, grant)
    return writer


class TestAdmission:
    def test_register_is_idempotent(self, store, owner_keys, oid):
        assert store.register_object(owner_keys.public) == oid.hex
        assert store.register_object(owner_keys.public) == oid.hex

    def test_grant_for_unregistered_object_refused(
        self, store, owner_keys, oid, make_writer
    ):
        _, grant = make_writer("alice")
        with pytest.raises(ReplicaError):
            store.put_grant(oid.hex, grant)

    def test_forged_grant_refused(self, store, owner_keys, oid, clock):
        store.register_object(owner_keys.public)
        mallory = fast_keys()
        forged = WriterGrant.issue(
            mallory,
            type(oid).from_public_key(mallory.public),
            "alice",
            fast_keys().public,
            granted_at=clock.now(),
        )
        with pytest.raises(SecurityError):
            store.put_grant(oid.hex, forged)

    def test_delta_dedup_and_serving(self, store, owner_keys, oid, make_writer):
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        delta = writer.put(dag, "body", b"first")
        assert store.put_delta(oid.hex, delta) is True
        assert store.put_delta(oid.hex, delta) is False
        bundle = store.fetch(oid.hex)
        assert [
            SignedDelta.from_dict(d).writer_id for d in bundle["deltas"]
        ] == ["alice"]

    def test_ungranted_writer_refused(self, store, owner_keys, oid, clock):
        store.register_object(owner_keys.public)
        from repro.versioning import DocumentWriter

        eve = DocumentWriter(fast_keys(), "eve", oid, clock)
        with pytest.raises(UnauthorizedWriterError):
            store.put_delta(oid.hex, eve.put(DeltaDag(), "body", b"evil"))

    def test_fetch_have_heads_ships_only_the_difference(
        self, store, owner_keys, oid, make_writer
    ):
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        first = writer.put(dag, "body", b"one")
        second = writer.put(dag, "body", b"two")
        store.put_delta(oid.hex, first)
        store.put_delta(oid.hex, second)
        bundle = store.fetch(oid.hex, have_heads=[first.delta_id])
        assert [SignedDelta.from_dict(d).lamport for d in bundle["deltas"]] == [2]
        assert bundle["heads"] == [second.delta_id]
        assert "peer_delta_ids" not in bundle
        # The caller's heads are the server's own: nothing ships.
        assert store.fetch(oid.hex, have_heads=[second.delta_id])["deltas"] == []

    def test_fetch_have_grants_names_held_grants_by_id(
        self, store, owner_keys, oid, make_writer
    ):
        registered(store, owner_keys, oid, make_writer, "alice")
        _, bobs = make_writer("bob")
        store.put_grant(oid.hex, bobs)
        # Without have_grants the answer is the one it always was.
        whole = store.fetch(oid.hex)
        assert "held_grants" not in whole
        assert [WriterGrant.from_dict(g).writer_id for g in whole["grants"]] == [
            "alice", "bob",
        ]
        # A held id is named instead of shipped; an unknown id changes nothing.
        bundle = store.fetch(oid.hex, have_grants=[bobs.grant_id, "00" * 20])
        assert bundle["held_grants"] == [bobs.grant_id]
        assert [WriterGrant.from_dict(g).writer_id for g in bundle["grants"]] == ["alice"]
        assert store.fetch(oid.hex, have_grants=["00" * 20]) == whole


class TestFrontierCert:
    def test_granted_writer_cert_accepted(self, store, owner_keys, oid, make_writer):
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        store.put_delta(oid.hex, writer.put(dag, "body", b"x"))
        merged = merge_deltas(dag.deltas, oid_hex=oid.hex)
        assert store.put_frontier_cert(oid.hex, writer.certify_frontier(merged))
        assert store.fetch(oid.hex)["frontier_cert"] is not None

    def test_cert_over_unknown_heads_refused(
        self, store, owner_keys, oid, make_writer
    ):
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        delta = writer.put(dag, "body", b"never published")
        merged = merge_deltas(dag.deltas, oid_hex=oid.hex)
        cert = writer.certify_frontier(merged)
        with pytest.raises(ReplicaError):
            store.put_frontier_cert(oid.hex, cert)
        assert store.delta_count(oid.hex) == 0

    def test_stale_lower_lamport_cert_dropped(
        self, store, owner_keys, oid, make_writer
    ):
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        store.put_delta(oid.hex, writer.put(dag, "body", b"one"))
        old = writer.certify_frontier(merge_deltas(dag.deltas, oid_hex=oid.hex))
        store.put_delta(oid.hex, writer.put(dag, "body", b"two"))
        new = writer.certify_frontier(merge_deltas(dag.deltas, oid_hex=oid.hex))
        assert store.put_frontier_cert(oid.hex, new) is True
        assert store.put_frontier_cert(oid.hex, old) is False

    def concurrent_roots(self, clock, owner_keys, oid, make_writer):
        """Two writers, two concurrent root deltas, both at lamport 1."""
        alice, alice_grant = make_writer("alice")
        bob, bob_grant = make_writer("bob")
        d_alice = alice.put(DeltaDag(), "a", b"alice-root")
        d_bob = bob.put(DeltaDag(), "b", b"bob-root")

        def build_store():
            store = VersionedObjectStore(clock=clock)
            store.register_object(owner_keys.public)
            store.put_grant(oid.hex, alice_grant)
            store.put_grant(oid.hex, bob_grant)
            store.put_delta(oid.hex, d_alice)
            store.put_delta(oid.hex, d_bob)
            return store

        return alice, d_alice, d_bob, build_store

    def test_equal_lamport_tie_is_arrival_order_independent(
        self, clock, owner_keys, oid, make_writer
    ):
        """Regression: two concurrent certs with the same Lamport bound
        must settle on the same held cert on every replica, whatever
        order they arrived in."""
        alice, d_alice, d_bob, build_store = self.concurrent_roots(
            clock, owner_keys, oid, make_writer
        )
        cert_a = alice.certify_frontier(merge_deltas([d_alice], oid_hex=oid.hex))
        cert_b = alice.certify_frontier(merge_deltas([d_bob], oid_hex=oid.hex))
        assert cert_a.lamport == cert_b.lamport
        held = []
        for first, second in ((cert_a, cert_b), (cert_b, cert_a)):
            store = build_store()
            store.put_frontier_cert(oid.hex, first)
            store.put_frontier_cert(oid.hex, second)
            held.append(store.fetch(oid.hex)["frontier_cert"])
        assert held[0] == held[1]

    def test_equal_lamport_dominating_frontier_wins(
        self, clock, owner_keys, oid, make_writer
    ):
        """A stale pre-gossip frontier at the same Lamport bound never
        displaces the dominating one."""
        alice, d_alice, d_bob, build_store = self.concurrent_roots(
            clock, owner_keys, oid, make_writer
        )
        partial = alice.certify_frontier(merge_deltas([d_alice], oid_hex=oid.hex))
        full = alice.certify_frontier(
            merge_deltas([d_alice, d_bob], oid_hex=oid.hex)
        )
        assert partial.lamport == full.lamport
        store = build_store()
        assert store.put_frontier_cert(oid.hex, full) is True
        assert store.put_frontier_cert(oid.hex, partial) is False
        store = build_store()
        assert store.put_frontier_cert(oid.hex, partial) is True
        assert store.put_frontier_cert(oid.hex, full) is True


class TestRekey:
    """Owner re-key: historical grants must keep old deltas verifiable."""

    def rekey_alice(self, store, owner_keys, oid, clock):
        from repro.versioning import DocumentWriter

        new_keys = fast_keys()
        grant = WriterGrant.issue(
            owner_keys, oid, "alice", new_keys.public, granted_at=clock.now()
        )
        assert store.put_grant(oid.hex, grant) is True
        return DocumentWriter(new_keys, "alice", oid, clock)

    def test_rekey_retains_both_grants_and_old_deltas(
        self, store, owner_keys, oid, make_writer, clock
    ):
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        old_delta = writer.put(dag, "body", b"under-old-key")
        store.put_delta(oid.hex, old_delta)
        rekeyed = self.rekey_alice(store, owner_keys, oid, clock)
        store.put_delta(oid.hex, rekeyed.put(dag, "body", b"under-new-key"))
        bundle = store.fetch(oid.hex)
        assert len(bundle["grants"]) == 2
        assert len(bundle["deltas"]) == 2
        assert old_delta.delta_id in [
            SignedDelta.from_dict(d).delta_id for d in bundle["deltas"]
        ]

    def test_rekey_survives_compaction_and_recovery(
        self, clock, owner_keys, oid, make_writer, tmp_path
    ):
        """Regression: a compaction must retain the pre-re-key grant, or
        recovery replays the old-key deltas against the new grant alone
        and bricks startup with RecoveryIntegrityError."""
        store = VersionedObjectStore(
            clock=clock, store=DurableStore(str(tmp_path), sync=False)
        )
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        store.put_delta(oid.hex, writer.put(dag, "body", b"old-key-history"))
        rekeyed = self.rekey_alice(store, owner_keys, oid, clock)
        store.put_delta(oid.hex, rekeyed.put(dag, "body", b"new-key-history"))
        store.compact()
        store.close()
        revived = VersionedObjectStore(
            clock=clock, store=DurableStore(str(tmp_path), sync=False)
        )
        assert revived.delta_count(oid.hex) == 2
        assert len(revived.fetch(oid.hex)["grants"]) == 2
        revived.close()

    def test_recovery_tolerates_since_expired_grant(
        self, clock, owner_keys, oid, tmp_path
    ):
        """A genuine grant whose not_after lapsed after admission must
        not fail recovery closed — freshness is a client-side concern;
        recovery re-proves signatures."""
        from repro.versioning import DocumentWriter

        store = VersionedObjectStore(
            clock=clock, store=DurableStore(str(tmp_path), sync=False)
        )
        store.register_object(owner_keys.public)
        keys = fast_keys()
        store.put_grant(
            oid.hex,
            WriterGrant.issue(
                owner_keys, oid, "shortlived", keys.public,
                granted_at=clock.now(), not_after=clock.now() + 10.0,
            ),
        )
        writer = DocumentWriter(keys, "shortlived", oid, clock)
        store.put_delta(oid.hex, writer.put(DeltaDag(), "body", b"in-time"))
        store.close()
        clock.advance(1000.0)
        revived = VersionedObjectStore(
            clock=clock, store=DurableStore(str(tmp_path), sync=False)
        )
        assert revived.recovered_deltas == 1
        assert revived.recovered_grants == 1
        revived.close()


class TestGossip:
    def test_one_round_converges_two_stores(
        self, clock, owner_keys, oid, make_writer
    ):
        left = VersionedObjectStore(clock=clock)
        right = VersionedObjectStore(clock=clock)
        alice, alice_grant = make_writer("alice")
        bob, bob_grant = make_writer("bob")
        for store in (left, right):
            store.register_object(owner_keys.public)
        left.put_grant(oid.hex, alice_grant)
        right.put_grant(oid.hex, bob_grant)
        left.put_delta(oid.hex, alice.put(DeltaDag(), "a", b"from-alice"))
        right.put_delta(oid.hex, bob.put(DeltaDag(), "b", b"from-bob"))

        from repro.net.rpc import RpcClient
        from repro.net.transport import LoopbackTransport
        from repro.server.objectserver import ObjectServer

        transport = LoopbackTransport()
        rpc = RpcClient(transport)
        peer = ObjectServer(host="peer.example", site="root/site/peer", clock=clock)
        peer.versioning = right
        transport.register(peer.endpoint, peer.rpc_server().handle_frame)

        stats = gossip_once(left, rpc, peer.endpoint, oid.hex)
        assert stats["pulled"] == 1 and stats["pushed"] == 1
        assert left.heads(oid.hex) == right.heads(oid.hex)
        assert left.delta_count(oid.hex) == right.delta_count(oid.hex) == 2


class TestOneSnapshot:
    """A fetch answers from one snapshot: its claimed heads are exactly
    the frontier of what the caller held plus what it shipped, however a
    concurrent put falls — or a reader condemns an honest server."""

    def test_put_between_heads_and_walk_ships_nothing_past_the_heads(
        self, store, owner_keys, oid, make_writer, monkeypatch
    ):
        writer = registered(store, owner_keys, oid, make_writer)
        view = DeltaDag()
        first, late = writer.put(view, "body", b"one"), writer.put(view, "body", b"two")
        store.put_delta(oid.hex, first)
        dag = store._require(oid.hex).dag
        snapshot = dag.heads

        def heads_then_a_put():
            heads = snapshot()
            store.put_delta(oid.hex, late)  # lands inside the fetch
            return heads

        monkeypatch.setattr(dag, "heads", heads_then_a_put)
        bundle = store.fetch(oid.hex)
        assert bundle["heads"] == [first.delta_id]
        assert [SignedDelta.from_dict(d).delta_id for d in bundle["deltas"]] == [
            first.delta_id
        ]

    def test_fetchers_racing_a_writer_thread(self, store, owner_keys, oid, make_writer):
        writer = registered(store, owner_keys, oid, make_writer)
        view = DeltaDag()
        deltas = [writer.put(view, f"e{i % 3}", b"%d" % i) for i in range(150)]
        done, errors = threading.Event(), []

        def publish():
            try:
                for delta in deltas:
                    store.put_delta(oid.hex, delta)
            finally:
                done.set()

        def fetch_until_done():
            mine, finished = DeltaDag(), False
            try:
                while not finished:
                    finished = done.is_set()  # one more answer after the last put
                    bundle = store.fetch(oid.hex, have_heads=mine.heads())
                    mine.add_all(SignedDelta.from_dict(d) for d in bundle["deltas"])
                    assert mine.heads() == bundle["heads"]
                assert len(mine) == len(deltas)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        # More threads than the two-core CI runners, switching every µs.
        threads = [threading.Thread(target=publish, daemon=True)] + [
            threading.Thread(target=fetch_until_done, daemon=True) for _ in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestDurability:
    def publish(self, clock, owner_keys, oid, make_writer, data_dir, compact=False):
        store = VersionedObjectStore(
            clock=clock, store=DurableStore(str(data_dir), sync=False)
        )
        writer = registered(store, owner_keys, oid, make_writer)
        dag = DeltaDag()
        store.put_delta(oid.hex, writer.put(dag, "body", b"durable-one"))
        store.put_delta(oid.hex, writer.put(dag, "body", b"durable-two"))
        merged = merge_deltas(dag.deltas, oid_hex=oid.hex)
        store.put_frontier_cert(oid.hex, writer.certify_frontier(merged))
        if compact:
            store.compact()
        store.close()
        return merged.digest_hex

    def test_restart_recovers_and_reverifies(
        self, clock, owner_keys, oid, make_writer, tmp_path
    ):
        """The same DAG, grant and frontier certificate come back —
        re-verified — from the journal and from its compacted rewrite."""
        for compact in (False, True):
            data_dir = tmp_path / f"compacted-{compact}"
            digest = self.publish(clock, owner_keys, oid, make_writer, data_dir, compact)
            revived = VersionedObjectStore(
                clock=clock, store=DurableStore(str(data_dir), sync=False)
            )
            assert revived.recovered_deltas == 2
            assert revived.reverified_deltas == 2
            assert revived.recovered_grants == 1
            bundle = revived.fetch(oid.hex)
            merged = merge_deltas(
                [SignedDelta.from_dict(d) for d in bundle["deltas"]], oid_hex=oid.hex
            )
            assert merged.digest_hex == digest
            assert bundle["frontier_cert"] is not None
            revived.close()

    def test_crc_valid_tamper_fails_closed(
        self, clock, owner_keys, oid, make_writer, tmp_path
    ):
        """An at-rest rewrite with a recomputed checksum must still be
        caught: recovery re-verifies signatures, not just CRCs — in the
        journal as admitted and in the log a compaction rewrote."""
        for compact in (False, True):
            data_dir = tmp_path / f"compacted-{compact}"
            self.publish(clock, owner_keys, oid, make_writer, data_dir, compact)
            self.assert_tamper_fails_closed(clock, data_dir)

    def assert_tamper_fails_closed(self, clock, tmp_path):
        with WriteAheadLog(str(tmp_path / WAL_NAME), sync=False) as wal:
            records = wal.take_records()
            deltas = [r for r in records if r.get("op") == "delta"]
            assert deltas
            for record in deltas:
                body = record["delta"]["envelope"]["payload"]["body"]
                body["ops"][0]["content"] = b"EVIL"
            wal.rewrite(records)  # CRC-valid: only signatures can tell
        with pytest.raises(RecoveryIntegrityError, match="signature invalid"):
            VersionedObjectStore(
                clock=clock, store=DurableStore(str(tmp_path), sync=False)
            )
