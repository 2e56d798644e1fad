"""Object-server durability: crash recovery, re-verification, fail-closed.

The crash model throughout: "restart" means constructing a fresh
``ObjectServer`` over the same ``data_dir`` — nothing survives but the
disk, exactly as after a process kill.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import CryptoError, EncodingError, RecoveryIntegrityError
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.server.objectserver import ObjectServer
from repro.server.persistence import ServerStateStore
from repro.revocation.statement import RevocationStatement
from repro.storage.store import WAL_NAME
from repro.storage.wal import WriteAheadLog
from tests.conftest import EPOCH, fast_keys


def make_server(tmp_path, clock):
    return ObjectServer(
        host="ginger",
        site="root/europe/vu",
        clock=clock,
        data_dir=str(tmp_path),
        storage_sync=False,
    )


@pytest.fixture
def signed_doc(make_owner):
    owner = make_owner("vu.nl/doc", {"index.html": b"content", "a.png": b"img"})
    return owner, owner.publish(validity=3600)


def rewrite_wal(path, mutate):
    """Pass every WAL record through *mutate* and write the log back
    through the WAL itself, so the result is a *CRC-valid* log — the
    tampering only the signature re-checks can see."""
    with WriteAheadLog(path, sync=False) as wal:
        records = wal.take_records()
        for record in records:
            mutate(record)
        wal.rewrite(records)


class TestRecovery:
    def test_cold_start_is_empty(self, tmp_path, clock):
        server = make_server(tmp_path, clock)
        assert server.replica_count == 0
        assert server.recovered_replicas == 0
        server.close()

    def test_replica_and_keystore_survive_restart(self, tmp_path, clock, signed_doc):
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        server.close()

        restarted = make_server(tmp_path, clock)
        assert restarted.recovered_replicas == 1
        assert restarted.reverified_replicas == 1
        assert restarted.keystore.is_authorized(owner.public_key)
        assert restarted.hosts_oid(doc.oid.hex)
        hosted = restarted._replicas[restarted._by_oid[doc.oid.hex]]
        assert hosted.lr.get_element("index.html").content == b"content"
        assert hosted.creator_label == "owner"
        assert hosted.creator_key_der == owner.public_key.der
        restarted.close()

    def test_destroy_survives_restart(self, tmp_path, clock, signed_doc):
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        hosted = server.create_replica(doc, owner.public_key, "owner")
        server.destroy_replica(hosted.replica_id, owner.public_key)
        server.close()

        restarted = make_server(tmp_path, clock)
        assert restarted.recovered_replicas == 0
        assert not restarted.hosts_oid(doc.oid.hex)
        restarted.close()

    def test_update_survives_restart(self, tmp_path, clock, make_owner):
        owner = make_owner("vu.nl/doc", {"index.html": b"v1"})
        doc = owner.publish(validity=3600)
        server = make_server(tmp_path, clock)
        server.create_replica(doc, owner.public_key, "owner")
        from repro.globedoc.element import PageElement

        owner.put_element(PageElement("index.html", b"v2 content"))
        newdoc = owner.publish(validity=3600)
        server.update_replica(newdoc, owner.public_key)
        server.close()

        restarted = make_server(tmp_path, clock)
        hosted = restarted._replicas[restarted._by_oid[doc.oid.hex]]
        assert hosted.lr.get_element("index.html").content == b"v2 content"
        restarted.close()

    def test_keystore_revocation_survives_restart(self, tmp_path, clock, signed_doc):
        """Revoking an entity destroys its replicas durably: the restart
        must not resurrect what the revocation tore down."""
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        server.revoke_entity(owner.public_key)
        server.close()

        restarted = make_server(tmp_path, clock)
        assert not restarted.keystore.is_authorized(owner.public_key)
        assert not restarted.hosts_oid(doc.oid.hex)
        assert restarted.recovered_replicas == 0
        restarted.close()

    def test_crash_mid_revocation_leaves_the_entity_revocable(
        self, tmp_path, clock, make_owner, monkeypatch
    ):
        """No compaction may land between an entity revocation's
        ``replica.destroy`` records: the key is already out of the
        keystore, so the rewritten log would keep the entity's remaining
        replicas with no ``authorize`` — and after a crash nothing could
        revoke them. The loop only appends; the ``revoke`` record that
        follows it makes the one compaction check."""
        creator = fast_keys()
        server = make_server(tmp_path, clock)
        server.keystore.authorize("creator", creator.public)
        for i in range(3):
            doc = make_owner(f"vu.nl/doc{i}").publish(validity=3600)
            server.create_replica(doc, creator.public, "creator")
        store = server.state_store.store
        store.compact_every = 1  # any checked append now rewrites the log
        real_append, appended = store.append, []

        class Crash(Exception):
            """The process died here."""

        def dying_append(record):
            if appended:  # one destroy is on disk; die before the second
                raise Crash
            appended.append(record)
            return real_append(record)

        monkeypatch.setattr(store, "append", dying_append)
        with pytest.raises(Crash):
            server.revoke_entity(creator.public)
        assert appended[0]["op"] == "replica.destroy"
        server.close()

        restarted = make_server(tmp_path, clock)
        assert restarted.recovered_replicas == 2
        assert restarted.revoke_entity(creator.public) is True
        assert restarted.replica_count == 0
        restarted.close()

    def test_revocation_feed_survives_restart(self, tmp_path, clock, signed_doc):
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        statement = RevocationStatement.revoke_key(
            owner.keys, doc.oid, serial=1, issued_at=EPOCH, reason="compromise"
        )
        server.revocation_feed.publish(statement)
        server.close()

        restarted = make_server(tmp_path, clock)
        assert restarted.revocation_feed.head == 1
        assert restarted.revocation_feed.recovered == 1
        assert restarted.revocation_feed.max_serial(doc.oid.hex) == 1
        restarted.close()

    def test_records_journaled_with_outer_fields_still_recover(
        self, tmp_path, clock, signed_doc
    ):
        """A record carrying ``cert_type``/``body``/``not_before``/
        ``not_after`` beside an ``envelope`` recovers and re-verifies
        unchanged: keys beside the envelope are unsigned and ignored."""
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        server.create_replica(doc, owner.public_key, "owner")
        server.revocation_feed.publish(
            RevocationStatement.revoke_element(
                owner.keys, doc.oid, "a.png", cert_version=1, serial=1, issued_at=EPOCH
            )
        )
        server.close()

        def add_outer_fields(value):
            if isinstance(value, list):
                for item in value:
                    add_outer_fields(item)
            elif isinstance(value, dict):
                for item in list(value.values()):
                    add_outer_fields(item)
                if "envelope" in value:
                    payload = value["envelope"]["payload"]
                    value.update(
                        cert_type=payload["type"],
                        body=payload["body"],
                        not_before=payload["not_before"],
                        not_after=payload["not_after"],
                    )

        for store in ("server", "feed"):
            wal_path = os.path.join(str(tmp_path), store, WAL_NAME)
            size = os.path.getsize(wal_path)
            rewrite_wal(wal_path, add_outer_fields)
            assert os.path.getsize(wal_path) > size

        restarted = make_server(tmp_path, clock)
        assert restarted.reverified_replicas == 1
        assert restarted.revocation_feed.recovered == 1
        hosted = restarted._replicas[restarted._by_oid[doc.oid.hex]]
        assert hosted.lr.get_integrity_certificate() == doc.integrity
        restarted.close()

    def test_recovery_survives_compaction(self, tmp_path, clock, make_owner):
        """State recovered from a rewritten log carries the same
        replicas as the journal it replaced, re-verified the same way."""
        server = make_server(tmp_path, clock)
        owners = []
        for i in range(3):
            owner = make_owner(f"vu.nl/doc{i}", {"p.html": f"page {i}".encode()})
            server.create_replica(owner.publish(validity=3600), owner.public_key, "o")
            owners.append(owner)
        server.compact()
        assert server.state_store.store.journal_length == 0
        server.close()

        restarted = make_server(tmp_path, clock)
        assert restarted.recovered_replicas == 3
        assert restarted.reverified_replicas == 3
        for i, owner in enumerate(owners):
            hosted = restarted._replicas[restarted._by_oid[owner.oid.hex]]
            assert hosted.lr.get_element("p.html").content == f"page {i}".encode()
        restarted.close()


class TestFailClosed:
    def test_tampered_content_refused(self, tmp_path, clock, signed_doc):
        """CRC-valid tampering: the element bytes are swapped and every
        frame re-checksummed, so only the recovery-time signature check
        stands between the attacker and the serve path. It must hold —
        for the record as journaled and for the one a compaction wrote."""
        owner, doc = signed_doc

        def swap_content(record):
            document = record.get("document")
            if document:
                for element in document["elements"]:
                    if element["name"] == "index.html":
                        element["content"] = b"evil!!!"

        for compacted in (False, True):
            data_dir = tmp_path / f"compacted-{compacted}"
            server = make_server(data_dir, clock)
            server.create_replica(doc, owner.public_key, "owner")
            if compacted:
                server.compact()
            server.close()
            rewrite_wal(os.path.join(str(data_dir), "server", WAL_NAME), swap_content)
            with pytest.raises(RecoveryIntegrityError, match="unproven bytes"):
                make_server(data_dir, clock)

    def test_swapped_public_key_refused(self, tmp_path, clock, signed_doc):
        """A key that does not hash to the OID breaks self-certification
        — the recovered replica must not be installed."""
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        server.create_replica(doc, owner.public_key, "owner")
        server.close()

        attacker = fast_keys()

        def swap_key(record):
            document = record.get("document")
            if document:
                document["public_key_der"] = attacker.public.der

        rewrite_wal(os.path.join(str(tmp_path), "server", WAL_NAME), swap_key)
        with pytest.raises(RecoveryIntegrityError, match="does not hash to its OID"):
            make_server(tmp_path, clock)

    def test_unknown_journal_op_refused(self, tmp_path, clock):
        store = ServerStateStore(str(tmp_path), sync=False)
        store.store.append({"op": "install-backdoor"})
        store.store.close()
        reopened = ServerStateStore(str(tmp_path), sync=False)
        with pytest.raises(RecoveryIntegrityError, match="unknown operation"):
            reopened.recover()
        reopened.store.close()

    def test_tampered_feed_statement_refused(self, tmp_path, clock, signed_doc):
        """A revocation statement whose signature no longer verifies
        means the feed store was rewritten — recovery must not produce a
        poisoned log."""
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        statement = RevocationStatement.revoke_key(
            owner.keys, doc.oid, serial=1, issued_at=EPOCH, reason="compromise"
        )
        server.revocation_feed.publish(statement)
        server.compact()  # the statement now sits inside a rewritten log
        server.close()

        def retarget(record):
            statement_dict = record.get("statement")
            if statement_dict:
                statement_dict["envelope"]["payload"]["body"]["reason"] = (
                    "haha benign actually"
                )

        rewrite_wal(os.path.join(str(tmp_path), "feed", WAL_NAME), retarget)
        with pytest.raises(RecoveryIntegrityError, match="poisoned log.*signature invalid"):
            make_server(tmp_path, clock)

    def test_torn_server_journal_recovers_prefix(self, tmp_path, clock, make_owner):
        """A torn tail costs the unflushed suffix, never the prefix — and
        never admits a half-written replica."""
        owners = []
        server = make_server(tmp_path, clock)
        for i in range(2):
            owner = make_owner(f"vu.nl/doc{i}", {"p.html": f"page {i}".encode()})
            server.create_replica(owner.publish(validity=3600), owner.public_key, "o")
            owners.append(owner)
        server.close()

        wal_path = os.path.join(str(tmp_path), "server", WAL_NAME)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.truncate(size - 7)  # rip the tail off the last frame
        restarted = make_server(tmp_path, clock)
        assert restarted.recovered_replicas == 1
        assert restarted.hosts_oid(owners[0].oid.hex)
        assert not restarted.hosts_oid(owners[1].oid.hex)
        restarted.close()


class TestUntrustedKeyDer:
    """A key's DER arrives from the wire or from disk, and both are
    untrusted: a non-bytes value is never ``bytes()``-ed into an
    allocation of that size, and DER that does not parse opens no
    namespace and journals nothing."""

    @pytest.mark.parametrize(
        "key_der, error",
        [(50_000_000, EncodingError), (b"not a DER key", CryptoError)],
        ids=["an_int", "unparsable"],
    )
    def test_register_over_rpc_is_refused_with_nothing_journaled(
        self, tmp_path, clock, key_der, error
    ):
        server = make_server(tmp_path, clock)
        transport = LoopbackTransport()
        transport.register(server.endpoint, server.rpc_server().handle_frame)
        with pytest.raises(error):
            RpcClient(transport).call(
                server.endpoint, "versioning.register", object_key_der=key_der
            )
        assert server.versioning._objects == {}
        server.close()
        with WriteAheadLog(os.path.join(str(tmp_path), "versioning", WAL_NAME)) as wal:
            assert wal.take_records() == []

    @pytest.mark.parametrize(
        "component, op",
        [("versioning", "register"), ("server", "authorize")],
    )
    def test_journal_record_with_an_int_key_fails_recovery(
        self, tmp_path, clock, component, op
    ):
        server = make_server(tmp_path, clock)
        server.versioning.register_object(fast_keys().public)
        server.keystore.authorize("owner", fast_keys().public)
        server.close()

        def corrupt(record):
            if record.get("op") == op:
                record["key_der"] = 50_000_000

        rewrite_wal(os.path.join(str(tmp_path), component, WAL_NAME), corrupt)
        with pytest.raises(RecoveryIntegrityError, match="expected a bytes field"):
            make_server(tmp_path, clock)
