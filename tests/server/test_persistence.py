"""Object-server durability: crash recovery, re-verification, fail-closed.

The crash model throughout: "restart" means constructing a fresh
``ObjectServer`` over the same ``data_dir`` — nothing survives but the
disk, exactly as after a process kill.
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.errors import RecoveryIntegrityError
from repro.server.objectserver import ObjectServer
from repro.server.persistence import ServerStateStore
from repro.revocation.statement import RevocationStatement
from repro.storage.wal import FRAME_HEADER
from repro.util.encoding import canonical_bytes, from_canonical_bytes
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
    """Re-frame every WAL record after passing it through *mutate*.

    Frames are rebuilt with correct lengths and CRCs, so the result is a
    *CRC-valid* log — the tampering only the signature re-checks can see.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    out = bytearray()
    offset = 0
    while offset < len(data):
        length, _ = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER.size
        record = from_canonical_bytes(data[start : start + length])
        mutate(record)
        payload = canonical_bytes(record)
        out += FRAME_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        out += payload
        offset = start + length
    with open(path, "wb") as fh:
        fh.write(bytes(out))


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
        """Stores written before a certificate became its envelope carry
        ``cert_type``/``body``/``not_before``/``not_after`` beside every
        ``envelope``. Those keys are unsigned and now ignored, so such a
        data directory recovers and re-verifies unchanged."""
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
            wal_path = os.path.join(str(tmp_path), store, "wal.log")
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
        """State recovered from a snapshot (not just a journal replay)
        carries the same replicas, re-verified the same way."""
        server = make_server(tmp_path, clock)
        owners = []
        for i in range(3):
            owner = make_owner(f"vu.nl/doc{i}", {"p.html": f"page {i}".encode()})
            server.create_replica(owner.publish(validity=3600), owner.public_key, "o")
            owners.append(owner)
        server.state_store.compact(server._durable_state())
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
        stands between the attacker and the serve path. It must hold."""
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        server.create_replica(doc, owner.public_key, "owner")
        server.close()

        def swap_content(record):
            document = record.get("__record__", {}).get("document")
            if document:
                for element in document["elements"]:
                    if element["name"] == "index.html":
                        element["content"] = b"evil!!!"

        rewrite_wal(os.path.join(str(tmp_path), "server", "wal.log"), swap_content)
        with pytest.raises(RecoveryIntegrityError, match="unproven bytes"):
            make_server(tmp_path, clock)

    def test_swapped_public_key_refused(self, tmp_path, clock, signed_doc):
        """A key that does not hash to the OID breaks self-certification
        — the recovered replica must not be installed."""
        owner, doc = signed_doc
        server = make_server(tmp_path, clock)
        server.create_replica(doc, owner.public_key, "owner")
        server.close()

        attacker = fast_keys()

        def swap_key(record):
            document = record.get("__record__", {}).get("document")
            if document:
                document["public_key_der"] = attacker.public.der

        rewrite_wal(os.path.join(str(tmp_path), "server", "wal.log"), swap_key)
        with pytest.raises(RecoveryIntegrityError, match="does not hash to its OID"):
            make_server(tmp_path, clock)

    def test_unknown_journal_op_refused(self, tmp_path, clock):
        store = ServerStateStore(str(tmp_path), sync=False)
        store.store.append({"op": "install-backdoor"})
        store.close()
        reopened = ServerStateStore(str(tmp_path), sync=False)
        with pytest.raises(RecoveryIntegrityError, match="unknown operation"):
            reopened.recover()
        reopened.close()

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
        server.close()

        def retarget(record):
            statement_dict = record.get("__record__", {}).get("statement")
            if statement_dict:
                statement_dict["envelope"]["payload"]["body"]["reason"] = (
                    "haha benign actually"
                )

        rewrite_wal(os.path.join(str(tmp_path), "feed", "wal.log"), retarget)
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

        wal_path = os.path.join(str(tmp_path), "server", "wal.log")
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.truncate(size - 7)  # rip the tail off the last frame
        restarted = make_server(tmp_path, clock)
        assert restarted.recovered_replicas == 1
        assert restarted.hosts_oid(owners[0].oid.hex)
        assert not restarted.hosts_oid(owners[1].oid.hex)
        restarted.close()
