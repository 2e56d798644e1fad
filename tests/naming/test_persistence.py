"""Durable naming state: records and forwarding pointers across restarts.

Restart model: zones (and their signing keys) are the administrator's
configuration, reconstructed at service start; the durable store carries
only the *published data*. Recovered OID records are re-signed by the
live zones; recovered forwarding records must re-verify
self-certifyingly or recovery fails closed.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import RecoveryIntegrityError
from repro.globedoc.oid import ObjectId
from repro.naming.dnssec import SignedZone
from repro.naming.forwarding import ForwardingRecord
from repro.naming.records import OidRecord
from repro.naming.service import NameService
from repro.naming.zone import Zone, ZoneKeys
from repro.naming.persistence import DurableNamingStore
from repro.storage.store import WAL_NAME
from repro.storage.wal import WriteAheadLog
from tests.conftest import EPOCH, fast_keys


@pytest.fixture(scope="module")
def zone_keys():
    """One admin key ceremony, shared by 'both boots' of the service."""
    return {
        "": ZoneKeys(zone="", keys=fast_keys()),
        "nl": ZoneKeys(zone="nl", keys=fast_keys()),
        "nl/vu": ZoneKeys(zone="nl/vu", keys=fast_keys()),
    }


def build_service(zone_keys):
    service = NameService(SignedZone(Zone(""), keys=zone_keys[""]))
    service.add_zone(SignedZone(Zone("nl"), keys=zone_keys["nl"]))
    service.add_zone(SignedZone(Zone("nl/vu"), keys=zone_keys["nl/vu"]))
    return service


def bound_store(tmp_path, zone_keys):
    service = build_service(zone_keys)
    store = DurableNamingStore(os.path.join(str(tmp_path), "naming"), sync=False)
    store.bind(service)
    return service, store


class TestRecordRecovery:
    def test_records_survive_restart(self, tmp_path, zone_keys, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        service, store = bound_store(tmp_path, zone_keys)
        service.register(OidRecord(name="vu.nl/doc", oid=oid, ttl=300.0))
        service.register(OidRecord(name="toplevel.example", oid=oid, ttl=600.0))
        store.close()

        restarted, store2 = bound_store(tmp_path, zone_keys)
        assert store2.recovered_records == 2
        assert restarted.zone("nl/vu").zone.lookup("vu.nl/doc").oid.hex == oid.hex
        assert restarted.zone("").zone.lookup("toplevel.example").ttl == 600.0
        store2.close()

    def test_recovered_records_are_freshly_signed(self, tmp_path, zone_keys, shared_keys):
        """The restarted zone re-signs what it re-registers: the proof a
        resolver gets after the restart verifies against the live keys."""
        oid = ObjectId.from_public_key(shared_keys.public)
        service, store = bound_store(tmp_path, zone_keys)
        service.register(OidRecord(name="vu.nl/doc", oid=oid, ttl=300.0))
        store.close()

        restarted, store2 = bound_store(tmp_path, zone_keys)
        signed = restarted.zone("nl/vu").signed_lookup("vu.nl/doc")
        signed.verify(restarted.zone("nl/vu").public_key)
        store2.close()

    def test_reregistration_overwrites_not_duplicates(self, tmp_path, zone_keys, shared_keys):
        """The reduced view keys records by name: re-publishing a name
        journals twice but recovers once, with the latest binding."""
        oid_a = ObjectId.from_public_key(shared_keys.public)
        oid_b = ObjectId.from_public_key(fast_keys().public)
        service, store = bound_store(tmp_path, zone_keys)
        service.register(OidRecord(name="vu.nl/doc", oid=oid_a, ttl=300.0))
        service.register(OidRecord(name="vu.nl/doc", oid=oid_b, ttl=300.0))
        store.close()

        restarted, store2 = bound_store(tmp_path, zone_keys)
        assert store2.recovered_records == 1
        assert restarted.zone("nl/vu").zone.lookup("vu.nl/doc").oid.hex == oid_b.hex
        store2.close()

    def test_recovery_from_compacted_log(self, tmp_path, zone_keys, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        service, store = bound_store(tmp_path, zone_keys)
        service.register(OidRecord(name="vu.nl/doc", oid=oid, ttl=300.0))
        store.compact()
        assert store.store.journal_length == 0
        store.close()

        restarted, store2 = bound_store(tmp_path, zone_keys)
        assert store2.recovered_records == 1
        assert restarted.zone("nl/vu").zone.lookup("vu.nl/doc").oid.hex == oid.hex
        store2.close()


class TestForwardingRecovery:
    def forward(self, old_keys, new_keys):
        return ForwardingRecord.issue(
            old_keys,
            ObjectId.from_public_key(old_keys.public),
            ObjectId.from_public_key(new_keys.public),
            issued_at=EPOCH,
        )

    def test_forwarding_survives_restart(self, tmp_path, zone_keys, shared_keys, other_keys):
        record = self.forward(shared_keys, other_keys)
        service, store = bound_store(tmp_path, zone_keys)
        service.register_forwarding(record)
        store.close()

        restarted, store2 = bound_store(tmp_path, zone_keys)
        assert store2.recovered_forwards == 1
        answer = restarted.forward_for(record.from_oid.hex)
        recovered = ForwardingRecord.from_dict(answer["record"])
        recovered.verify()
        assert recovered.to_oid.hex == record.to_oid.hex
        store2.close()

    def test_tampered_forward_fails_recovery_closed(
        self, tmp_path, zone_keys, shared_keys, other_keys
    ):
        """A forwarding record whose redirect target was rewritten at
        rest would send every holder of the old OID to the attacker's
        object — recovery must refuse it, not re-serve it, whether it
        sits in the journal as published or inside a rewritten log."""
        record = self.forward(shared_keys, other_keys)
        attacker_oid = ObjectId.from_public_key(fast_keys().public)
        for compacted in (False, True):
            root = tmp_path / f"compacted-{compacted}"
            service, store = bound_store(root, zone_keys)
            service.register_forwarding(record)
            if compacted:
                store.compact()
            store.close()

            wal_path = os.path.join(str(root), "naming", WAL_NAME)
            with WriteAheadLog(wal_path, sync=False) as wal:
                records = wal.take_records()
                for frame in records:
                    if frame.get("op") == "forward":
                        body = frame["record"]["envelope"]["payload"]["body"]
                        body["to_oid"] = attacker_oid.to_dict()
                wal.rewrite(records)  # CRC-valid: only the signature can tell

            fresh = build_service(zone_keys)
            store2 = DurableNamingStore(os.path.join(str(root), "naming"), sync=False)
            with pytest.raises(RecoveryIntegrityError, match="tampered redirect.*signature invalid"):
                store2.bind(fresh)
            store2.close()


class TestJournalHygiene:
    def test_replay_does_not_rejournal(self, tmp_path, zone_keys, shared_keys):
        """Recovery must not append what it replays: restarting twice
        leaves the journal the same size, not doubled."""
        oid = ObjectId.from_public_key(shared_keys.public)
        service, store = bound_store(tmp_path, zone_keys)
        service.register(OidRecord(name="vu.nl/doc", oid=oid, ttl=300.0))
        length_after_publish = store.store.journal_length
        store.close()

        for _ in range(2):
            _, store_n = bound_store(tmp_path, zone_keys)
            assert store_n.store.journal_length == length_after_publish
            store_n.close()

    def test_unknown_journal_op_refused(self, tmp_path, zone_keys):
        store = DurableNamingStore(os.path.join(str(tmp_path), "naming"), sync=False)
        store.store.append({"op": "drop-all-zones"})
        store.close()

        fresh = build_service(zone_keys)
        store2 = DurableNamingStore(os.path.join(str(tmp_path), "naming"), sync=False)
        with pytest.raises(RecoveryIntegrityError, match="unknown operation"):
            store2.bind(fresh)
        store2.close()
