"""Durable naming state: name → OID records across restarts.

Restart model: zones (and their signing keys) are the administrator's
configuration, reconstructed at service start; the durable store carries
only the *published data*. Recovered OID records are re-signed by the
live zones; any other journal operation fails recovery closed.
"""

from __future__ import annotations

import os

import pytest

from repro.crypto.certificates import Certificate
from repro.errors import RecoveryIntegrityError
from repro.globedoc.oid import ObjectId
from repro.naming.dnssec import SignedZone
from repro.naming.records import OidRecord
from repro.naming.service import NameService
from repro.naming.zone import Zone, ZoneKeys
from repro.naming.persistence import DurableNamingStore
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

    def test_unknown_journal_op_refused(self, tmp_path, zone_keys, shared_keys, other_keys):
        """Including the ``forward`` frame older journals hold: an
        ``old OID → new OID`` redirect signed by the old key, which is
        refused, never dropped and never followed."""
        old_oid = ObjectId.from_public_key(shared_keys.public)
        forward = Certificate.issue(
            shared_keys,
            "naming/forwarding",
            {
                "from_oid": old_oid.to_dict(),
                "to_oid": ObjectId.from_public_key(other_keys.public).to_dict(),
                "issued_at": EPOCH,
                "issuer_key_der": shared_keys.public.der,
            },
            not_before=EPOCH,
        )
        record = OidRecord(name="vu.nl/doc", oid=old_oid, ttl=300.0)
        for op, frame in (
            ("drop-all-zones", {"op": "drop-all-zones"}),
            ("forward", {"op": "forward", "record": forward.to_dict()}),
        ):
            directory = os.path.join(str(tmp_path), op)
            store = DurableNamingStore(directory, sync=False)
            store.store.append({"op": "record", "record": record.to_dict()})
            store.store.append(frame)
            store.close()

            fresh = build_service(zone_keys)
            store2 = DurableNamingStore(directory, sync=False)
            with pytest.raises(RecoveryIntegrityError, match=f"unknown operation '{op}'"):
                store2.bind(fresh)
            assert store2.recovered_records == 0
            store2.close()
