"""Durable location state: the address set survives restarts.

The location tree is untrusted-hint infrastructure — no signatures to
re-check — so these tests pin the *availability* contract: every
accepted insert and delete is journaled, the reduced address set comes
back after a restart, and replay does not re-journal itself.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import RecoveryIntegrityError
from repro.location.service import LocationService
from repro.location.tree import DomainTree
from repro.location.persistence import DurableLocationStore
from repro.net.address import ContactAddress, Endpoint

SITES = ["root", "root/europe", "root/europe/vu", "root/europe/inria"]


def address(host):
    return ContactAddress(
        endpoint=Endpoint(host=host, service="objectserver"),
        protocol="globedoc/replica",
        replica_id=f"replica@{host}",
    )


def build_service():
    tree = DomainTree()
    for site in SITES:
        tree.add_site(site)
    return LocationService(tree)


def bound_store(tmp_path):
    service = build_service()
    store = DurableLocationStore(os.path.join(str(tmp_path), "location"), sync=False)
    store.bind(service)
    return service, store


OID = "ab" * 20
OTHER_OID = "cd" * 20


class TestRecovery:
    def test_inserts_survive_restart(self, tmp_path):
        service, store = bound_store(tmp_path)
        service.insert(OID, "root/europe/vu", address("ginger").to_dict())
        service.insert(OTHER_OID, "root/europe/inria", address("asterix").to_dict())
        store.close()

        restarted, store2 = bound_store(tmp_path)
        assert store2.recovered_addresses == 2
        answer = restarted.lookup(OID, origin_site="root/europe/vu")
        assert [a["replica_id"] for a in answer["addresses"]] == ["replica@ginger"]
        answer = restarted.lookup(OTHER_OID, origin_site="root/europe/inria")
        assert [a["replica_id"] for a in answer["addresses"]] == ["replica@asterix"]
        store2.close()

    def test_delete_survives_restart(self, tmp_path):
        service, store = bound_store(tmp_path)
        service.insert(OID, "root/europe/vu", address("ginger").to_dict())
        service.delete(OID, "root/europe/vu", address("ginger").to_dict())
        store.close()

        restarted, store2 = bound_store(tmp_path)
        assert store2.recovered_addresses == 0
        from repro.errors import LocationError

        with pytest.raises(LocationError):
            restarted.lookup(OID, origin_site="root/europe/vu")
        store2.close()

    def test_move_survives_restart(self, tmp_path):
        """A replica migration journals as a delete then an insert;
        recovery lands the address at the destination site only."""
        service, store = bound_store(tmp_path)
        service.insert(OID, "root/europe/vu", address("ginger").to_dict())
        service.delete(OID, "root/europe/vu", address("ginger").to_dict())
        service.insert(OID, "root/europe/inria", address("ginger").to_dict())
        store.close()

        restarted, store2 = bound_store(tmp_path)
        assert store2.recovered_addresses == 1
        answer = restarted.lookup(OID, origin_site="root/europe/inria")
        assert [a["replica_id"] for a in answer["addresses"]] == ["replica@ginger"]
        store2.close()

    def test_recovery_from_compacted_log(self, tmp_path):
        service, store = bound_store(tmp_path)
        service.insert(OID, "root/europe/vu", address("ginger").to_dict())
        store.compact()
        assert store.store.journal_length == 0
        service.insert(OTHER_OID, "root/europe/vu", address("obelix").to_dict())
        store.close()

        restarted, store2 = bound_store(tmp_path)
        assert store2.recovered_addresses == 2
        for oid, host in [(OID, "ginger"), (OTHER_OID, "obelix")]:
            answer = restarted.lookup(oid, origin_site="root/europe/vu")
            assert [a["replica_id"] for a in answer["addresses"]] == [f"replica@{host}"]
        store2.close()

    def test_replay_does_not_rejournal(self, tmp_path):
        service, store = bound_store(tmp_path)
        service.insert(OID, "root/europe/vu", address("ginger").to_dict())
        length = store.store.journal_length
        store.close()

        for _ in range(2):
            _, store_n = bound_store(tmp_path)
            assert store_n.store.journal_length == length
            store_n.close()


class TestFailClosed:
    def test_unknown_journal_op_refused(self, tmp_path):
        store = DurableLocationStore(os.path.join(str(tmp_path), "location"), sync=False)
        store.store.append({"op": "reroute-everything"})
        store.close()

        store2 = DurableLocationStore(os.path.join(str(tmp_path), "location"), sync=False)
        with pytest.raises(RecoveryIntegrityError, match="unknown operation"):
            store2.bind(build_service())
        store2.close()

    def test_retired_move_frame_refused(self, tmp_path):
        """``move`` left the vocabulary with ``location.move``: a journal
        that still holds one fails closed rather than replaying it as a
        delete plus an insert."""
        directory = os.path.join(str(tmp_path), "location")
        store = DurableLocationStore(directory, sync=False)
        store.store.append(
            {"op": "insert", "oid": OID, "site": "root/europe/vu",
             "address": address("ginger").to_dict()}
        )
        store.store.append(
            {"op": "move", "oid": OID, "address": address("ginger").to_dict(),
             "from_site": "root/europe/vu", "to_site": "root/europe/inria"}
        )
        store.close()

        store2 = DurableLocationStore(directory, sync=False)
        with pytest.raises(RecoveryIntegrityError, match="unknown operation 'move'"):
            store2.bind(build_service())
        assert store2.recovered_addresses == 0
        store2.close()

    def test_record_for_missing_site_refused(self, tmp_path):
        """An address naming a site the restarted tree does not have is
        surfaced as a recovery error, not silently dropped — the
        operator must reconcile topology, not lose replicas quietly."""
        service, store = bound_store(tmp_path)
        service.insert(OID, "root/europe/vu", address("ginger").to_dict())
        store.close()

        bare = LocationService(DomainTree())
        bare.add_site("root")  # topology shrank: vu is gone
        store2 = DurableLocationStore(os.path.join(str(tmp_path), "location"), sync=False)
        with pytest.raises(RecoveryIntegrityError, match="refused by the live tree"):
            store2.bind(bare)
        store2.close()
