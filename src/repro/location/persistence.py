"""Durable backend for the location service: contact-address records.

The location service is untrusted *hint* infrastructure — clients
verify everything they fetch against the self-certifying OID — so its
records carry no signatures to re-check. What a restart must not lose
is *availability*: a location tree that comes back empty strands every
OID until replicas re-register, which under dynamic replication can be
never (the coordinator only issues deltas). The journal therefore
captures every accepted ``insert`` and ``delete`` (a migration is a
delete then an insert) and recovery reduces them to the final address
set, guarded by the storage layer's frame checksums (the same integrity
story as any routing table).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RecoveryIntegrityError, ReproError
from repro.net.address import ContactAddress
from repro.storage.store import DurableStore

__all__ = ["DurableLocationStore"]


class DurableLocationStore:
    """Journals a :class:`~repro.location.service.LocationService`'s
    mutations and replays the reduced address set into a fresh tree."""

    def __init__(
        self, directory, sync: bool = True, compact_every: Optional[int] = 256
    ) -> None:
        self.store = DurableStore(directory, sync=sync, compact_every=compact_every)
        #: Reduced view: (oid, site) → list of address wire dicts.
        self._entries: Dict[Tuple[str, str], List[dict]] = {}
        self.recovered_addresses = 0

    def bind(self, service) -> None:
        """Replay persisted addresses into *service*, then journal
        through it. Call after the domain tree's sites are attached."""
        self.store.replay(self._reduce)
        for (oid, site), addresses in sorted(self._entries.items()):
            for address in addresses:
                try:
                    service.tree.insert(oid, site, ContactAddress.from_dict(address))
                except ReproError as exc:
                    raise RecoveryIntegrityError(
                        f"recovered location record for OID {oid[:12]}… was "
                        f"refused by the live tree: {exc}"
                    ) from exc
                self.recovered_addresses += 1
        service.journal = self._journal

    def _reduce(self, record: dict) -> None:
        op = record.get("op")
        if op == "insert":
            key = (str(record["oid"]), str(record["site"]))
            self._entries.setdefault(key, []).append(dict(record["address"]))
        elif op == "delete":
            key = (str(record["oid"]), str(record["site"]))
            addresses = self._entries.get(key, [])
            try:
                addresses.remove(dict(record["address"]))
            except ValueError:
                pass
            if not addresses:
                self._entries.pop(key, None)
        else:
            raise RecoveryIntegrityError(
                f"location journal holds an unknown operation {op!r}"
            )

    def _journal(self, record: dict) -> None:
        self._reduce(record)
        self.store.append(record)
        self.store.maybe_compact(self._live_records)

    def _live_records(self) -> List[dict]:
        """One ``insert`` per live address."""
        return [
            {"op": "insert", "oid": oid, "site": site, "address": address}
            for (oid, site), addresses in sorted(self._entries.items())
            for address in addresses
        ]

    def compact(self) -> None:
        self.store.compact(self._live_records())

    def close(self) -> None:
        self.store.close()
