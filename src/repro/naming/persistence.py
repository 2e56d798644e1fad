"""Durable backend for the naming service: records + forwarding pointers.

Zones and their keys are the administrator's configuration (constructed
at service start, like a DNSsec key ceremony); what must survive a
restart is the *published data*: name → OID records and the
old-OID → successor forwarding pointers minted by emergency re-keying.
Losing a forwarding pointer strands every client holding the old OID —
a silent availability failure the paper's re-keying design does not
tolerate.

Recovery discipline: OID records are re-registered through the normal
path, so the recovering zone re-signs each one with its live key (a
restarted service never serves stale signatures). Forwarding records
are *self-certifying* — recovery re-runs ``record.verify()`` and fails
closed (:class:`~repro.errors.RecoveryIntegrityError`) on any record
whose signature no longer proves the old key authorised the forward:
a tampered store must not redirect clients to an attacker's OID.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import RecoveryIntegrityError, ReproError
from repro.naming.forwarding import ForwardingRecord
from repro.naming.records import OidRecord
from repro.storage.store import DurableStore

__all__ = ["DurableNamingStore"]


class DurableNamingStore:
    """Journals a :class:`~repro.naming.service.NameService`'s published
    records and replays them (verified) into a fresh service."""

    def __init__(
        self, directory, sync: bool = True, compact_every: Optional[int] = 128
    ) -> None:
        self.store = DurableStore(directory, sync=sync, compact_every=compact_every)
        #: Reduced view: name → its ``record``, old OID → its ``forward``.
        self._records: Dict[str, dict] = {}
        self._forwards: Dict[str, dict] = {}
        self.recovered_records = 0
        self.recovered_forwards = 0

    def bind(self, service) -> None:
        """Replay persisted state into *service*, then journal through it.

        Call after the service's zones are attached (records re-register
        into the authoritative zone, which must exist to re-sign them).
        """
        self.store.replay(self._reduce)
        for name, record in self._records.items():
            try:
                service.register(OidRecord.from_dict(record["record"]))
            except ReproError as exc:
                raise RecoveryIntegrityError(
                    f"recovered naming record {name!r} was "
                    f"refused by the live zone: {exc}"
                ) from exc
            self.recovered_records += 1
        for record in self._forwards.values():
            try:
                # register_forwarding re-runs record.verify(): the
                # self-certifying signature is the integrity check.
                service.register_forwarding(
                    ForwardingRecord.from_dict(record["record"])
                )
            except ReproError as exc:
                raise RecoveryIntegrityError(
                    "recovered forwarding record no longer verifies — "
                    f"refusing to follow a tampered redirect: {exc}"
                ) from exc
            self.recovered_forwards += 1
        # Hook in *after* replay so recovery does not re-journal itself.
        service.journal = self._journal

    @staticmethod
    def _forward_key(data: dict) -> str:
        """The old-OID hex a forwarding wire dict redirects from."""
        try:
            return ForwardingRecord.from_dict(data).from_oid.hex
        except Exception as exc:
            raise RecoveryIntegrityError(
                f"forwarding record in the naming store does not decode: {exc}"
            ) from exc

    def _reduce(self, record: dict) -> None:
        op = record.get("op")
        if op == "record":
            self._records[str(record["record"]["name"])] = record
        elif op == "forward":
            self._forwards[self._forward_key(record["record"])] = record
        else:
            raise RecoveryIntegrityError(
                f"naming journal holds an unknown operation {op!r}"
            )

    def _journal(self, record: dict) -> None:
        self._reduce(record)
        self.store.append(record)
        self.store.maybe_compact(self._live_records)

    def _live_records(self) -> List[dict]:
        """One ``record`` per live name, one ``forward`` per old OID."""
        return [self._records[name] for name in sorted(self._records)] + [
            self._forwards[key] for key in sorted(self._forwards)
        ]

    def compact(self) -> None:
        self.store.compact(self._live_records())

    def close(self) -> None:
        self.store.close()
