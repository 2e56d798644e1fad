"""Durable backend for the naming service: its name → OID records.

Zones and their keys are the administrator's configuration (constructed
at service start, like a DNSsec key ceremony); what must survive a
restart is the *published data*: the name → OID records.

Recovery discipline: OID records are re-registered through the normal
path, so the recovering zone re-signs each one with its live key (a
restarted service never serves stale signatures). A journal operation
other than ``record`` fails recovery closed
(:class:`~repro.errors.RecoveryIntegrityError`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import RecoveryIntegrityError, ReproError
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
        #: Reduced view: name → its ``record``.
        self._records: Dict[str, dict] = {}
        self.recovered_records = 0

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
        # Hook in *after* replay so recovery does not re-journal itself.
        service.journal = self._journal

    def _reduce(self, record: dict) -> None:
        op = record.get("op")
        if op != "record":
            raise RecoveryIntegrityError(
                f"naming journal holds an unknown operation {op!r}"
            )
        self._records[str(record["record"]["name"])] = record

    def _journal(self, record: dict) -> None:
        self._reduce(record)
        self.store.append(record)
        self.store.maybe_compact(self._live_records)

    def _live_records(self) -> List[dict]:
        """One ``record`` per live name."""
        return [self._records[name] for name in sorted(self._records)]

    def compact(self) -> None:
        self.store.compact(self._live_records())

    def close(self) -> None:
        self.store.close()
