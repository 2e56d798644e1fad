"""Zones: the units of authority in the name hierarchy.

A zone owns a contiguous region of the name tree (``"nl/vu"`` owns
``vu.nl/...`` names) and either answers for a name directly with an OID
record or delegates a sub-zone to a child authority. Mirrors DNS zones
with DNSsec-style key pairs per zone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import NameNotFound, NamingError
from repro.naming.records import OidRecord, normalize_name, split_name

__all__ = ["Zone", "ZoneKeys"]


@dataclass
class ZoneKeys:
    """The signing key pair of one zone authority."""

    zone: str
    keys: KeyPair = field(default_factory=KeyPair.generate)

    @property
    def public(self) -> PublicKey:
        return self.keys.public


class Zone:
    """An unsigned zone: records plus delegations.

    ``zone_path`` uses hierarchy labels joined by ``/`` with the most
    significant first: the root zone is ``""``, ``"nl"`` under it,
    ``"nl/vu"`` under that. A name belongs to the deepest zone whose
    path is a prefix of the name's label list.
    """

    def __init__(self, zone_path: str) -> None:
        self.zone_path = zone_path
        self._records: Dict[str, OidRecord] = {}
        self._delegations: Dict[str, str] = {}  # child label -> child zone path

    def _check_authority(self, name: str) -> List[str]:
        labels = split_name(name)
        prefix = self.zone_path.split("/") if self.zone_path else []
        if labels[: len(prefix)] != prefix:
            raise NamingError(
                f"zone {self.zone_path!r} is not authoritative for {name!r}"
            )
        return labels

    def add_record(self, record: OidRecord) -> None:
        """Publish a name → OID binding in this zone."""
        self._check_authority(record.name)
        self._records[record.name] = record

    def remove_record(self, name: str) -> None:
        name = normalize_name(name)
        if name not in self._records:
            raise NameNotFound(f"no record for {name!r} in zone {self.zone_path!r}")
        del self._records[name]

    def delegate(self, child_label: str) -> str:
        """Delegate the *child_label* sub-zone; returns the child path."""
        if not child_label or "/" in child_label:
            raise NamingError(f"invalid delegation label: {child_label!r}")
        child_path = (
            f"{self.zone_path}/{child_label}" if self.zone_path else child_label
        )
        self._delegations[child_label] = child_path
        return child_path

    def lookup(self, name: str) -> OidRecord:
        """Authoritative lookup within this zone only."""
        name = normalize_name(name)
        record = self._records.get(name)
        if record is None:
            raise NameNotFound(f"no record for {name!r} in zone {self.zone_path!r}")
        return record

    def delegation_for(self, name: str) -> Optional[str]:
        """If *name* falls under a delegated child, its zone path."""
        labels = self._check_authority(name)
        depth = len(self.zone_path.split("/")) if self.zone_path else 0
        if len(labels) <= depth:
            return None
        child = labels[depth]
        return self._delegations.get(child)

    @property
    def records(self) -> List[OidRecord]:
        return [self._records[k] for k in sorted(self._records)]

    @property
    def delegations(self) -> Dict[str, str]:
        return dict(self._delegations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Zone({self.zone_path!r}, {len(self._records)} records, "
            f"{len(self._delegations)} delegations)"
        )
