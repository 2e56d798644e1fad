"""DNSsec-style zone signing and chain-of-trust validation (§3.1).

Each zone signs (a) its OID records and (b) *delegation records* binding
each child zone's name to the child's public key — the analogue of DS
records. A resolver holding only the root zone's public key (the trust
anchor) can validate any record by walking the delegation chain, which
is exactly how the paper proposes storing self-certifying OIDs in
DNSsec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import NameNotFound, ZoneValidationError
from repro.naming.records import OidRecord, normalize_name
from repro.naming.zone import Zone, ZoneKeys
from repro.sim.clock import Clock
from repro.util.encoding import wire_bytes

__all__ = ["SignedZone", "DelegationRecord", "ChainValidator"]

OID_RECORD_CERT = "naming/oid-record"
DELEGATION_CERT = "naming/delegation"


@dataclass(frozen=True)
class DelegationRecord:
    """A signed statement: child zone *path* is keyed by *child_key*."""

    certificate: Certificate

    @classmethod
    def issue(
        cls,
        parent_keys: KeyPair,
        child_path: str,
        child_key: PublicKey,
        not_after: Optional[float] = None,
    ) -> "DelegationRecord":
        body = {"child_zone": child_path, "child_key_der": child_key.der}
        return cls(
            Certificate.issue(
                parent_keys, DELEGATION_CERT, body, not_after=not_after
            )
        )

    @property
    def child_zone(self) -> str:
        return str(self.certificate.body["child_zone"])

    @property
    def child_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["child_key_der"]))

    def verify(self, parent_key: PublicKey, clock: Optional[Clock] = None) -> PublicKey:
        try:
            self.certificate.verify(parent_key, clock=clock, expected_type=DELEGATION_CERT)
        except Exception as exc:
            # The body is unverified here: name the zone without trusting
            # it to have one.
            raise ZoneValidationError(
                f"delegation to {self.certificate.body.get('child_zone')!r} "
                f"failed to validate: {exc}"
            ) from exc
        return self.child_key

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DelegationRecord":
        return cls(Certificate.from_dict(data))


@dataclass(frozen=True)
class SignedOidRecord:
    """An OID record wrapped in a zone-signed certificate."""

    certificate: Certificate

    @classmethod
    def issue(
        cls,
        zone_keys: KeyPair,
        record: OidRecord,
        not_after: Optional[float] = None,
    ) -> "SignedOidRecord":
        return cls(
            Certificate.issue(
                zone_keys, OID_RECORD_CERT, record.to_dict(), not_after=not_after
            )
        )

    @property
    def record(self) -> OidRecord:
        return OidRecord.from_dict(self.certificate.body)

    def verify(self, zone_key: PublicKey, clock: Optional[Clock] = None) -> OidRecord:
        try:
            self.certificate.verify(zone_key, clock=clock, expected_type=OID_RECORD_CERT)
        except Exception as exc:
            raise ZoneValidationError(f"signed record failed to validate: {exc}") from exc
        return self.record

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SignedOidRecord":
        return cls(Certificate.from_dict(data))


class SignedZone:
    """A zone plus its key pair and signature material.

    Signing is incremental: adding a record signs just that record
    (unlike r-OSFS's whole-tree re-sign, and matching DNSsec RRSIGs).
    """

    def __init__(
        self,
        zone: Zone,
        keys: Optional[ZoneKeys] = None,
    ) -> None:
        self.zone = zone
        self.keys = keys if keys is not None else ZoneKeys(zone=zone.zone_path)
        self._signed_records: Dict[str, SignedOidRecord] = {}
        self._delegation_records: Dict[str, DelegationRecord] = {}

    @property
    def zone_path(self) -> str:
        return self.zone.zone_path

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public

    def add_record(self, record: OidRecord) -> SignedOidRecord:
        """Add and sign a name → OID binding."""
        self.zone.add_record(record)
        signed = SignedOidRecord.issue(self.keys.keys, record)
        self._signed_records[record.name] = signed
        return signed

    def delegate(self, child: "SignedZone") -> DelegationRecord:
        """Delegate to a signed child zone, issuing its DS-style record."""
        parent_path = self.zone_path
        child_path = child.zone_path
        prefix = f"{parent_path}/" if parent_path else ""
        if not child_path.startswith(prefix) or "/" in child_path[len(prefix):]:
            raise ZoneValidationError(
                f"{child_path!r} is not an immediate child of {parent_path!r}"
            )
        label = child_path[len(prefix):]
        self.zone.delegate(label)
        record = DelegationRecord.issue(
            self.keys.keys, child_path, child.public_key
        )
        self._delegation_records[child_path] = record
        return record

    def rotate_keys(self, new_keys: Optional[ZoneKeys] = None) -> "ZoneKeys":
        """Operational key rollover: replace this zone's key pair and
        re-sign everything it vouches for (its records and delegation
        records to its children). The *parent* must re-delegate with
        :meth:`delegate` afterwards — exactly the DS-record update a real
        DNSsec rollover requires; until then, resolvers validating
        through the old parent delegation will reject this zone's
        answers (fail-closed, tested)."""
        self.keys = new_keys if new_keys is not None else ZoneKeys(zone=self.zone_path)
        for name, signed in list(self._signed_records.items()):
            record = signed.record
            self._signed_records[name] = SignedOidRecord.issue(
                self.keys.keys, record
            )
        for child_path, record in list(self._delegation_records.items()):
            self._delegation_records[child_path] = DelegationRecord.issue(
                self.keys.keys, child_path, record.child_key
            )
        return self.keys

    def redelegate(self, child: "SignedZone") -> DelegationRecord:
        """Refresh the DS-style record for an existing child (e.g. after
        the child rotated its keys)."""
        if child.zone_path not in self._delegation_records:
            raise ZoneValidationError(
                f"{child.zone_path!r} is not a delegated child of {self.zone_path!r}"
            )
        record = DelegationRecord.issue(
            self.keys.keys, child.zone_path, child.public_key
        )
        self._delegation_records[child.zone_path] = record
        return record

    def signed_lookup(self, name: str) -> SignedOidRecord:
        """Authoritative signed answer for *name* (NameNotFound if absent)."""
        name = normalize_name(name)
        signed = self._signed_records.get(name)
        if signed is None:
            # Distinguish "delegated elsewhere" from "absent".
            self.zone.lookup(name)  # raises NameNotFound
            raise NameNotFound(f"record for {name!r} lost its signature")  # pragma: no cover
        return signed

    def delegation_record(self, child_path: str) -> DelegationRecord:
        record = self._delegation_records.get(child_path)
        if record is None:
            raise NameNotFound(f"no delegation record for zone {child_path!r}")
        return record

    def delegation_for(self, name: str) -> Optional[str]:
        return self.zone.delegation_for(name)


class ChainValidator:
    """Client-side validation of a delegation chain plus a signed record.

    The validator holds only the *trust anchor* (root zone key). Given
    the chain ``[delegation(nl), delegation(nl/vu)]`` and a signed
    record from ``nl/vu``, it checks each signature top-down and that
    the zone paths nest properly, then returns the validated record.
    """

    def __init__(self, root_key: PublicKey, clock: Optional[Clock] = None) -> None:
        self.root_key = root_key
        self.clock = clock

    def validate(
        self,
        chain: List[DelegationRecord],
        signed_record: SignedOidRecord,
    ) -> OidRecord:
        current_key = self.root_key
        current_zone = ""
        for link in chain:
            child_key = link.verify(current_key, clock=self.clock)
            child_zone = link.child_zone
            prefix = f"{current_zone}/" if current_zone else ""
            if not child_zone.startswith(prefix) or not child_zone[len(prefix):]:
                raise ZoneValidationError(
                    f"delegation chain broken: {child_zone!r} not under {current_zone!r}"
                )
            if "/" in child_zone[len(prefix):]:
                raise ZoneValidationError(
                    f"delegation skips levels: {child_zone!r} under {current_zone!r}"
                )
            current_key = child_key
            current_zone = child_zone
        return signed_record.verify(current_key, clock=self.clock)
