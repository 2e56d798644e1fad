"""The GlobeDoc integrity certificate (§3.2.2, Fig. 2).

A digital certificate signed with the *object's* private key containing
one row per page element: the element's name, its SHA-1 hash, and a
validity interval (expiration time). Every replica must store it; every
client verifies against it. Per-element expiration is the design point
the paper contrasts with r-OSFS's single per-filesystem interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Sequence

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import (
    AuthenticityError,
    CertificateError,
    ConsistencyError,
    FreshnessError,
)
from repro.globedoc.element import PageElement
from repro.sim.clock import Clock
from repro.util.encoding import wire_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crypto.verifycache import VerificationCache

__all__ = ["ElementEntry", "IntegrityCertificate", "INTEGRITY_CERT_TYPE"]

INTEGRITY_CERT_TYPE = "globedoc/integrity"


@dataclass(frozen=True)
class ElementEntry:
    """One row of the certificate table: (name, hash, expiration)."""

    name: str
    content_hash: bytes
    expires_at: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hash": self.content_hash,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ElementEntry":
        return cls(
            name=str(data["name"]),
            content_hash=wire_bytes(data["hash"]),
            expires_at=float(data["expires_at"]),
        )


@dataclass(frozen=True)
class IntegrityCertificate:
    """Owner-signed table of element entries plus a version counter.

    ``version`` increases monotonically with each re-signing; replicas
    and proxies use it to prefer newer certificates, and the stale-replay
    attack test shows an old certificate is rejected once its entries
    expire.
    """

    certificate: Certificate

    @classmethod
    def build(
        cls,
        owner_keys: KeyPair,
        oid_hex: str,
        entries: Sequence[ElementEntry],
        version: int = 1,
        issued_at: Optional[float] = None,
    ) -> "IntegrityCertificate":
        """Sign a certificate over *entries* with the object private key."""
        if not entries:
            raise CertificateError("integrity certificate needs at least one entry")
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise CertificateError("duplicate element names in integrity certificate")
        body = {
            "oid": oid_hex,
            "version": int(version),
            "issued_at": issued_at,
            "entries": [e.to_dict() for e in sorted(entries, key=lambda e: e.name)],
        }
        cert = Certificate.issue(owner_keys, INTEGRITY_CERT_TYPE, body)
        return cls(certificate=cert)

    @classmethod
    def for_elements(
        cls,
        owner_keys: KeyPair,
        oid_hex: str,
        elements: Iterable[PageElement],
        expires_at: float,
        version: int = 1,
        per_element_expiry: Optional[Mapping[str, float]] = None,
        issued_at: Optional[float] = None,
    ) -> "IntegrityCertificate":
        """Hash *elements* and sign; *per_element_expiry* overrides the
        default *expires_at* for selected names (the paper's per-element
        freshness constraint)."""
        overrides = dict(per_element_expiry or {})
        entries = []
        seen = set()
        for element in elements:
            entries.append(
                ElementEntry(
                    name=element.name,
                    content_hash=element.content_hash(),
                    expires_at=float(overrides.pop(element.name, expires_at)),
                )
            )
            seen.add(element.name)
        if overrides:
            raise CertificateError(
                f"expiry overrides for unknown elements: {sorted(overrides)}"
            )
        return cls.build(
            owner_keys, oid_hex, entries, version=version, issued_at=issued_at
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def oid_hex(self) -> str:
        return str(self.certificate.body["oid"])

    @property
    def version(self) -> int:
        return int(self.certificate.body["version"])

    @property
    def issued_at(self) -> Optional[float]:
        value = self.certificate.body.get("issued_at")
        return None if value is None else float(value)

    @cached_property
    def _entry_table(self) -> Dict[str, ElementEntry]:
        """Name → entry map, parsed once: the signed body cannot change."""
        return {
            str(raw["name"]): ElementEntry.from_dict(raw)
            for raw in self.certificate.body["entries"]
        }

    @property
    def entries(self) -> Dict[str, ElementEntry]:
        """Name → entry map (a copy; the caller may mutate it)."""
        return dict(self._entry_table)

    @property
    def element_names(self) -> list:
        return sorted(self._entry_table)

    def entry_for(self, name: str) -> ElementEntry:
        """The entry for *name*; ConsistencyError if the certificate has none."""
        entry = self._entry_table.get(name)
        if entry is None:
            raise ConsistencyError(
                f"element {name!r} is not part of object {self.oid_hex[:16]}…"
            )
        return entry

    # ------------------------------------------------------------------
    # Verification (the client-side checks of §3.2.2)
    # ------------------------------------------------------------------

    def verify_signature(
        self,
        object_key: PublicKey,
        cache: Optional["VerificationCache"] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        """Authenticity of the certificate itself: signed by the object key.

        With a *cache*, a repeated verification of the same certificate
        under the same key replays the memoized RSA verdict (safe: the
        signed bytes are immutable); *clock* lets the cache honour
        certificate-level expiry.
        """
        try:
            self.certificate.verify(
                object_key, clock=clock, expected_type=INTEGRITY_CERT_TYPE, cache=cache
            )
        except CertificateError as exc:
            raise AuthenticityError(
                f"integrity certificate signature invalid: {exc}"
            ) from exc

    def check_element(
        self,
        requested_name: str,
        element: PageElement,
        clock: Clock,
    ) -> ElementEntry:
        """Run the consistency, authenticity, and freshness checks on a
        retrieved element (assumes :meth:`verify_signature` already ran).

        Order follows §3.2.2: name consistency first (is this the element
        I asked for, and is it part of the object?), then content hash,
        then validity interval against the retrieval time.
        """
        if element.name != requested_name:
            raise ConsistencyError(
                f"server returned element {element.name!r} for request {requested_name!r}"
            )
        entry = self.entry_for(requested_name)
        if element.content_hash() != entry.content_hash:
            raise AuthenticityError(
                f"content hash mismatch for element {requested_name!r} "
                "(element was tampered with or is not owner-created)"
            )
        now = clock.now()
        if now > entry.expires_at:
            raise FreshnessError(
                f"element {requested_name!r} expired at {entry.expires_at} "
                f"(retrieved at {now})"
            )
        return entry

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IntegrityCertificate":
        cert = Certificate.from_dict(data)
        if cert.cert_type != INTEGRITY_CERT_TYPE:
            raise CertificateError(
                f"not an integrity certificate: type={cert.cert_type!r}"
            )
        return cls(certificate=cert)

    @property
    def wire_size(self) -> int:
        """Wire-frame size — the ~2 KB "extra information" of Fig. 4."""
        return self.certificate.wire_size
