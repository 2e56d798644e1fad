"""Generic certificate machinery.

A *certificate* here is a signed statement with a validity window and a
declared type tag. GlobeDoc's integrity certificate
(:mod:`repro.globedoc.integrity`) and CA identity certificates
(:mod:`repro.crypto.identity`) are both built on this base, which keeps
signature handling, expiry checks, and wire encoding in one place.

A certificate *is* its signed envelope: type, body and validity window
are read out of the signed payload, never stored beside it, so there is
no second copy that could disagree with what the signature covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signing import SignedEnvelope
from repro.errors import CertificateError
from repro.sim.clock import Clock
from repro.util.encoding import to_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crypto.verifycache import VerificationCache

__all__ = ["Certificate"]


@dataclass(frozen=True)
class Certificate:
    """A typed, signed statement with optional validity window.

    ``body`` carries type-specific fields; ``cert_type`` disambiguates so
    a signature over one certificate type can never be replayed as
    another (type is part of the signed payload).
    """

    envelope: SignedEnvelope

    @property
    def cert_type(self) -> str:
        return self.envelope.payload["type"]

    @property
    def body(self) -> Mapping[str, Any]:
        return self.envelope.payload["body"]

    @property
    def not_before(self) -> Optional[float]:
        return self.envelope.payload["not_before"]

    @property
    def not_after(self) -> Optional[float]:
        return self.envelope.payload["not_after"]

    @classmethod
    def issue(
        cls,
        signer: KeyPair,
        cert_type: str,
        body: Mapping[str, Any],
        not_before: Optional[float] = None,
        not_after: Optional[float] = None,
    ) -> "Certificate":
        """Create and sign a certificate."""
        if not_before is not None and not_after is not None and not_after < not_before:
            raise CertificateError(
                f"validity window is empty: not_after {not_after} < not_before {not_before}"
            )
        payload = {
            "type": cert_type,
            "body": dict(body),
            "not_before": not_before,
            "not_after": not_after,
        }
        return cls(SignedEnvelope.create(signer, payload))

    def verify(
        self,
        key: PublicKey,
        clock: Optional[Clock] = None,
        expected_type: Optional[str] = None,
        cache: Optional["VerificationCache"] = None,
    ) -> Mapping[str, Any]:
        """Check type, validity window, then signature; return the body.

        With a *cache*, the RSA verification is memoized (cache entries
        expire with the certificate's ``not_after``); the type and
        validity-window checks always run, and run first, so a
        certificate outside its window costs no RSA operation and leaves
        no cache entry.
        Raises :class:`~repro.errors.CertificateError` on any failure.
        """
        if expected_type is not None and self.cert_type != expected_type:
            raise CertificateError(
                f"certificate type {self.cert_type!r} != expected {expected_type!r}"
            )
        now = clock.now() if clock is not None else None
        if now is not None:
            if self.not_before is not None and now < self.not_before:
                raise CertificateError(
                    f"certificate not yet valid (now={now}, not_before={self.not_before})"
                )
            if self.not_after is not None and now > self.not_after:
                raise CertificateError(
                    f"certificate expired (now={now}, not_after={self.not_after})"
                )
        try:
            self.envelope.verify(key, cache=cache, now=now, expires_at=self.not_after)
        except Exception as exc:
            raise CertificateError(f"certificate signature invalid: {exc}") from exc
        return self.body

    def to_dict(self) -> dict:
        """Wire and at-rest form: the signed envelope under one key (why
        the nesting is kept: DESIGN.md §6)."""
        return {"envelope": self.envelope.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Certificate":
        """Inverse of :meth:`to_dict`; validates the payload's shape.

        Only ``data["envelope"]`` is read: a key beside it is unsigned
        (records written when the fields were also stored outside the
        envelope carry four) and ignored.
        """
        try:
            envelope = SignedEnvelope.from_dict(data["envelope"])
            payload = envelope.payload
            well_formed = (
                isinstance(payload["type"], str)
                and isinstance(payload["body"], Mapping)
                # A validity bound is absent or a real number (not bool).
                and all(
                    bound is None
                    or (isinstance(bound, (int, float)) and not isinstance(bound, bool))
                    for bound in (payload["not_before"], payload["not_after"])
                )
            )
        except (KeyError, TypeError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc
        if not well_formed:
            raise CertificateError("malformed certificate: payload field has wrong type")
        return cls(envelope)

    @property
    def wire_size(self) -> int:
        """Bytes of its wire frame, for transfer accounting."""
        return len(to_wire(self.to_dict()))
