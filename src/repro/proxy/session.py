"""A secure session with one GlobeDoc object.

Implements the full flow of Fig. 3 on top of a bound object: fetch and
verify the public key (steps 4–5), optional identity proofs (6–7), the
integrity certificate (8–9), then per-element retrieval with the hash /
freshness / consistency checks (10–13). The verified binding is cached
so subsequent element fetches skip the (~2 KB) key+certificate exchange
— the knob the certificate-cache ablation turns off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    BindingError,
    ObjectNotFound,
    ReplicaError,
    RevocationError,
    RpcError,
    SecurityError,
    TransportError,
)
from repro.globedoc.element import PageElement
from repro.obs import NOOP_TRACER
from repro.proxy.binding import Binder, BoundObject
from repro.proxy.checks import SecurityChecker, VerifiedBinding

__all__ = ["SecureSession", "FetchResult"]


@dataclass(frozen=True)
class FetchResult:
    """A verified element and who its object is certified as."""

    element: PageElement
    certified_as: Optional[str] = None

    @property
    def content(self) -> bytes:
        return self.element.content


class SecureSession:
    """Per-object secure binding state.

    A session is created by the proxy the first time an object is
    accessed and reused afterwards. ``cache_binding=False`` forces the
    paper's worst case — every element access repeats the key and
    certificate exchange — and is what Fig. 4 measures (single-element
    objects access the object exactly once anyway).
    """

    def __init__(
        self,
        binder: Binder,
        checker: SecurityChecker,
        bound: BoundObject,
        cache_binding: bool = True,
        require_identity: bool = False,
        max_rebinds: int = 3,
        content_cache=None,
        tracer=None,
    ) -> None:
        self.binder = binder
        self.checker = checker
        self.bound = bound
        self.cache_binding = cache_binding
        self.require_identity = require_identity
        self.max_rebinds = max_rebinds
        self.content_cache = content_cache
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._verified: Optional[VerifiedBinding] = None
        self.rebind_count = 0

    # ------------------------------------------------------------------
    # Secure binding (steps 4–9 of Fig. 3)
    # ------------------------------------------------------------------

    def establish(self) -> VerifiedBinding:
        """Fetch + verify key, identity proofs, and integrity certificate.

        On a key/OID mismatch (malicious or wrong replica, possibly via
        a lying location service) *and* on an operational failure past
        the transport's retry budget (dead replica, dropped frames) the
        session fails over to the next contact address — the paper's
        "at most denial of service" argument made concrete. Security
        violations fail closed: they are never retried against the same
        replica, only escaped via a *different* one.
        """
        if self._verified is not None and self.cache_binding:
            return self._verified
        with self.tracer.span(
            "session.establish", oid=self.bound.oid.hex[:16]
        ) as span:
            while True:
                try:
                    verified = self._establish_once()
                    break
                except RevocationError:
                    # Revocation condemns the *object*, not the replica:
                    # every replica serves the same revoked key, so
                    # failover would only burn containment latency.
                    raise
                except (SecurityError, TransportError, RpcError, ReplicaError) as exc:
                    # ReplicaError: the server no longer hosts the
                    # replica (torn down, e.g. after its creator's key
                    # was revoked) — operationally a dead replica.
                    self._failover(exc)
            span.set_attribute("rebinds", self.rebind_count)
        self._verified = verified
        return verified

    def _failover(self, exc: Exception) -> None:
        """Rebind to the next replica, or re-raise *exc* when exhausted.

        The rebind failure is chained as ``__cause__`` so a transport
        fault is never misreported as (or hidden behind) a security
        violation — *exc* stays the root cause the user sees, with the
        binding exhaustion attached for diagnosis.
        """
        if self.rebind_count >= self.max_rebinds:
            raise exc
        self.rebind_count += 1
        with self.tracer.span(
            "session.failover",
            cause=type(exc).__name__,
            rebind=self.rebind_count,
        ):
            self.binder.note_replica_failure(self.bound)
            try:
                self.bound = self.binder.rebind(self.bound)
            except (BindingError, ObjectNotFound) as rebind_exc:
                raise exc from rebind_exc
        # Mandatory re-verification: nothing learned from the failed
        # replica may be trusted for the new one.
        self._verified = None

    def _establish_once(self) -> VerifiedBinding:
        lr = self.bound.lr
        key = self.checker.check_public_key(self.bound.oid, lr.get_public_key())
        # Seventh check, key scope — before paying for certificate
        # verification: a revoked key makes the rest of the pipeline moot.
        self.checker.check_revocation(self.bound.oid)

        certified_as = None
        if len(self.checker.trust_store) > 0 or self.require_identity:
            certified_as = self.checker.check_identity(
                key, lr.get_identity_certificates(), require=self.require_identity
            )

        integrity = self.checker.check_certificate(
            key, lr.get_integrity_certificate(), self.bound.oid
        )
        return VerifiedBinding(
            oid=self.bound.oid,
            public_key=key,
            integrity=integrity,
            certified_as=certified_as,
        )

    # ------------------------------------------------------------------
    # Element retrieval (steps 10–13 of Fig. 3)
    # ------------------------------------------------------------------

    def fetch(self, element_name: str) -> FetchResult:
        """Retrieve and verify one element.

        Raises :class:`~repro.errors.SecurityError` subclasses on any
        violation — the caller renders the "Security Check Failed" page.
        A transport failure mid-fetch triggers the same failover path as
        a bad binding: rebind, *re-verify the full binding* against the
        new replica, and re-fetch the element there. So does a failed
        element check, except that a binding reused from an earlier
        access is first re-verified once against the same replica.
        """
        with self.tracer.span("session.fetch", element=element_name):
            return self._fetch_once(element_name)

    def _fetch_once(self, element_name: str) -> FetchResult:
        # Verified-content cache: a hit is servable with no network at
        # all — the owner's signed validity interval makes this safe.
        if self.content_cache is not None:
            cached = self.content_cache.get(self.bound.oid.hex, element_name)
            if cached is not None:
                # A cache hit skips the network, never the revocation
                # check: the hit predates any revocation the feed may
                # have published since (and the check's refresh purges
                # this very cache on first sight of one).
                self.checker.check_revocation(
                    self.bound.oid, element_name=element_name
                )
                return FetchResult(
                    element=cached,
                    certified_as=(
                        self._verified.certified_as if self._verified else None
                    ),
                )
        while True:
            # A binding kept from an earlier access may hold a certificate
            # the owner has since replaced: re-verify it once before
            # blaming the replica.
            reused = self._verified is not None and self.cache_binding
            verified = self.establish()
            try:
                element = self.bound.lr.get_element(element_name)
            except (TransportError, RpcError, ReplicaError) as exc:
                # The replica died (or was torn down) between binding
                # and element fetch: fail over and re-run the whole
                # verification pipeline against the replacement.
                self._failover(exc)
                continue
            if not self.cache_binding:
                self._verified = None
            try:
                entry = self.checker.check_element(verified.integrity, element_name, element)
                break
            except RevocationError:
                raise
            except SecurityError as exc:
                # A lying element is escaped like a lying key: via another
                # replica, never by trusting this one again.
                self._verified = None
                if not reused:
                    self._failover(exc)
        # Element-scope revocation: now the certificate version is known,
        # so a statement condemning an older row lets a re-issued
        # (version-bumped) certificate through.
        self.checker.check_revocation(
            self.bound.oid,
            element_name=element_name,
            cert_version=verified.integrity.version,
        )
        if self.content_cache is not None:
            self.content_cache.put(self.bound.oid.hex, element, entry.expires_at)
        return FetchResult(element=element, certified_as=verified.certified_as)

    @property
    def verified(self) -> Optional[VerifiedBinding]:
        return self._verified

    def invalidate(self) -> None:
        """Drop the cached binding (e.g. after a freshness failure, to
        re-fetch a newer certificate from the replica)."""
        self._verified = None
