"""The verified multi-writer reader.

:class:`VersionedReader` is the client half of the versioning
subsystem: it fetches an object's delta bundle from an (untrusted)
server, runs the full check pipeline — self-certifying key, revocation
freshness, then the eighth check
(:meth:`~repro.proxy.checks.SecurityChecker.check_frontier`) — and only
then *binds* the result: the verified DAG becomes the reader's
withholding baseline and the merged elements become servable.

A verified delta is verified once. The reader keeps what the check
proved (:class:`~repro.proxy.checks.VerifiedFrontier`: the DAG, the
merge's winner table, the signer pairs), sends its frontier as
``have_heads`` so the server ships only what lies above it, and hands
the bound state back with those deltas and the server's claimed
``heads``; the check folds the news in and re-judges, every read, what
time or the revocation feed can change.

A grant travels once, too. The reader keeps the grants its last bound
read used, keyed by the ids it computed itself
(:attr:`~repro.versioning.grant.WriterGrant.grant_id`), and sends them
as ``have_grants``; the server names the ones it holds back in
``held_grants`` and ships the rest. Every grant the answer names,
shipped or held, is still verified against the clock on every read —
only the bytes stop travelling. A named id this reader does not hold
makes the answer malformed.

Two fail-closed properties fall out of the binding discipline:

* state is updated **only after** every check passes — a rejected
  response leaves the previously verified frontier (and the cache)
  untouched, so an attacker gains nothing by serving garbage;
* when a *strictly newer* frontier is bound, every
  :class:`~repro.proxy.contentcache.ContentCache` entry for the object
  is purged before the new merge is cached — a reader can never serve a
  stale pre-merge element alongside a newer verified state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.keys import PublicKey
from repro.errors import AuthenticityError
from repro.globedoc.oid import ObjectId
from repro.proxy.checks import SecurityChecker, VerifiedFrontier
from repro.proxy.contentcache import ContentCache
from repro.util.encoding import DECODE_ERRORS, wire_bytes
from repro.versioning.dag import DeltaDag, Frontier
from repro.versioning.delta import SignedDelta
from repro.versioning.frontier import FrontierCertificate
from repro.versioning.grant import WriterGrant
from repro.versioning.merge import MergedDocument

__all__ = ["VersionedReader", "VersionedAccess"]


@dataclass
class VersionedAccess:
    """One verified read: the merged document plus access accounting.

    ``merged`` is the reader's bound state itself, shared with every
    later read until news arrives — read-only to callers: a mutated
    ``elements`` or ``winners`` would be served again unverified.
    """

    merged: MergedDocument
    #: Deltas fetched over the wire this access (0 on a no-news read).
    deltas_fetched: int = 0
    #: Cache entries purged because a strictly newer frontier bound.
    cache_purged: int = 0


class VersionedReader:
    """Reads multi-writer objects, trusting only what it verified.

    Per object it keeps the verified frontier (sent as ``have_heads``)
    and the grants its last bound read used (their ids sent as
    ``have_grants``); both are replaced only after a read's checks pass.
    """

    def __init__(
        self,
        rpc,
        checker: SecurityChecker,
        content_cache: Optional[ContentCache] = None,
    ) -> None:
        self.rpc = rpc
        self.checker = checker
        self.content_cache = content_cache
        #: Per-OID verified baseline: what this reader has proven once,
        #: folds news into, and will not let a server roll back.
        self._bound: Dict[str, VerifiedFrontier] = {}
        #: Per-OID grants the last bound read used, by grant id: what a
        #: ``held_grants`` id may name.
        self._grants: Dict[str, Dict[str, WriterGrant]] = {}

    # ------------------------------------------------------------------
    # Introspection (tests, withholding baseline)
    # ------------------------------------------------------------------

    def known_frontier(self, oid_hex: str) -> Optional[Frontier]:
        bound = self._bound.get(oid_hex)
        return bound.merged.frontier if bound is not None else None

    def known_dag(self, oid_hex: str) -> Optional[DeltaDag]:
        bound = self._bound.get(oid_hex)
        return bound.dag if bound is not None else None

    # ------------------------------------------------------------------
    # The verified read
    # ------------------------------------------------------------------

    def read(self, endpoint, oid: ObjectId) -> VersionedAccess:
        """Fetch, verify, and bind one object's multi-writer state.

        Raises the exact :class:`~repro.errors.SecurityError` subclass
        for whatever is wrong with the response; on any raise the
        reader's verified baseline is untouched.
        """
        bound = self._bound.get(oid.hex)
        held = self._grants.get(oid.hex, {})
        previous = bound.merged.frontier if bound is not None else None
        have_heads = previous.to_list() if previous is not None else None
        bundle = self.rpc.call(
            endpoint,
            "versioning.fetch",
            oid_hex=oid.hex,
            have_heads=have_heads,
            have_grants=sorted(held) or None,
        )
        # The bundle is an untrusted answer: whatever fails to decode is
        # an authenticity violation like any other bad answer, raised
        # before any state is touched.
        try:
            object_key = PublicKey(der=wire_bytes(bundle["object_key_der"]))
            grants = [WriterGrant.from_dict(g) for g in bundle.get("grants", [])]
            # A server-sent id is only looked up among grants this reader
            # keyed itself, and an id covers the signature too, so it
            # names exactly the bytes held under it; one this reader does
            # not hold is a KeyError, so a malformed answer.
            grants += [held[grant_id] for grant_id in bundle.get("held_grants", [])]
            new_deltas = [SignedDelta.from_dict(d) for d in bundle.get("deltas", [])]
            cert_dict = bundle.get("frontier_cert")
            frontier_cert = (
                FrontierCertificate.from_dict(cert_dict)
                if cert_dict is not None
                else None
            )
            # The frontier the server claims to serve, judged as such by
            # the withholding check. An answer without one is malformed:
            # reading its absence as "no claim" would switch the check off.
            heads = bundle["heads"]
            if not isinstance(heads, list) or not all(isinstance(h, str) for h in heads):
                raise TypeError(f"heads is not a list of delta ids: {heads!r:.80}")
            served_heads = Frontier.of(heads)
        except DECODE_ERRORS as exc:
            raise AuthenticityError(
                f"server returned a malformed versioning.fetch answer: {exc}"
            ) from exc

        # Checks 1 and 7 first: a key that is not this object's, or an
        # OID the feed condemns (or cannot prove fresh), fails before
        # any delta verification CPU is spent.
        self.checker.check_public_key(oid, object_key)
        self.checker.check_revocation(oid)

        # The eighth check gets the bound state and only the fetched
        # deltas: they are verified and folded in, while grants, signer
        # authority, revocation and withholding are still judged against
        # everything this reader has ever proven. The check advances
        # `bound` only once nothing can fail.
        verified: VerifiedFrontier = self.checker.check_frontier(
            oid,
            object_key,
            grants,
            new_deltas,
            served_heads,
            bound=bound,
            frontier_cert=frontier_cert,
        )

        self._grants[oid.hex] = {grant.grant_id: grant for grant in grants}
        purged = self._bind(oid.hex, verified, previous)
        return VersionedAccess(
            merged=verified.merged,
            deltas_fetched=len(new_deltas),
            cache_purged=purged,
        )

    def _bind(
        self, oid_hex: str, verified: VerifiedFrontier, previous: Optional[Frontier]
    ) -> int:
        """Adopt a verified frontier; purge the cache if strictly newer."""
        current = verified.merged.frontier
        self._bound[oid_hex] = verified
        purged = 0
        if (
            self.content_cache is not None
            and previous is not None
            and current != previous
        ):
            # check_frontier proved `current` contains every head of
            # `previous`, so a differing frontier is strictly newer —
            # everything cached under the old merge is now stale.
            purged = self.content_cache.invalidate_object(oid_hex)
        if self.content_cache is not None:
            expiry = self.checker.clock.now() + self.content_cache.ttl
            for element in verified.merged.elements.values():
                self.content_cache.put(oid_hex, element, expiry)
        return purged

    def cached_element(self, oid_hex: str, name: str):
        """A still-valid verified element from the cache, or None."""
        if self.content_cache is None:
            return None
        return self.content_cache.get(oid_hex, name)
