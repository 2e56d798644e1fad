"""Binding to a GlobeDoc object (§2.1, Fig. 1).

Binding has two phases: *finding* the object (name lookup to an OID,
location lookup to contact addresses) and *installing* a local
representative (here: a forwarding :class:`~repro.server.localrep.ProxyLR`
bound to a chosen contact address). The location service is untrusted,
so the binder supports failover: if the replica behind an address fails
the key/OID check later, the session rebinds to the next address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import BindingError, LocationError, ObjectNotFound
from repro.globedoc.oid import ObjectId
from repro.globedoc.urls import HybridUrl
from repro.location.service import LocationClient
from repro.naming.service import SecureResolver
from repro.net.address import ContactAddress
from repro.net.health import ReplicaHealthTracker
from repro.net.rpc import RpcClient
from repro.obs import NOOP_TRACER
from repro.server.localrep import ProxyLR

__all__ = ["Binder", "BoundObject"]


@dataclass
class BoundObject:
    """A bound object: OID, the addresses found, and the installed LR."""

    oid: ObjectId
    addresses: List[ContactAddress]
    address_index: int
    lr: ProxyLR

    @property
    def address(self) -> ContactAddress:
        return self.addresses[self.address_index]

    @property
    def has_alternative(self) -> bool:
        return self.address_index + 1 < len(self.addresses)


class Binder:
    """Performs name → OID → contact-address → LR installation."""

    def __init__(
        self,
        resolver: SecureResolver,
        location: LocationClient,
        rpc: RpcClient,
        health: Optional[ReplicaHealthTracker] = None,
        tracer=None,
        fig3_walk: bool = False,
    ) -> None:
        self.resolver = resolver
        self.location = location
        self.rpc = rpc
        #: Optional shared replica-health tracker: quarantined addresses
        #: are ordered after every healthy alternative at bind time.
        self.health = health
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: The LRs installed read a replica one call per part, as in
        #: Fig. 3, instead of in one ``globedoc.bind`` exchange.
        self.fig3_walk = fig3_walk

    def note_replica_failure(self, bound: BoundObject) -> None:
        """Charge a session-observed failure (security violation or
        transport fault past the retry budget) to the current address."""
        if self.health is not None:
            self.health.record_failure(str(bound.address))

    def resolve_oid(self, url: HybridUrl) -> ObjectId:
        """Phase 1a: the object's OID, from the URL or the naming service."""
        if url.oid is not None:
            return url.oid
        if url.object_name is None:
            raise BindingError(f"not a GlobeDoc URL: {url.raw!r}")
        with self.tracer.span("bind.resolve", name=url.object_name):
            return self.resolver.resolve(url.object_name).oid

    def bind(self, url: HybridUrl) -> BoundObject:
        """Full binding: find the object and install a forwarding LR."""
        oid = self.resolve_oid(url)
        with self.tracer.span("bind.locate", oid=oid.hex[:16]) as span:
            lookup = self.location.lookup(oid)
            span.set_attribute("candidates", len(lookup.addresses))
            if not lookup.addresses:
                raise ObjectNotFound(
                    f"no replicas registered for OID {oid.hex[:12]}…"
                )
        return self._install(oid, self._order(lookup.addresses), 0)

    def rebind(self, bound: BoundObject) -> BoundObject:
        """Failover to the next contact address after a bad replica.

        When the current address list is exhausted, performs a *widened*
        location lookup (all rings) and continues with any addresses not
        yet tried — a lying or broken nearest replica must cause only a
        temporary disruption while genuine replicas exist elsewhere.
        Also drops the cached location entry so a later bind re-queries
        the (possibly recovered) location service.
        """
        self.location.invalidate(bound.oid)
        if bound.has_alternative:
            with self.tracer.span(
                "bind.rebind",
                oid=bound.oid.hex[:16],
                widened=False,
                next_index=bound.address_index + 1,
            ):
                return self._install(
                    bound.oid, bound.addresses, bound.address_index + 1
                )
        with self.tracer.span(
            "bind.rebind", oid=bound.oid.hex[:16], widened=True
        ) as span:
            tried = set(map(str, bound.addresses))
            try:
                widened = self.location.lookup(bound.oid, widen=True)
            except LocationError:  # none registered, or a malformed answer
                widened = None
            fresh = self._order(
                [a for a in widened.addresses if str(a) not in tried]
                if widened
                else []
            )
            span.set_attribute("fresh_candidates", len(fresh))
            if not fresh:
                raise BindingError(
                    f"no alternative replicas for OID {bound.oid.hex[:12]}… "
                    "(all known contact addresses exhausted)"
                )
            return self._install(
                bound.oid, list(bound.addresses) + fresh, len(bound.addresses)
            )

    def candidates(self, oid: ObjectId) -> List[ContactAddress]:
        """Health-ordered contact addresses for *oid*, no LR installed.

        The pipeline scheduler replays its location wave through this,
        yielding the same address order :meth:`bind` would pick. The
        location client's own cache makes the follow-up real bind free.
        """
        return self._order(self.location.lookup(oid).addresses)

    def _order(self, addresses: List[ContactAddress]) -> List[ContactAddress]:
        """Health-aware ordering: keep proximity order, sink quarantined
        addresses to the back (without the tracker, a no-op)."""
        if self.health is None or not addresses:
            return list(addresses)
        return self.health.order(addresses)

    def lr_at(self, address: ContactAddress) -> ProxyLR:
        """The forwarding LR this binder installs for *address*."""
        return ProxyLR(self.rpc, address, fig3_walk=self.fig3_walk)

    def _install(
        self, oid: ObjectId, addresses: List[ContactAddress], index: int
    ) -> BoundObject:
        return BoundObject(
            oid=oid,
            addresses=list(addresses),
            address_index=index,
            lr=self.lr_at(addresses[index]),
        )
