"""The Location Service RPC front end and client.

The server walks the domain tree on behalf of the querying proxy and
reports, along with the addresses, the number of tree nodes the search
visited — the search cost (the paper argues expanding-ring search
scales where DNS-style flat records do not). Besides lookup, the
interface supports the insertion and deletion of contact-address
mappings used by the replication coordinator; a migration is a delete
then an insert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Tuple, TypeVar

from repro.errors import LocationError, ReproError
from repro.globedoc.oid import ObjectId
from repro.location.cache import AddressCache
from repro.location.tree import DomainTree
from repro.net.address import ContactAddress
from repro.net.rpc import BatchCall, RpcClient, RpcServer, rpc_method
from repro.sim.clock import Clock
from repro.util.encoding import DECODE_ERRORS

__all__ = ["LocationService", "LocationClient", "LookupResult"]

_T = TypeVar("_T")


def _decoded(op: str, decode: Callable[[], _T]) -> _T:
    """``decode()`` of an answer to *op*. The service is untrusted: an
    answer that does not decode is a :class:`LocationError` (the proxy's
    404), never an exception of whatever shape the junk took."""
    try:
        return decode()
    except (ReproError, OverflowError, *DECODE_ERRORS) as exc:
        raise LocationError(f"malformed {op} answer: {exc}") from exc


@dataclass(frozen=True)
class LookupResult:
    """Addresses for an OID, closest-domain first, plus search cost."""

    oid_hex: str
    addresses: List[ContactAddress]
    nodes_visited: int
    from_cache: bool = False

    @property
    def closest(self) -> ContactAddress:
        if not self.addresses:
            raise LocationError("lookup result holds no addresses")
        return self.addresses[0]


class LocationService:
    """Server side: owns the domain tree.

    Holds no secrets and signs nothing — by design the proxy treats its
    answers as hints to be verified against the self-certifying OID.
    """

    def __init__(self, tree: Optional[DomainTree] = None) -> None:
        self.tree = tree if tree is not None else DomainTree()
        #: Durable-journal hook (set by DurableLocationStore.bind):
        #: called with one dict per accepted mutation.
        self.journal = None

    def add_site(self, path: str) -> None:
        self.tree.add_site(path)

    # ------------------------------------------------------------------
    # RPC interface
    # ------------------------------------------------------------------

    def _found(self, oid: str, origin_site: str) -> Tuple[str, Tuple[ContactAddress, ...], int]:
        """*oid*, and the addresses and search cost of its lookup from
        *origin_site*."""
        addresses, visited = self.tree.lookup(oid, origin_site)
        return oid, tuple(addresses), visited

    @rpc_method("location.lookup", basis=_found)
    def lookup(self, oid: str, addresses: Tuple[ContactAddress, ...], visited: int) -> dict:
        """The answer to ``lookup(oid, origin_site)``."""
        return {
            "oid": oid,
            "addresses": [a.to_dict() for a in addresses],
            "nodes_visited": visited,
        }

    @rpc_method("location.lookup_all")
    def lookup_all(self, oid: str, origin_site: str) -> dict:
        """Widened lookup: every address in the tree, closest ring first.

        Used by clients on failover, after the closest replica turned
        out broken or malicious — the recovery path behind the paper's
        "temporary denial of service" bound.
        """
        near, visited = self.tree.lookup(oid, origin_site)  # raises if none
        rest = [a for a in self.tree.all_addresses(oid) if a not in near]
        return {
            "oid": oid,
            "addresses": [a.to_dict() for a in near + rest],
            "nodes_visited": visited + self.tree.total_records(),
        }

    @rpc_method("location.insert")
    def insert(self, oid: str, site: str, address: Mapping[str, Any]) -> int:
        result = self.tree.insert(oid, site, ContactAddress.from_dict(address))
        if self.journal is not None:
            self.journal(
                {"op": "insert", "oid": oid, "site": site, "address": dict(address)}
            )
        return result

    @rpc_method("location.delete")
    def delete(self, oid: str, site: str, address: Mapping[str, Any]) -> int:
        result = self.tree.delete(oid, site, ContactAddress.from_dict(address))
        if self.journal is not None:
            self.journal(
                {"op": "delete", "oid": oid, "site": site, "address": dict(address)}
            )
        return result

    def rpc_server(self, tracer=None) -> RpcServer:
        server = RpcServer(name="location", tracer=tracer)
        server.register_object(self)
        return server


class LocationClient:
    """Client side: queries the service, caches addresses with a TTL.

    The cache matters for the paper's model — replica addresses change
    frequently under dynamic replication, so the TTL is short by default
    and a failed bind should :meth:`invalidate` the entry.
    """

    def __init__(
        self,
        client: RpcClient,
        service_target,
        origin_site: str,
        clock: Optional[Clock] = None,
        cache_ttl: float = 60.0,
    ) -> None:
        self.client = client
        self.target = service_target
        self.origin_site = origin_site
        self.cache = AddressCache(clock=clock, ttl=cache_ttl)

    def lookup(self, oid: ObjectId, widen: bool = False) -> LookupResult:
        """Find contact addresses for *oid*.

        ``widen=True`` performs the exhaustive all-rings lookup used for
        failover; widened results are not cached (they reflect a failure
        condition, not the steady state).
        """
        if not widen:
            cached = self.cache.get(oid.hex)
            if cached is not None:
                return LookupResult(
                    oid_hex=oid.hex, addresses=cached, nodes_visited=0, from_cache=True
                )
        call = self._query(oid, widen)
        answer = self.client.call(call.target, call.op, **call.args)
        result = _decoded(
            call.op,
            lambda: LookupResult(
                oid_hex=oid.hex,
                addresses=[ContactAddress.from_dict(a) for a in answer["addresses"]],
                nodes_visited=int(answer["nodes_visited"]),
            ),
        )
        if not widen:
            self.cache.put(oid.hex, result.addresses)
        return result

    def pending_call(self, oid: ObjectId) -> Optional[BatchCall]:
        """The call :meth:`lookup` sends for *oid*, or None when its
        addresses are cached."""
        return None if oid.hex in self.cache else self._query(oid, widen=False)

    def _query(self, oid: ObjectId, widen: bool) -> BatchCall:
        op = "location.lookup_all" if widen else "location.lookup"
        return BatchCall(self.target, op, {"oid": oid.hex, "origin_site": self.origin_site})

    def register_replica(self, oid: ObjectId, site: str, address: ContactAddress) -> int:
        """Insert a contact address (replication coordinator path)."""
        self.cache.invalidate(oid.hex)
        answer = self.client.call(
            self.target, "location.insert", oid=oid.hex, site=site, address=address.to_dict()
        )
        return _decoded("location.insert", lambda: int(answer))

    def unregister_replica(self, oid: ObjectId, site: str, address: ContactAddress) -> int:
        self.cache.invalidate(oid.hex)
        answer = self.client.call(
            self.target, "location.delete", oid=oid.hex, site=site, address=address.to_dict()
        )
        return _decoded("location.delete", lambda: int(answer))

    def invalidate(self, oid: ObjectId) -> None:
        """Drop the cached addresses after a failed bind."""
        self.cache.invalidate(oid.hex)
