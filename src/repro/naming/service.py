"""The naming service: the network-facing resolver over signed zones.

``NameService`` hosts a forest of signed zones behind an RPC interface;
``SecureResolver`` is the client side: by default it asks for the whole
proof (delegation chain + signed record) in one query, and optionally
walks from the root one zone per query (the paper's Fig. 3 path). Either
way it validates the DNSsec chain link by link against its trust anchor
— the signatures, not the path the answer took, are what is trusted.
Resolution results are cached per record TTL (the caching DNS makes
efficient — possible here precisely because records are
location-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.errors import NameNotFound, NamingError, ZoneValidationError
from repro.globedoc.oid import ObjectId
from repro.naming.dnssec import ChainValidator, DelegationRecord, SignedOidRecord, SignedZone
from repro.naming.records import OidRecord, normalize_name
from repro.net.rpc import BatchCall, RpcClient, RpcServer, rpc_method
from repro.sim.clock import Clock, RealClock
from repro.util.encoding import DECODE_ERRORS

__all__ = ["NameService", "SecureResolver", "ResolutionResult"]


@dataclass(frozen=True)
class ResolutionResult:
    """A validated name resolution: the OID plus chain metadata."""

    name: str
    oid: ObjectId
    ttl: float
    chain_length: int
    from_cache: bool = False


class NameService:
    """Server side: holds signed zones and answers resolution queries.

    The query model is single-shot: the server walks its own delegation
    chain and returns the full proof (chain + signed record) in one
    response, like a validating recursive resolver returning RRSIGs.
    """

    def __init__(self, root_zone: SignedZone) -> None:
        if root_zone.zone_path != "":
            raise NamingError("the root zone must have the empty path")
        self.root = root_zone
        self._zones: Dict[str, SignedZone] = {"": root_zone}
        #: Durable-journal hook (set by DurableNamingStore.bind): called
        #: with one dict per accepted mutation, after it succeeded.
        self.journal = None

    def add_zone(self, zone: SignedZone, parent: Optional[SignedZone] = None) -> None:
        """Attach *zone*, delegating from *parent* (default: its natural
        parent, which must already be attached)."""
        if parent is None:
            parent_path = zone.zone_path.rpartition("/")[0]
            parent = self._zones.get(parent_path)
            if parent is None:
                raise NamingError(
                    f"parent zone {parent_path!r} not attached for {zone.zone_path!r}"
                )
        parent.delegate(zone)
        self._zones[zone.zone_path] = zone

    def zone(self, path: str) -> SignedZone:
        try:
            return self._zones[path]
        except KeyError:
            raise NameNotFound(f"no such zone: {path!r}") from None

    @property
    def root_key(self) -> PublicKey:
        """The trust anchor clients must be configured with."""
        return self.root.public_key

    def register(self, record) -> None:
        """Publish a record in the deepest attached zone covering it."""
        zone = self._authoritative_zone(record.name)
        zone.add_record(record)
        if self.journal is not None:
            self.journal({"op": "record", "record": record.to_dict()})

    def _authoritative_zone(self, name: str) -> SignedZone:
        zone = self.root
        while True:
            child_path = zone.delegation_for(name)
            if child_path is None or child_path not in self._zones:
                return zone
            zone = self._zones[child_path]

    # ------------------------------------------------------------------
    # RPC interface
    # ------------------------------------------------------------------

    def _proof(self, name: str) -> Tuple[Tuple[DelegationRecord, ...], SignedOidRecord]:
        """Walk the chain for *name*: its delegation records, root
        first, and the signed record they lead to."""
        name = normalize_name(name)
        chain: List[DelegationRecord] = []
        zone = self.root
        while True:
            child_path = zone.delegation_for(name)
            if child_path is None or child_path not in self._zones:
                break
            chain.append(zone.delegation_record(child_path))
            zone = self._zones[child_path]
        return tuple(chain), zone.signed_lookup(name)  # raises NameNotFound

    @rpc_method("naming.resolve", basis=_proof)
    def resolve_with_proof(
        self, chain: Tuple[DelegationRecord, ...], signed: SignedOidRecord
    ) -> dict:
        """The proof for a name (``resolve_with_proof(name)``):
        delegations + signed record."""
        return {
            "chain": [link.to_dict() for link in chain],
            "record": signed.to_dict(),
        }

    @rpc_method("naming.resolve_step")
    def resolve_step(self, name: str, zone_path: str) -> dict:
        """One iterative-resolution step (real-DNS style, one RTT per
        zone level): from *zone_path*, return either the delegation one
        level closer to the answer or the signed record itself."""
        name = normalize_name(name)
        zone = self.zone(zone_path)
        child_path = zone.delegation_for(name)
        if child_path is not None and child_path in self._zones:
            return {
                "delegation": zone.delegation_record(child_path).to_dict(),
                "next_zone": child_path,
            }
        return {"record": zone.signed_lookup(name).to_dict()}

    def rpc_server(self, tracer=None) -> RpcServer:
        """An RPC server exposing this service's operations."""
        server = RpcServer(name="naming", tracer=tracer)
        server.register_object(self)
        return server


class SecureResolver:
    """Client side: queries a NameService endpoint and validates the proof.

    ``trust_anchor`` is the root zone key, obtained out of band (like a
    DNSsec root key). Without it, no answer is accepted. ``max_depth``
    bounds the delegations of one answer, in either mode.
    """

    def __init__(
        self,
        client: RpcClient,
        service_target,
        trust_anchor: PublicKey,
        clock: Optional[Clock] = None,
        iterative: bool = False,
        max_depth: int = 16,
    ) -> None:
        self.client = client
        self.target = service_target
        self.validator = ChainValidator(trust_anchor, clock=clock)
        self.clock = clock if clock is not None else RealClock()
        self.iterative = iterative
        self.max_depth = max_depth
        self._cache: Dict[str, Tuple[float, ResolutionResult]] = {}

    def resolve(self, name: str) -> ResolutionResult:
        """Resolve *name* to a validated OID (cached per record TTL).

        By default the whole proof comes back from a single
        ``naming.resolve`` query; ``iterative=True`` issues one
        ``naming.resolve_step`` per zone level (root → … →
        authoritative), paying one round trip each, exactly like an
        uncached DNS resolution. Both answers are validated the same
        way, and anything the service sends that does not validate is a
        :class:`ZoneValidationError`.
        """
        name = normalize_name(name)
        cached = self._cached(name)
        if cached is not None:
            return cached
        if self.iterative:
            answer = self._resolve_iteratively(name)
        else:
            answer = self._ask(self._query(name))
        record, chain_length = self._validate_answer(name, answer)
        result = ResolutionResult(
            name=record.name,
            oid=record.oid,
            ttl=record.ttl,
            chain_length=chain_length,
        )
        self._cache[name] = (self.clock.now() + record.ttl, result)
        return result

    def pending_call(self, name: str) -> Optional[BatchCall]:
        """The call :meth:`resolve` sends first for *name*, or None when
        the answer is cached (iteratively, the root zone's step)."""
        name = normalize_name(name)
        return None if self._cached(name) is not None else self._query(name)

    def _cached(self, name: str) -> Optional[ResolutionResult]:
        """The unexpired cached resolution of *name*, or None (an expired
        entry is dropped)."""
        expires, result = self._cache.get(name, (0.0, None))
        if result is not None and self.clock.now() < expires:
            return replace(result, from_cache=True)
        self._cache.pop(name, None)
        return None

    def _query(self, name: str, zone_path: str = "") -> BatchCall:
        """The query for *name*: the whole proof, or one iterative step
        from *zone_path*."""
        if self.iterative:
            return BatchCall(
                self.target, "naming.resolve_step", {"name": name, "zone_path": zone_path}
            )
        return BatchCall(self.target, "naming.resolve", {"name": name})

    def _ask(self, call: BatchCall) -> Any:
        return self.client.call(call.target, call.op, **call.args)

    def _resolve_iteratively(self, name: str) -> dict:
        """Walk zone by zone, collecting the delegation chain: at most
        ``max_depth`` delegations, then the record."""
        chain: list = []
        zone_path = ""
        for _ in range(self.max_depth + 1):
            step = self._ask(self._query(name, zone_path))
            if not isinstance(step, Mapping):
                raise ZoneValidationError("malformed naming step: not a mapping")
            if "record" in step:
                return {"chain": chain, "record": step["record"]}
            zone_path = step.get("next_zone")
            if "delegation" not in step or not isinstance(zone_path, str):
                raise ZoneValidationError(
                    "malformed naming step: neither a record nor a delegation "
                    "with its next zone"
                )
            chain.append(step["delegation"])
        raise ZoneValidationError(
            f"delegation chain for {name!r} exceeds max depth {self.max_depth}"
        )

    def _validate_answer(self, name: str, answer: Any) -> Tuple[OidRecord, int]:
        """The validated record *answer* proves for *name*, and its chain
        length. The answer is untrusted: whatever its shape, a failure
        is a :class:`ZoneValidationError`, and an over-long chain is
        refused before any signature is checked."""
        if not isinstance(answer, Mapping) or "record" not in answer:
            raise ZoneValidationError("malformed naming response")
        links = answer.get("chain")
        if not isinstance(links, list):
            raise ZoneValidationError("malformed naming response: chain is not a list")
        if len(links) > self.max_depth:
            raise ZoneValidationError(
                f"delegation chain of {len(links)} links exceeds max depth {self.max_depth}"
            )
        try:
            chain = [DelegationRecord.from_dict(link) for link in links]
            signed = SignedOidRecord.from_dict(answer["record"])
        except DECODE_ERRORS as exc:
            raise ZoneValidationError(f"malformed naming response: {exc}") from exc
        record = self.validator.validate(chain, signed)
        if record.name != name:
            raise ZoneValidationError(
                f"signed record is for {record.name!r}, not the requested {name!r}"
            )
        return record, len(chain)

    def flush_cache(self) -> None:
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)
