"""Server-side versioned-object store: accept, persist, gossip deltas.

The store is the object server's multi-writer surface. Like every other
GlobeDoc server component it is *untrusted infrastructure*: it verifies
grants and deltas on admission only to keep garbage out of its own log
(clients re-verify everything through the frontier check), and it
journals every accepted artifact through a
:class:`~repro.storage.store.DurableStore` before acknowledging it.

Recovery follows the storage contract: bytes read back from disk are as
untrusted as bytes from the network, so every recovered grant and delta
goes through the full admission discipline — owner-signature check on
grants, writer-signature + structure check on deltas, parents-first DAG
admission — and any record that no longer proves out aborts recovery
with :class:`~repro.errors.RecoveryIntegrityError` (fail closed).

Anti-entropy (:func:`gossip_once`) is pull+push over the ``versioning.*``
RPCs, in the readers' heads exchange: each side names its frontier and
is shipped what lies above it, receiving ends re-verify on admission,
and both converge to the same DAG — the server half of the convergence
story ``tests/versioning/test_convergence.py`` decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.errors import (
    ReplicaError,
    ReproError,
    UnauthorizedWriterError,
)
from repro.globedoc.oid import ObjectId
from repro.obs import NOOP_TRACER
from repro.sim.clock import RealClock
from repro.versioning.dag import DeltaDag
from repro.versioning.delta import SignedDelta
from repro.versioning.frontier import FrontierCertificate
from repro.versioning.grant import WriterGrant

__all__ = ["VersionedObjectStore", "gossip_once"]


@dataclass
class _ObjectState:
    """One object's multi-writer state on this server."""

    oid: ObjectId
    object_key: PublicKey
    dag: DeltaDag = field(default_factory=DeltaDag)
    #: Every grant ever admitted, keyed by (writer_id, writer_key DER).
    #: Historical grants are retained on writer re-key so deltas signed
    #: under a writer's earlier key stay verifiable forever.
    grants: Dict[Tuple[str, bytes], WriterGrant] = field(default_factory=dict)
    frontier_cert: Optional[FrontierCertificate] = None


class VersionedObjectStore:
    """Per-OID delta DAGs with admission checks and durable journaling.

    ``tracer`` (optional) records ``versioning.put_delta`` spans around
    full delta admission (signature + grant + DAG checks — the "merge"
    cost bucket of the critical-path profiler) and ``storage.journal``
    spans around durable appends.

    ``clock`` judges grant freshness (``None``: not judged) and, like
    :class:`~repro.proxy.checks.SecurityChecker`'s, is charged for
    admission crypto and journal writes through its ``compute()`` region
    (see :meth:`SimHost.compute`).
    """

    def __init__(self, clock=None, store=None, tracer=None) -> None:
        self.clock = clock
        self.store = store
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._compute = (clock if clock is not None else RealClock()).compute
        self._objects: Dict[str, _ObjectState] = {}
        #: Recovery accounting: what a restart reloaded and re-proved.
        self.recovered_deltas = 0
        self.reverified_deltas = 0
        self.recovered_grants = 0
        if store is not None:
            self._recover()

    # ------------------------------------------------------------------
    # Recovery (fail closed)
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal through the full admission discipline."""

        def admit(record) -> None:
            op = record["op"]
            if op == "register":
                self.register_object(PublicKey.from_der(record["key_der"]))
            elif op == "grant":
                added = self.put_grant(
                    str(record["oid"]), WriterGrant.from_dict(record["grant"])
                )
                if added:
                    self.recovered_grants += 1
            elif op == "delta":
                added = self.put_delta(
                    str(record["oid"]), SignedDelta.from_dict(record["delta"])
                )
                if added:
                    self.recovered_deltas += 1
                    self.reverified_deltas += 1
            elif op == "frontier":
                self.put_frontier_cert(
                    str(record["oid"]),
                    FrontierCertificate.from_dict(record["cert"]),
                )
            else:
                raise ReproError(f"unknown operation {op!r}")

        replaying, self._replaying = getattr(self, "_replaying", False), True
        try:
            self.store.replay(admit)
        finally:
            self._replaying = replaying

    def _journal(self, record: dict) -> None:
        if self.store is None or getattr(self, "_replaying", False):
            return
        with self.tracer.span("storage.journal", op=str(record.get("op", ""))):
            with self._compute():
                self.store.append(record)
                self.store.maybe_compact(self._live_records)

    def _live_records(self) -> List[dict]:
        """The shortest journal that replays to the live state: per
        object its registration, every grant, the DAG parents-first,
        then the one frontier certificate still held."""
        records: List[dict] = []
        for oid_hex, state in sorted(self._objects.items()):
            records.append({"op": "register", "key_der": state.object_key.der})
            records += [
                {"op": "grant", "oid": oid_hex, "grant": g.to_dict()}
                for _, g in sorted(state.grants.items())
            ]
            records += [
                {"op": "delta", "oid": oid_hex, "delta": d.to_dict()}
                for d in state.dag.deltas
            ]
            if state.frontier_cert is not None:
                cert = state.frontier_cert.to_dict()
                records.append({"op": "frontier", "oid": oid_hex, "cert": cert})
        return records

    def compact(self) -> None:
        """Rewrite the journal down to the live state (explicit compaction)."""
        if self.store is not None:
            self.store.compact(self._live_records())

    # ------------------------------------------------------------------
    # Admission (the untrusted write surface)
    # ------------------------------------------------------------------

    def _require(self, oid_hex: str) -> _ObjectState:
        state = self._objects.get(oid_hex)
        if state is None:
            raise ReplicaError(
                f"no versioned object {oid_hex[:12]}… registered on this server"
            )
        return state

    def register_object(self, object_key: PublicKey) -> str:
        """Open a versioning namespace for the object *object_key* owns.

        Unauthenticated by design, like replica content serving: the OID
        is derived from the key (self-certifying), so registering a
        namespace grants no authority — only grants signed by this very
        key admit writers. Idempotent; returns the OID hex.
        """
        oid = ObjectId.from_public_key(object_key)
        if oid.hex not in self._objects:
            self._objects[oid.hex] = _ObjectState(oid=oid, object_key=object_key)
            self._journal({"op": "register", "key_der": object_key.der})
        return oid.hex

    def put_grant(self, oid_hex: str, grant: WriterGrant) -> bool:
        """Admit an owner-signed writer grant; False if already held.

        Grants accumulate per (writer id, writer key): a grant naming a
        new key for an existing writer id is an owner re-key and is
        *added alongside* the earlier grant, never in its place.
        Retaining the history keeps every delta the writer published
        under an earlier key verifiable — by clients reading the fetch
        bundle and by recovery replaying the journal.
        """
        state = self._require(oid_hex)
        # During journal replay, freshness is not re-judged: a genuine
        # grant whose not_after lapsed since admission must not brick
        # recovery (the signature is still proven; clients decide what
        # a lapsed grant authorizes). Live admission keeps the clock.
        grant.verify(
            state.object_key,
            state.oid,
            clock=None if getattr(self, "_replaying", False) else self.clock,
        )
        slot = (grant.writer_id, grant.writer_key.der)
        existing = state.grants.get(slot)
        if (
            existing is not None
            and existing.certificate.envelope.signature
            == grant.certificate.envelope.signature
        ):
            return False
        state.grants[slot] = grant
        self._journal({"op": "grant", "oid": oid_hex, "grant": grant.to_dict()})
        return True

    def put_delta(self, oid_hex: str, delta: SignedDelta) -> bool:
        """Admit one signed delta; False if already in the DAG.

        Full admission: structure + signature (``delta.verify``), then a
        grant must cover the writer key, then parents-first DAG
        admission (a delta with absent ancestry is refused — gossip
        ships ancestries in order).
        """
        state = self._require(oid_hex)
        if delta.delta_id in state.dag:
            return False
        with self.tracer.span(
            "versioning.put_delta", oid=oid_hex[:16], writer=delta.writer_id
        ) as span:
            with self._compute():
                delta.verify(state.oid)
                if (delta.writer_id, delta.writer_key.der) not in state.grants:
                    raise UnauthorizedWriterError(
                        f"delta {delta.delta_id[:12]}… from writer "
                        f"{delta.writer_id!r} has no covering grant on this server"
                    )
                added = state.dag.add(delta)
            span.set_attribute("added", added)
            if added:
                self._journal({"op": "delta", "oid": oid_hex, "delta": delta.to_dict()})
        return added

    def put_frontier_cert(self, oid_hex: str, cert: FrontierCertificate) -> bool:
        """Admit a frontier certificate for the object; keeps the newest.

        The signer must be the object key or a granted writer key, and
        every claimed head must be in the local DAG (a server never
        vouches for heads it does not hold). Certificates with a lower
        Lamport bound than the held one are dropped (stale), not
        errors. Equal-Lamport ties break deterministically (see
        :meth:`_cert_supersedes`), so which certificate a server holds
        never depends on arrival order.
        """
        state = self._require(oid_hex)
        cert.verify(state.oid)
        signer = cert.signer_key.der
        authorized = signer == state.object_key.der or any(
            g.writer_key.der == signer for g in state.grants.values()
        )
        if not authorized:
            raise UnauthorizedWriterError(
                f"frontier certificate for {oid_hex[:12]}… signed by a key "
                "with no grant on this server"
            )
        if not state.dag.dominates(cert.frontier):
            raise ReplicaError(
                f"frontier certificate names heads this server does not "
                f"hold for {oid_hex[:12]}… (publish the deltas first)"
            )
        held = state.frontier_cert
        if held is not None:
            if cert.lamport < held.lamport:
                return False
            if cert.lamport == held.lamport and not self._cert_supersedes(
                state.dag, cert, held
            ):
                return False
        state.frontier_cert = cert
        self._journal({"op": "frontier", "oid": oid_hex, "cert": cert.to_dict()})
        return True

    @staticmethod
    def _cert_supersedes(
        dag: DeltaDag, cert: FrontierCertificate, held: FrontierCertificate
    ) -> bool:
        """Equal-Lamport tie-break: does *cert* replace *held*?

        A certificate wins a tie only when its frontier dominates the
        held one (every held head sits in the new heads' ancestor
        closure — strictly more history); a dominated (stale, pre-
        gossip) frontier never displaces the held one; and two
        genuinely concurrent frontiers compare by their sorted head
        tuples, so every server holding the same DAG settles on the
        same certificate regardless of arrival order.
        """
        if cert.frontier == held.frontier:
            return False
        new_closure = dag.ancestors(cert.frontier.heads)
        if all(head in new_closure for head in held.frontier.heads):
            return True
        held_closure = dag.ancestors(held.frontier.heads)
        if all(head in held_closure for head in cert.frontier.heads):
            return False
        return cert.frontier.heads > held.frontier.heads

    # ------------------------------------------------------------------
    # Serving (wire bundles)
    # ------------------------------------------------------------------

    def has_object(self, oid_hex: str) -> bool:
        return oid_hex in self._objects

    def delta_count(self, oid_hex: str) -> int:
        return len(self._require(oid_hex).dag)

    def heads(self, oid_hex: str) -> List[str]:
        return self._require(oid_hex).dag.heads()

    def fetch(
        self,
        oid_hex: str,
        have_heads: Optional[List[str]] = None,
        have_grants: Optional[List[str]] = None,
    ) -> dict:
        """The wire bundle the reader (or a gossiping peer) verifies.

        It ships what lies above *have_heads* (the caller's frontier;
        None: it holds nothing) and below ``heads``, the frontier this
        server claims, by which readers judge withholding. A grant whose
        id (:attr:`~repro.versioning.grant.WriterGrant.grant_id`) is in
        *have_grants* is named in ``held_grants`` instead of shipped;
        every other grant, and the frontier certificate, travels whole.
        ``held_grants`` is left out when nothing was held back, so a
        fetch without *have_grants* (gossip, a fresh reader) is the
        answer it always was. One snapshot: a grant precedes the deltas
        it covers and a certificate follows the heads it names, so both
        are read before the heads, and the deltas are those heads'
        ancestry — a concurrent put never splits the answer.
        """
        state = self._require(oid_hex)
        held = _grant_ids(have_grants)
        grants, held_grants = [], []
        for _, grant in sorted(state.grants.items()):
            grant_id = grant.grant_id
            if grant_id in held:
                held_grants.append(grant_id)
            else:
                grants.append(grant.to_dict())
        cert = state.frontier_cert
        heads = state.dag.heads()
        deltas = state.dag.missing_from(have_heads or (), heads)
        bundle = {
            "oid": oid_hex,
            "object_key_der": state.object_key.der,
            "grants": grants,
            "deltas": [d.to_dict() for d in deltas],
            "heads": heads,
            "frontier_cert": cert.to_dict() if cert is not None else None,
        }
        if held_grants:
            bundle["held_grants"] = held_grants
        return bundle

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def _grant_ids(have_grants) -> frozenset:
    """The caller's grant ids as a set; untrusted input, so anything but
    a list of strings is refused without rendering it (a huge integer
    must not become a huge string)."""
    if have_grants is None:
        return frozenset()
    if not isinstance(have_grants, list) or not all(
        isinstance(grant_id, str) for grant_id in have_grants
    ):
        raise TypeError(
            f"have_grants is not a list of grant ids: {type(have_grants).__name__}"
        )
    return frozenset(have_grants)


def gossip_once(
    store: VersionedObjectStore, rpc, peer_endpoint, oid_hex: str, tracer=None
) -> dict:
    """One anti-entropy round against a peer server: pull, then push.

    Pulls with this store's heads — the peer's grants and what lies
    above those heads, re-verified on admission (the peer is as
    untrusted as any replica) — then pushes what lies above the heads
    the peer claimed. After one round with a reachable, honest peer
    both DAGs are equal (``tests/versioning/test_convergence.py``
    asserts exactly that over generated histories). Returns {pulled,
    pushed} counts.

    ``tracer`` (optional) wraps the round in a ``gossip.run`` span —
    the root of a gossip trace, with every peer RPC (and, through the
    propagated context, the peer's ``server.handle`` work) as its
    descendants.
    """
    tracer = tracer if tracer is not None else NOOP_TRACER
    with tracer.span("gossip.run", oid=oid_hex[:16], peer=str(peer_endpoint)) as span:
        result = _gossip_round(store, rpc, peer_endpoint, oid_hex)
        span.set_attribute("pulled", result["pulled"])
        span.set_attribute("pushed", result["pushed"])
        return result


def _gossip_round(
    store: VersionedObjectStore, rpc, peer_endpoint, oid_hex: str
) -> dict:
    answer = rpc.call(
        peer_endpoint,
        "versioning.fetch",
        oid_hex=oid_hex,
        have_heads=store.heads(oid_hex),
    )
    pulled = 0
    for grant_dict in answer.get("grants", []):
        store.put_grant(oid_hex, WriterGrant.from_dict(grant_dict))
    for delta_dict in answer.get("deltas", []):
        if store.put_delta(oid_hex, SignedDelta.from_dict(delta_dict)):
            pulled += 1
    cert_dict = answer.get("frontier_cert")
    if cert_dict is not None:
        try:
            store.put_frontier_cert(
                oid_hex, FrontierCertificate.from_dict(cert_dict)
            )
        except ReproError:
            # A stale or unverifiable peer certificate never blocks the
            # delta exchange itself; readers verify certs end to end.
            pass

    # Push grants first: a pushed delta from a writer the peer has never
    # heard of would otherwise be refused as unauthorized. The peer
    # re-verifies each grant under the object key, so this confers no
    # authority the owner did not sign.
    their_grants = set()
    for grant_dict in answer.get("grants", []):
        grant = WriterGrant.from_dict(grant_dict)
        their_grants.add((grant.writer_id, grant.writer_key.der))
    for slot, grant in sorted(store._require(oid_hex).grants.items()):
        if slot not in their_grants:
            rpc.call(
                peer_endpoint,
                "versioning.put_grant",
                oid_hex=oid_hex,
                grant=grant.to_dict(),
            )
    pushed = 0
    for delta in store._require(oid_hex).dag.missing_from(answer["heads"]):
        result = rpc.call(
            peer_endpoint,
            "versioning.publish_delta",
            oid_hex=oid_hex,
            delta=delta.to_dict(),
        )
        if result.get("added"):
            pushed += 1
    return {"pulled": pulled, "pushed": pushed}
