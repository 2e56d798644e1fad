"""Deterministic CRDT-style merge of a verified delta set.

The merge discipline is a last-writer-wins register per element, with
the total order ``(lamport, writer_id, delta_id, op_index)`` — Lamport
timestamps order causally-related writes, writer id and content address
break concurrent ties, and the op index orders ops *within* one delta.
Because the winner per element is simply the **maximum over a set**, the
merge is commutative, associative, and idempotent by construction (the
SEC obligation of Gomes et al.); the property tests in
``tests/versioning/test_merge_laws.py`` check those laws over seeded
random histories rather than trusting the argument.

Two replicas holding the same verified delta set therefore compute the
same winners, the same elements, and — because :func:`state_digest`
hashes a canonical encoding of the result — byte-identical documents,
checkable by comparing one digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.crypto import hashes
from repro.errors import VersioningError
from repro.globedoc.element import PageElement
from repro.util.encoding import canonical_bytes
from repro.versioning.dag import Frontier
from repro.versioning.delta import OP_PUT, DeltaOp, SignedDelta

__all__ = ["MergedDocument", "Winners", "fold_winners", "merge_deltas", "state_digest"]

#: The per-element LWW register table: ``name -> (order key, winning op)``,
#: the order key being ``(lamport, writer_id, delta_id, op_index)``.
Winners = Dict[str, Tuple[Tuple[int, str, str, int], DeltaOp]]


@dataclass
class MergedDocument:
    """The convergent result of merging one verified delta set."""

    oid_hex: str
    elements: Dict[str, PageElement]
    frontier: Frontier
    lamport: int
    delta_count: int
    digest: bytes = b""
    #: Which delta won each element (diagnostics / tests).
    winners: Dict[str, str] = field(default_factory=dict)

    @property
    def digest_hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_winners(
        cls,
        oid_hex: str,
        winners: Winners,
        frontier: Frontier,
        lamport: int,
        delta_count: int,
    ) -> "MergedDocument":
        """The document a winner table stands for: each surviving put
        becomes an element, a winning delete leaves none."""
        elements = {
            name: PageElement(name=name, content=op.content, content_type=op.content_type)
            for name, (_, op) in winners.items()
            if op.op == OP_PUT
        }
        return cls(
            oid_hex=oid_hex,
            elements=elements,
            frontier=frontier,
            lamport=lamport,
            delta_count=delta_count,
            digest=state_digest(elements),
            winners={name: key[2] for name, (key, _) in winners.items()},
        )

    def element(self, name: str) -> PageElement:
        element = self.elements.get(name)
        if element is None:
            raise VersioningError(
                f"merged document {self.oid_hex[:12]}… has no element {name!r}"
            )
        return element


def state_digest(elements: Dict[str, PageElement]) -> bytes:
    """Digest of the merged document's canonical byte representation.

    Hashes the sorted ``name -> (content, content_type)`` map through
    the canonical encoder, so two replicas agree on this digest iff
    their merged documents are byte-identical.
    """
    return hashes.digest(
        canonical_bytes(
            [
                [name, element.content, element.content_type]
                for name, element in sorted(elements.items())
            ]
        )
    )


def fold_winners(winners: Winners, deltas: Iterable[SignedDelta]) -> Winners:
    """The LWW rule, stated once: fold *deltas* into *winners*; returns it.

    Each op challenges its element's incumbent under the total order
    :attr:`SignedDelta.order_key` + op index and displaces it only when
    strictly greater. Because the winner is a max over a set, folding a
    batch into a retained table is the same function as folding the
    whole set into an empty one (commutative, associative), and folding
    a delta twice changes nothing (idempotent) — which is what lets a
    reader keep the table beside its verified DAG and pay only for the
    deltas that are new.
    """
    for delta in deltas:
        order_key = delta.order_key
        for index, op in enumerate(delta.ops):
            key = order_key + (index,)
            incumbent = winners.get(op.name)
            if incumbent is None or key > incumbent[0]:
                winners[op.name] = (key, op)
    return winners


def merge_deltas(
    deltas: Iterable[SignedDelta],
    oid_hex: Optional[str] = None,
) -> MergedDocument:
    """Merge a set of (already verified) deltas into one document.

    Pure function of the delta *set*: duplicates are collapsed by
    content address and input order is irrelevant. Raises when the set
    mixes objects — merging across OIDs is always a bug upstream.

    This is the fold from empty and the specification: whatever state a
    reader reached by folding batches must equal this function of
    everything it admitted (``tests/versioning/test_incremental.py``).
    """
    by_id: Dict[str, SignedDelta] = {}
    for delta in deltas:
        by_id[delta.delta_id] = delta
        if oid_hex is None:
            oid_hex = delta.oid_hex
        elif delta.oid_hex != oid_hex:
            raise VersioningError(
                f"merge mixes objects: {delta.oid_hex[:12]}… vs {oid_hex[:12]}…"
            )

    # Heads of the merged set: deltas no *other member* names as parent.
    referenced = {p for delta in by_id.values() for p in delta.parents}
    heads = [delta_id for delta_id in by_id if delta_id not in referenced]

    return MergedDocument.from_winners(
        oid_hex or "",
        fold_winners({}, by_id.values()),
        frontier=Frontier.of(heads),
        lamport=max((d.lamport for d in by_id.values()), default=0),
        delta_count=len(by_id),
    )
