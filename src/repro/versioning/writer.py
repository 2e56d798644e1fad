"""Authoring tooling for granted writers.

A :class:`DocumentWriter` wraps one writer's key pair and identity and
turns "change these elements" into a correctly threaded signed delta:
Lamport timestamp one past everything the writer has seen, parents =
the writer's current verified frontier. The writer extends *its own
view* — convergence with concurrent writers it has not seen is the
merge discipline's job, not the author's.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.crypto.keys import KeyPair
from repro.globedoc.oid import ObjectId
from repro.sim.clock import Clock
from repro.versioning.dag import DeltaDag
from repro.versioning.delta import OP_DELETE, OP_PUT, DeltaOp, SignedDelta
from repro.versioning.frontier import FrontierCertificate
from repro.versioning.merge import MergedDocument

__all__ = ["DocumentWriter"]


class DocumentWriter:
    """One granted writer authoring deltas against a local DAG view."""

    def __init__(
        self,
        keys: KeyPair,
        writer_id: str,
        oid: ObjectId,
        clock: Clock,
    ) -> None:
        self.keys = keys
        self.writer_id = str(writer_id)
        self.oid = oid
        self.clock = clock

    def compose(self, dag: DeltaDag, ops: Iterable[DeltaOp]) -> SignedDelta:
        """Sign a delta extending *dag*'s current frontier."""
        delta = SignedDelta.build(
            self.keys,
            self.oid,
            self.writer_id,
            lamport=dag.lamport_max() + 1,
            parents=dag.heads(),
            ops=list(ops),
            issued_at=self.clock.now(),
        )
        dag.add(delta)
        return delta

    def put(
        self,
        dag: DeltaDag,
        name: str,
        content: bytes,
        content_type: str = "text/html",
    ) -> SignedDelta:
        """Author a single-element update."""
        return self.compose(
            dag, [DeltaOp(OP_PUT, name, content, content_type)]
        )

    def delete(self, dag: DeltaDag, name: str) -> SignedDelta:
        """Author a single-element removal."""
        return self.compose(dag, [DeltaOp(OP_DELETE, name)])

    def certify_frontier(
        self, merged: MergedDocument, issued_at: Optional[float] = None
    ) -> FrontierCertificate:
        """Sign a frontier certificate over a locally merged state."""
        return FrontierCertificate.build(
            self.keys,
            self.oid,
            merged.frontier.heads,
            merged.digest,
            merged.lamport,
            issued_at=issued_at if issued_at is not None else self.clock.now(),
            signer_id=self.writer_id,
        )
