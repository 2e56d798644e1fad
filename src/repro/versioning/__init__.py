"""Multi-writer versioning: signed delta DAGs with verified convergence.

The one-writer GlobeDoc signs a linear version history under the object
key. This subsystem opens the concurrent-update scenario while keeping
the paper's fail-closed integrity discipline:

* :mod:`~repro.versioning.grant` — owner-signed writer grants (the
  object key stays the only root of trust);
* :mod:`~repro.versioning.delta` — writer-signed, content-addressed
  deltas with hash-linked parents;
* :mod:`~repro.versioning.dag` — the version DAG and causal frontier;
* :mod:`~repro.versioning.merge` — the deterministic LWW merge
  (commutative / associative / idempotent ⇒ strong eventual
  consistency);
* :mod:`~repro.versioning.frontier` — the DAG-aware integrity
  certificate over a causal frontier;
* :mod:`~repro.versioning.store` — the server-side delta store with
  durable journaling and fail-closed recovery re-verification;
* :mod:`~repro.versioning.writer` / :mod:`~repro.versioning.client` —
  authoring and verified-reading stacks.
"""

from repro.versioning.dag import DeltaDag, Frontier
from repro.versioning.delta import DELTA_CERT_TYPE, DeltaOp, SignedDelta
from repro.versioning.frontier import FRONTIER_CERT_TYPE, FrontierCertificate
from repro.versioning.grant import WRITER_GRANT_CERT_TYPE, WriterGrant
from repro.versioning.merge import MergedDocument, merge_deltas, state_digest
from repro.versioning.store import VersionedObjectStore, gossip_once
from repro.versioning.writer import DocumentWriter

__all__ = [
    "DeltaDag",
    "Frontier",
    "DeltaOp",
    "SignedDelta",
    "DELTA_CERT_TYPE",
    "FrontierCertificate",
    "FRONTIER_CERT_TYPE",
    "WriterGrant",
    "WRITER_GRANT_CERT_TYPE",
    "MergedDocument",
    "merge_deltas",
    "state_digest",
    "VersionedObjectStore",
    "gossip_once",
    "DocumentWriter",
]
