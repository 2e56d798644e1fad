#!/usr/bin/env python3
"""A document several writers edit, and the owner's kill switch.

The owner of a versioned object grants two writers; each publishes
signed deltas to the object server, and a reader in Paris verifies the
merged document (every delta signed by a granted writer, no head
withheld). Then the owner revokes one writer through the revocation
feed: once the reader's view holds that statement, it refuses every
state carrying the writer's deltas — fail closed, and retroactive.

Run: ``python examples/multi_writer_document.py``
"""

from __future__ import annotations

from repro.crypto.keys import KeyPair
from repro.errors import RevokedWriterError
from repro.globedoc.oid import ObjectId
from repro.harness.experiment import Testbed
from repro.revocation.statement import RevocationStatement
from repro.versioning import DeltaDag, DocumentWriter, WriterGrant
from repro.versioning.client import VersionedReader


def main() -> None:
    testbed = Testbed()
    owner = KeyPair.generate(1024)
    oid = ObjectId.from_public_key(owner.public)
    server = testbed.object_server
    server.versioning.register_object(owner.public)

    # -- 1. The owner grants two writers; each edits the shared DAG ------
    dag = DeltaDag()
    writers = {}
    for writer_id in ("alice", "bob"):
        keys = KeyPair.generate(1024)
        grant = WriterGrant.issue(owner, oid, writer_id, keys.public, granted_at=testbed.clock.now())
        server.versioning.put_grant(oid.hex, grant)
        writers[writer_id] = DocumentWriter(keys, writer_id, oid, testbed.clock)
    edits = [
        writers["alice"].put(dag, "index.html", b"<html>draft</html>"),
        writers["bob"].put(dag, "title.txt", b"Minutes", "text/plain"),
        writers["alice"].put(dag, "index.html", b"<html>minutes of the meeting</html>"),
        writers["bob"].put(dag, "scratch.txt", b"notes", "text/plain"),
    ]
    edits.append(writers["bob"].delete(dag, "scratch.txt"))
    for delta in edits:
        server.versioning.put_delta(oid.hex, delta)
    print(f"{len(edits)} signed deltas from {len(writers)} granted writers")

    # -- 2. A reader verifies the merged document ------------------------
    stack = testbed.client_stack("canardo.inria.fr", revocation_max_staleness=60.0)
    reader = VersionedReader(stack.rpc, stack.checker)
    merged = reader.read(testbed.objectserver_endpoint, oid).merged
    for name in sorted(merged.elements):
        print(f"  {name:12s} {merged.elements[name].content!r}")

    # -- 3. The owner revokes bob: every state with his deltas is refused -
    server.revocation_feed.publish(
        RevocationStatement.revoke_writer(
            owner, oid, "bob", serial=1, issued_at=testbed.clock.now()
        )
    )
    testbed.clock.advance(61.0)  # past the reader's revocation staleness
    try:
        reader.read(testbed.objectserver_endpoint, oid)
    except RevokedWriterError as exc:
        print(f"After revoking bob the reader refuses the state: {type(exc).__name__}")
    else:
        raise SystemExit("a state carrying a revoked writer's deltas was served")


if __name__ == "__main__":
    main()
