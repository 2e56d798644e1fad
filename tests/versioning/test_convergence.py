"""Strong eventual convergence, over generated delivery histories.

The invariant, stated once: replicas that hold the same verified delta
set hold byte-identical documents, whatever order the deltas were
written and delivered in. Writers partitioned across two object servers
edit the same elements concurrently, each seeing only its home server's
branch; one anti-entropy round heals the partition; then both servers'
merged state *and* the state two independent verified readers prove from
the wire must be one digest. Hypothesis draws the history; a failure
shrinks to a replayable (writers, rounds, seed).
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.proxy.checks import SecurityChecker
from repro.server.objectserver import ObjectServer
from repro.sim.clock import SimClock
from repro.versioning import (
    DeltaDag,
    DocumentWriter,
    SignedDelta,
    WriterGrant,
    merge_deltas,
)
from repro.versioning.client import VersionedReader

from tests.conftest import EPOCH, fast_keys

MAX_WRITERS = 5

# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
budget = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=50, deadline=None)
)


@pytest.fixture(scope="module")
def writer_keys():
    return [fast_keys() for _ in range(MAX_WRITERS)]


@budget
@given(
    writer_count=st.integers(2, MAX_WRITERS),
    rounds=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_partitioned_writers_converge_after_one_gossip_round(
    owner_keys, oid, writer_keys, writer_count, rounds, seed
):
    rng = random.Random(seed)
    clock = SimClock(EPOCH)
    transport = LoopbackTransport()
    rpc = RpcClient(transport)
    servers = [
        ObjectServer(host=host, site=f"root/site/{host}", clock=clock)
        for host in ("left.example", "right.example")
    ]
    for server in servers:
        transport.register(server.endpoint, server.rpc_server().handle_frame)
        server.versioning.register_object(owner_keys.public)

    writers = []
    for index in range(writer_count):
        writer_id = f"writer{index:02d}"
        keys = writer_keys[index]
        grant = WriterGrant.issue(
            owner_keys, oid, writer_id, keys.public, granted_at=clock.now()
        )
        for server in servers:
            server.versioning.put_grant(oid.hex, grant)
        # Partitioned: a writer publishes to, and sees, its home server only.
        home = servers[index % len(servers)].versioning
        writers.append((DocumentWriter(keys, writer_id, oid, clock), home, DeltaDag()))

    for round_index in range(rounds):
        for writer, home, view in writers:
            bundle = home.fetch(oid.hex, have_heads=view.heads())
            view.add_all(SignedDelta.from_dict(d) for d in bundle["deltas"])
            # Every writer's first edit is to one element, so both sides
            # of the partition always hold concurrent edits of it.
            element = "shared" if round_index == 0 else f"element-{rng.randrange(3)}"
            content = f"round {round_index} by {writer.writer_id}: {rng.random()}"
            home.put_delta(oid.hex, writer.put(view, element, content.encode()))
            clock.advance(0.25)

    gossip = servers[0].gossip_versioned(rpc, servers[1].endpoint, oid.hex)
    assert gossip["pulled"] + gossip["pushed"] > 0

    digests = set()
    for server in servers:
        served = [
            SignedDelta.from_dict(d)
            for d in server.versioning.fetch(oid.hex)["deltas"]
        ]
        assert len(served) == writer_count * rounds
        digests.add(merge_deltas(served, oid_hex=oid.hex).digest_hex)
        # An independent verified reader per replica: the digest each one
        # *proves* from the wire, not the server's own claim.
        access = VersionedReader(rpc, SecurityChecker(clock)).read(server.endpoint, oid)
        digests.add(access.merged.digest_hex)
    assert len(digests) == 1
