"""Grants held by id ≡ grants shipped whole, over generated grant histories.

A bound reader sends the ids of the grants its last read used as
``have_grants`` and the server names those in ``held_grants`` instead of
shipping them. That must only ever save bytes: on every read, a reader
that sends ``have_grants`` reaches the same verdict as a twin that never
does — the same :class:`~repro.errors.SecurityError` subclass, or the
same ``merged.digest_hex`` — and the answer names exactly the grants
the twin is shipped.

Hypothesis draws the history: grants issued and renewed with a shorter
or longer ``not_after`` (or none), a writer re-keyed onto its second
key, the clock advanced past lapses, a writer revoked through the feed,
a server that stops (and resumes) naming a writer's grants, a server
that once ignores ``have_grants`` and ships each grant followed by a
copy under a corrupted signature, and writes and reads in between. Both readers share the server, the feed and the
clock; a failure shrinks to a replayable example.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.verifycache import VerificationCache
from repro.errors import SecurityError
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.proxy.checks import SecurityChecker
from repro.revocation.checker import RevocationChecker
from repro.revocation.statement import RevocationStatement
from repro.server.objectserver import ObjectServer
from repro.sim.clock import SimClock
from repro.versioning import DeltaDag, DocumentWriter, WriterGrant
from repro.versioning.client import VersionedReader

from tests.conftest import EPOCH, fast_keys

WRITERS = ["w0", "w1"]
#: A grant step's lifetimes: short, long, open-ended.
LIFETIMES = (30.0, 90.0, None)
ADVANCES = (20.0, 45.0, 100.0, 200.0)
FEED_STALENESS = 60.0

# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
budget = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=40, deadline=None)
)

# (what happens, which writer, its argument); reads and writes are drawn
# more often than the steps that end a history's readability for good.
step = st.tuples(
    st.sampled_from(
        [
            "read", "read", "write", "write",
            "grant", "advance", "hide", "revoke", "forge",
        ]
    ),
    st.integers(0, len(WRITERS) - 1),
    st.integers(0, 5),
)


@pytest.fixture(scope="module")
def writer_keys():
    """Two keys per writer: slot 1 is the key a re-key moves it onto."""
    return {writer_id: [fast_keys(), fast_keys()] for writer_id in WRITERS}


def forged(grant: dict) -> dict:
    """*grant* with one bit of its signature flipped."""
    envelope = grant["envelope"]
    signature = bytes([envelope["signature"][0] ^ 1]) + envelope["signature"][1:]
    return {"envelope": {**envelope, "signature": signature}}


class Answering:
    """One reader's view of the server: the same hidden grants for both,
    and for the twin no ``have_grants`` ever leaves the reader. With
    ``forge_next`` set, the next answer ignores ``have_grants`` and ships
    every grant followed by a forged copy of it."""

    def __init__(self, rpc, hidden, send_have_grants):
        self.rpc = rpc
        self.hidden = hidden
        self.send_have_grants = send_have_grants
        self.forge_next = False
        self.sent = self.answer = None

    def call(self, endpoint, op, **kwargs):
        forging = self.forge_next and op == "versioning.fetch"
        if forging or not self.send_have_grants:
            kwargs.pop("have_grants", None)
        answer = self.rpc.call(endpoint, op, **kwargs)
        if op == "versioning.fetch":
            grants = [
                g for g in answer["grants"]
                if WriterGrant.from_dict(g).grant_id not in self.hidden
            ]
            answer = {
                **answer,
                "grants": grants + [forged(g) for g in grants] if forging else grants,
                "held_grants": [
                    i for i in answer.get("held_grants", []) if i not in self.hidden
                ],
            }
            self.forge_next = False
            self.sent, self.answer = kwargs.get("have_grants"), answer
        return answer


def named_ids(answer) -> list:
    shipped = [WriterGrant.from_dict(g).grant_id for g in answer["grants"]]
    return sorted(shipped + answer["held_grants"])


@budget
@given(steps=st.lists(step, max_size=16))
def test_held_grants_reach_the_twins_verdict(owner_keys, oid, writer_keys, steps):
    clock = SimClock(EPOCH)
    transport = LoopbackTransport()
    rpc = RpcClient(transport)
    server = ObjectServer(host="ginger.cs.vu.nl", site="root/site/vu", clock=clock)
    transport.register(server.endpoint, server.rpc_server().handle_frame)
    store = server.versioning
    store.register_object(owner_keys.public)
    hidden = set()

    def reader(send_have_grants):
        checker = SecurityChecker(
            clock,
            verification_cache=VerificationCache(),
            revocation_checker=RevocationChecker(
                rpc, server.endpoint, clock, max_staleness=FEED_STALENESS
            ),
        )
        answering = Answering(rpc, hidden, send_have_grants)
        return VersionedReader(answering, checker), answering

    holder, holder_wire = reader(send_have_grants=True)
    twin, twin_wire = reader(send_have_grants=False)

    view = DeltaDag()
    latest = {}  # writer id -> the key slot of its newest grant
    serial = 0

    def grant(writer_id, slot, lifetime):
        keys = writer_keys[writer_id][slot]
        store.put_grant(
            oid.hex,
            WriterGrant.issue(
                owner_keys, oid, writer_id, keys.public, granted_at=clock.now(),
                not_after=None if lifetime is None else clock.now() + lifetime,
            ),
        )
        latest[writer_id] = slot

    def write(writer_id, element):
        keys = writer_keys[writer_id][latest[writer_id]]
        writer = DocumentWriter(keys, writer_id, oid, clock)
        delta = writer.put(view, f"e{element}", b"%d by %s" % (len(view), writer_id.encode()))
        store.put_delta(oid.hex, delta)

    def verdict(reader):
        try:
            return reader.read(server.endpoint, oid).merged.digest_hex
        except SecurityError as exc:
            return type(exc).__name__

    grant("w0", 0, None)
    write("w0", 0)
    for kind, writer_index, arg in steps + [("read", 0, 0)]:
        writer_id = WRITERS[writer_index]
        if kind == "grant":
            grant(writer_id, arg % 2, LIFETIMES[arg // 2])
        elif kind == "write" and writer_id in latest:
            write(writer_id, arg)
        elif kind == "advance":
            clock.advance(ADVANCES[arg % len(ADVANCES)])
        elif kind == "revoke":
            serial += 1
            server.revocation_feed.publish(
                RevocationStatement.revoke_writer(
                    owner_keys, oid, writer_id, serial=serial, issued_at=clock.now()
                )
            )
        elif kind == "forge":
            holder_wire.forge_next = twin_wire.forge_next = True
        elif kind == "hide":
            ids = {
                g.grant_id
                for (held_by, _), g in store._require(oid.hex).grants.items()
                if held_by == writer_id
            }
            if ids <= hidden:
                hidden.difference_update(ids)  # the server names them again
            else:
                hidden.update(ids)
        elif kind == "read":
            assert verdict(holder) == verdict(twin)
            # The same grants are named; none the holder sent travels again.
            assert named_ids(holder_wire.answer) == named_ids(twin_wire.answer)
            shipped = {WriterGrant.from_dict(g).grant_id for g in holder_wire.answer["grants"]}
            assert not shipped & set(holder_wire.sent or ())
