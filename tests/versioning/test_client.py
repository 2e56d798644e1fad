"""The verified reader: binding discipline, cache purge, withholding."""

from __future__ import annotations

import pytest

from repro.crypto.keys import PublicKey
from repro.errors import (
    AuthenticityError,
    BranchWithholdingError,
    DeltaForgeryError,
    RevokedWriterError,
    UnauthorizedWriterError,
)
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.proxy.checks import SecurityChecker
from repro.proxy.contentcache import ContentCache
from repro.server.objectserver import ObjectServer
from repro.versioning import DeltaDag
from repro.versioning.client import VersionedReader


@pytest.fixture
def world(clock, owner_keys, oid, make_writer):
    transport = LoopbackTransport()
    rpc = RpcClient(transport)
    server = ObjectServer(host="ginger.cs.vu.nl", site="root/site/vu", clock=clock)
    transport.register(server.endpoint, server.rpc_server().handle_frame)
    server.versioning.register_object(owner_keys.public)
    writer, grant = make_writer("alice")
    server.versioning.put_grant(oid.hex, grant)
    view = DeltaDag()
    server.versioning.put_delta(oid.hex, writer.put(view, "body", b"version-one"))
    cache = ContentCache(clock=clock, ttl=300.0)
    reader = VersionedReader(rpc, SecurityChecker(clock), content_cache=cache)
    return {
        "server": server, "rpc": rpc, "transport": transport, "writer": writer,
        "view": view, "cache": cache, "reader": reader, "oid": oid,
    }


class TestBinding:
    def test_read_merges_and_binds(self, world):
        access = world["reader"].read(world["server"].endpoint, world["oid"])
        assert access.merged.elements["body"].content == b"version-one"
        assert access.deltas_fetched == 1
        assert world["reader"].known_frontier(world["oid"].hex) is not None

    def test_incremental_reread_fetches_nothing(self, world):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)
        again = reader.read(server.endpoint, oid)
        assert again.deltas_fetched == 0
        assert again.merged.elements["body"].content == b"version-one"


class TestCachePurge:
    def test_newer_frontier_purges_stale_entries(self, world):
        """Regression: a strictly newer verified frontier must evict
        every cached element of the object before re-caching the new
        merge — a reader may never serve pre-merge bytes as current."""
        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)
        cached = reader.cached_element(oid.hex, "body")
        assert cached is not None and cached.content == b"version-one"

        server.versioning.put_delta(
            oid.hex, world["writer"].put(world["view"], "body", b"version-two")
        )
        access = reader.read(server.endpoint, oid)
        assert access.cache_purged >= 1
        assert reader.cached_element(oid.hex, "body").content == b"version-two"

    def test_unchanged_frontier_purges_nothing(self, world):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)
        again = reader.read(server.endpoint, oid)
        assert again.cache_purged == 0
        assert reader.cached_element(oid.hex, "body").content == b"version-one"

    def test_deleted_element_leaves_no_cache_ghost(self, world):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        server.versioning.put_delta(
            oid.hex, world["writer"].put(world["view"], "extra", b"short-lived")
        )
        reader.read(server.endpoint, oid)
        assert reader.cached_element(oid.hex, "extra") is not None
        server.versioning.put_delta(
            oid.hex, world["writer"].delete(world["view"], "extra")
        )
        reader.read(server.endpoint, oid)
        assert reader.cached_element(oid.hex, "extra") is None


class TestHeadsRequired:
    def test_answer_without_heads_fails_closed(self, world):
        """Regression: an answer that omits ``heads`` must not switch
        the rollback check off — it is malformed, and the verified
        baseline stays as it was."""

        class StrippingRpc:
            def __init__(self, inner):
                self.inner = inner

            def call(self, endpoint, op, **kwargs):
                answer = self.inner.call(endpoint, op, **kwargs)
                if op == "versioning.fetch" and isinstance(answer, dict):
                    answer = {k: v for k, v in answer.items() if k != "heads"}
                return answer

        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)
        frontier, dag = reader.known_frontier(oid.hex), reader.known_dag(oid.hex)
        reader.rpc = StrippingRpc(world["rpc"])
        with pytest.raises(AuthenticityError, match="malformed versioning.fetch"):
            reader.read(server.endpoint, oid)
        assert reader.known_frontier(oid.hex) == frontier
        assert reader.known_dag(oid.hex) is dag

    def test_store_fetch_carries_heads_not_ids(self, world):
        """The bare store's bundle claims its frontier and nothing that
        grows with history — no RPC wrapper needed for withholding
        judgements."""
        bundle = world["server"].versioning.fetch(world["oid"].hex)
        assert bundle["heads"] == world["view"].heads()
        assert "peer_delta_ids" not in bundle


class TestNoNewsWire:
    """Pins the exchange, not the clock: a read with no news costs the
    same bytes whatever the history behind it. Re-introducing an id list
    on either side of the wire fails here, exactly."""

    def test_no_news_read_bytes_do_not_grow_with_history(self, world):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        stats = world["transport"].stats

        def no_news_read_bytes():
            reader.read(server.endpoint, oid)  # binds whatever is new
            sent, received = stats.bytes_sent, stats.bytes_received
            assert reader.read(server.endpoint, oid).deltas_fetched == 0
            return stats.bytes_sent - sent, stats.bytes_received - received

        def grow_to(size):
            while len(world["view"]) < size:
                server.versioning.put_delta(
                    oid.hex,
                    world["writer"].put(world["view"], "body", b"%08d" % len(world["view"])),
                )

        grow_to(8)
        at_8 = no_news_read_bytes()
        grow_to(64)
        assert no_news_read_bytes() == at_8


#: id -> what the genuine ``versioning.fetch`` answer becomes.
MALFORMED_BUNDLES = {
    "empty_mapping": lambda bundle: {},
    "not_a_mapping": lambda bundle: [1, 2],
    "none": lambda bundle: None,
    "deltas_an_int": lambda bundle: {**bundle, "deltas": 5},
    "delta_not_a_certificate": lambda bundle: {**bundle, "deltas": [{"body": b"x"}]},
    "grants_a_string_list": lambda bundle: {**bundle, "grants": ["alice"]},
    "frontier_cert_a_string": lambda bundle: {**bundle, "frontier_cert": "EVIL"},
    "heads_missing": lambda bundle: {k: v for k, v in bundle.items() if k != "heads"},
    "peer_heads_an_int": lambda bundle: {**bundle, "heads": 7},
    "unhashable_peer_heads": lambda bundle: {**bundle, "heads": [["a"], {}]},
    "heads_not_delta_ids": lambda bundle: {**bundle, "heads": [1, 2]},
    "object_key_an_int": lambda bundle: {**bundle, "object_key_der": 50_000_000},
    "object_key_a_string": lambda bundle: {**bundle, "object_key_der": "EVIL"},
}


class TestMalformedBundle:
    """ROADMAP 6(d), the versioning half: a ``versioning.fetch`` answer
    that does not decode is an ``AuthenticityError``, and the verified
    baseline is untouched."""

    @pytest.mark.parametrize("case", list(MALFORMED_BUNDLES))
    def test_typed_rejection_leaves_baseline_untouched(self, world, case):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)
        frontier, dag = reader.known_frontier(oid.hex), reader.known_dag(oid.hex)
        honest = reader.rpc

        class ForgingRpc:
            def call(self, endpoint, op, **kwargs):
                answer = honest.call(endpoint, op, **kwargs)
                return MALFORMED_BUNDLES[case](answer) if op == "versioning.fetch" else answer

        reader.rpc = ForgingRpc()
        with pytest.raises(AuthenticityError, match="malformed versioning.fetch"):
            reader.read(server.endpoint, oid)
        assert reader.known_frontier(oid.hex) == frontier
        assert reader.known_dag(oid.hex) is dag


class TestRekey:
    def test_rekeyed_writer_history_stays_readable(
        self, world, owner_keys, clock
    ):
        """Regression: an owner re-key (new grant, same writer id) must
        not make the writer's earlier deltas unverifiable — both grants
        travel, and each key's deltas verify under its own grant."""
        from repro.versioning import DocumentWriter, WriterGrant

        from tests.conftest import fast_keys

        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)
        new_keys = fast_keys()
        server.versioning.put_grant(
            oid.hex,
            WriterGrant.issue(
                owner_keys, oid, "alice", new_keys.public,
                granted_at=clock.now(),
            ),
        )
        rekeyed = DocumentWriter(new_keys, "alice", oid, clock)
        server.versioning.put_delta(
            oid.hex, rekeyed.put(world["view"], "body", b"version-two")
        )
        access = reader.read(server.endpoint, oid)
        assert access.merged.elements["body"].content == b"version-two"


class TestWithholding:
    def rolled_back_server(self, world):
        """A second server holding only the first delta — the state a
        rolled-back (or branch-withholding) replica would serve."""
        server, oid = world["server"], world["oid"]
        old = ObjectServer(
            host="canardo.inria.fr", site="root/site/inria", clock=server.clock
        )
        world["transport"].register(old.endpoint, old.rpc_server().handle_frame)
        full = server.versioning.fetch(oid.hex)
        from repro.versioning import SignedDelta, WriterGrant

        old.versioning.register_object(
            PublicKey(der=bytes(full["object_key_der"]))
        )
        for grant in full["grants"]:
            old.versioning.put_grant(oid.hex, WriterGrant.from_dict(grant))
        first = full["deltas"][0]
        old.versioning.put_delta(oid.hex, SignedDelta.from_dict(first))
        return old

    def test_rollback_after_bind_rejected(self, world):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        server.versioning.put_delta(
            oid.hex, world["writer"].put(world["view"], "body", b"version-two")
        )
        reader.read(server.endpoint, oid)
        stale = self.rolled_back_server(world)
        with pytest.raises(BranchWithholdingError):
            reader.read(stale.endpoint, oid)

    def test_rejected_read_leaves_baseline_untouched(self, world):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        server.versioning.put_delta(
            oid.hex, world["writer"].put(world["view"], "body", b"version-two")
        )
        reader.read(server.endpoint, oid)
        frontier = reader.known_frontier(oid.hex)
        stale = self.rolled_back_server(world)
        with pytest.raises(BranchWithholdingError):
            reader.read(stale.endpoint, oid)
        assert reader.known_frontier(oid.hex) == frontier
        assert reader.cached_element(oid.hex, "body").content == b"version-two"


class TestNoNewsFailsClosed:
    """A read that fetches nothing re-proves no delta, so what time or
    the feed can change has to be judged on its own, every read — the
    old reader got that for free by redoing everything. Each rejection
    leaves the bound state and the content cache exactly as they were."""

    class Feed:
        """Stands in for the revocation checker: fresh, owner-controlled."""

        staleness = None

        def __init__(self):
            self.revoked = set()

        def check(self, oid, element_name=None, cert_version=None):
            return None

        def revoked_writers(self, oid):
            return set(self.revoked)

    def bind_two_writers(self, world, owner_keys, clock, bob_not_after=None):
        """alice's delta plus one by bob, read once; returns the baseline."""
        from repro.versioning import DocumentWriter, WriterGrant

        from tests.conftest import fast_keys

        reader, server, oid = world["reader"], world["server"], world["oid"]
        bob_keys = fast_keys()
        server.versioning.put_grant(
            oid.hex,
            WriterGrant.issue(
                owner_keys, oid, "bob", bob_keys.public,
                granted_at=clock.now(), not_after=bob_not_after,
            ),
        )
        bob = DocumentWriter(bob_keys, "bob", oid, clock)
        server.versioning.put_delta(oid.hex, bob.put(world["view"], "title", b"by bob"))
        reader.checker.revocation_checker = world["feed"] = self.Feed()
        assert reader.read(server.endpoint, oid).deltas_fetched == 2
        return reader.known_frontier(oid.hex), reader.known_dag(oid.hex)

    def assert_rejected_and_untouched(self, world, baseline, error):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        frontier, dag = baseline
        size = len(dag)
        with pytest.raises(error):
            reader.read(server.endpoint, oid)
        assert reader.known_dag(oid.hex) is dag and len(dag) == size
        assert reader.known_frontier(oid.hex) == frontier
        assert reader.cached_element(oid.hex, "body").content == b"version-one"
        assert reader.cached_element(oid.hex, "title").content == b"by bob"

    def test_grant_lapsing_between_reads(self, world, owner_keys, clock):
        baseline = self.bind_two_writers(
            world, owner_keys, clock, bob_not_after=clock.now() + 60.0
        )
        clock.advance(120.0)
        self.assert_rejected_and_untouched(world, baseline, UnauthorizedWriterError)

    def test_writer_revoked_between_reads(self, world, owner_keys, clock):
        baseline = self.bind_two_writers(world, owner_keys, clock)
        world["feed"].revoked.add("bob")
        self.assert_rejected_and_untouched(world, baseline, RevokedWriterError)

    def test_server_drops_a_grant_from_the_bundle(self, world, owner_keys, clock):
        baseline = self.bind_two_writers(world, owner_keys, clock)
        honest = world["reader"].rpc

        class GrantDroppingRpc:
            def call(self, endpoint, op, **kwargs):
                answer = honest.call(endpoint, op, **kwargs)
                if op == "versioning.fetch":
                    answer = {**answer, "grants": answer["grants"][:1]}
                return answer

        world["reader"].rpc = GrantDroppingRpc()
        self.assert_rejected_and_untouched(world, baseline, UnauthorizedWriterError)

    def test_tampered_new_delta_after_a_bound_state(self, world, owner_keys, clock):
        baseline = self.bind_two_writers(world, owner_keys, clock)
        world["server"].versioning.put_delta(
            world["oid"].hex,
            world["writer"].put(world["view"], "body", b"version-two"),
        )
        honest = world["reader"].rpc

        class TamperingRpc:
            def call(self, endpoint, op, **kwargs):
                answer = honest.call(endpoint, op, **kwargs)
                if op == "versioning.fetch":
                    (delta,) = answer["deltas"]  # only the news travels
                    delta["envelope"]["payload"]["body"]["ops"][0]["content"] = b"EVIL"
                return answer

        world["reader"].rpc = TamperingRpc()
        self.assert_rejected_and_untouched(world, baseline, DeltaForgeryError)


class TestVerifiedOnce:
    """Pins the complexity, not the clock: a read pays signature checks
    and merge work for the deltas that are new to this reader, never
    for the ones it holds. Re-introducing the union fails here instead
    of hiding inside a benchmark's noise bound."""

    def test_verify_and_fold_work_follow_the_news(self, world, monkeypatch):
        from repro.proxy import checks
        from repro.versioning import SignedDelta

        reader, server, oid = world["reader"], world["server"], world["oid"]
        work = {"verified": 0, "folded": 0}
        verify, fold = SignedDelta.verify, checks.fold_winners

        def counting_verify(delta, *args, **kwargs):
            work["verified"] += 1
            return verify(delta, *args, **kwargs)

        def counting_fold(winners, deltas):
            deltas = list(deltas)
            work["folded"] += len(deltas)
            return fold(winners, deltas)

        def publish(count):
            for index in range(count):
                server.versioning.put_delta(
                    oid.hex,
                    world["writer"].put(world["view"], f"e{index % 3}", b"%d" % index),
                )

        def read():
            """(deltas verified, deltas folded, merged.delta_count) of one read."""
            work.update(verified=0, folded=0)
            with monkeypatch.context() as patched:
                patched.setattr(SignedDelta, "verify", counting_verify)
                patched.setattr(checks, "fold_winners", counting_fold)
                merged = reader.read(server.endpoint, oid).merged
            return work["verified"], work["folded"], merged.delta_count

        publish(11)  # on top of the fixture's one
        assert read() == (12, 12, 12)
        assert read() == (0, 0, 12)
        publish(5)
        assert read() == (5, 5, 17)
        assert read() == (0, 0, 17)
