"""The verified reader: binding discipline, cache purge, withholding."""

from __future__ import annotations

import pytest

from repro.crypto.keys import PublicKey
from repro.errors import AuthenticityError, BranchWithholdingError
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


class TestServedIdsFallback:
    def test_no_news_reread_without_claimed_id_list(self, world):
        """Regression: a server that omits ``peer_delta_ids`` must not
        turn every incremental no-news read into a false withholding
        alarm — the check falls back to DAG membership."""

        class StrippingRpc:
            def __init__(self, inner):
                self.inner = inner

            def call(self, endpoint, op, **kwargs):
                answer = self.inner.call(endpoint, op, **kwargs)
                if op == "versioning.fetch" and isinstance(answer, dict):
                    answer = {
                        k: v for k, v in answer.items() if k != "peer_delta_ids"
                    }
                return answer

        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.rpc = StrippingRpc(world["rpc"])
        reader.read(server.endpoint, oid)
        again = reader.read(server.endpoint, oid)
        assert again.deltas_fetched == 0
        assert again.merged.elements["body"].content == b"version-one"

    def test_store_fetch_carries_claimed_id_list(self, world):
        """The bare store's bundle guarantees the claimed-id field — no
        RPC wrapper needed for withholding judgements."""
        from repro.versioning import SignedDelta

        bundle = world["server"].versioning.fetch(world["oid"].hex)
        assert bundle["peer_delta_ids"] == [
            SignedDelta.from_dict(d).delta_id for d in bundle["deltas"]
        ]


#: id -> what the genuine ``versioning.fetch`` answer becomes.
MALFORMED_BUNDLES = {
    "empty_mapping": lambda bundle: {},
    "not_a_mapping": lambda bundle: [1, 2],
    "none": lambda bundle: None,
    "deltas_an_int": lambda bundle: {**bundle, "deltas": 5},
    "delta_not_a_certificate": lambda bundle: {**bundle, "deltas": [{"body": b"x"}]},
    "grants_a_string_list": lambda bundle: {**bundle, "grants": ["alice"]},
    "frontier_cert_a_string": lambda bundle: {**bundle, "frontier_cert": "EVIL"},
    "unhashable_peer_ids": lambda bundle: {**bundle, "peer_delta_ids": [["a"], {}]},
    "peer_ids_an_int": lambda bundle: {**bundle, "peer_delta_ids": 7},
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
