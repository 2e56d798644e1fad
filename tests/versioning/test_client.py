"""The verified reader: binding discipline, cache purge, withholding."""

from __future__ import annotations

import pytest

from repro.crypto.keys import PublicKey
from repro.errors import (
    AuthenticityError,
    BranchWithholdingError,
    DeltaForgeryError,
    RevokedWriterError,
    RpcError,
    UnauthorizedWriterError,
)
from repro.net.message import Response
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.proxy.checks import SecurityChecker
from repro.proxy.contentcache import ContentCache
from repro.server.objectserver import ObjectServer
from repro.versioning import DeltaDag
from repro.versioning.client import VersionedReader
from repro.versioning.grant import WRITER_GRANT_CERT_TYPE, WriterGrant


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


class TestGrantsTravelOnce:
    """A bound reader names the grants it holds by id, and the answer to
    a no-news read carries none of their bodies."""

    def test_bound_no_news_answer_carries_no_grant_body(self, world, clock):
        answers = []

        class Tap:
            stats = world["transport"].stats

            def request(self, endpoint, frame):
                answers.append(world["transport"].request(endpoint, frame))
                return answers[-1]

        reader = VersionedReader(RpcClient(Tap()), SecurityChecker(clock))
        server, oid = world["server"], world["oid"]
        grant_type = WRITER_GRANT_CERT_TYPE.encode()
        reader.read(server.endpoint, oid)
        assert grant_type in answers[-1]  # a fresh reader gets it whole
        assert reader.read(server.endpoint, oid).deltas_fetched == 0
        assert grant_type not in answers[-1]
        assert Response.from_bytes(answers[-1]).value["grants"] == []

    def test_a_new_grant_ships_once(self, world, make_writer):
        reader, server, oid = world["reader"], world["server"], world["oid"]
        reader.read(server.endpoint, oid)  # binds alice's grant
        bob, grant = make_writer("bob")
        server.versioning.put_grant(oid.hex, grant)
        server.versioning.put_delta(oid.hex, bob.put(world["view"], "title", b"by bob"))
        calls = []
        honest = reader.rpc

        class Recording:
            def call(self, endpoint, op, **kwargs):
                calls.append((kwargs["have_grants"], honest.call(endpoint, op, **kwargs)))
                return calls[-1][1]

        reader.rpc = Recording()
        reader.read(server.endpoint, oid)
        reader.read(server.endpoint, oid)
        (sent, first), (sent_again, second) = calls
        assert [WriterGrant.from_dict(g).grant_id for g in first["grants"]] == [grant.grant_id]
        assert first["held_grants"] == sent  # alice's, by id
        assert second["grants"] == []
        assert sorted(second["held_grants"]) == sent_again == sorted(sent + [grant.grant_id])

    def test_a_forged_copy_does_not_take_the_genuine_grants_id(self, world):
        """A replica ships alice's genuine grant followed by a copy of it
        under a corrupted signature. The genuine one authorizes that
        read; the copy must not become what alice's id names, or every
        later read of the object, from any server, would lose her."""
        reader, server, oid = world["reader"], world["server"], world["oid"]
        honest = reader.rpc

        def forged(grant):
            envelope = grant["envelope"]
            signature = bytes([envelope["signature"][0] ^ 1]) + envelope["signature"][1:]
            return {"envelope": {**envelope, "signature": signature}}

        class ForgingRpc:
            def call(self, endpoint, op, **kwargs):
                answer = honest.call(endpoint, op, **kwargs)
                shipped = answer["grants"]
                return {**answer, "grants": shipped + [forged(g) for g in shipped]}

        reader.rpc = ForgingRpc()
        reader.read(server.endpoint, oid)
        reader.rpc = honest
        access = reader.read(server.endpoint, oid)
        assert access.merged.elements["body"].content == b"version-one"


class TestUntrustedHaveGrants:
    """``have_grants`` is untrusted server input: anything but a list of
    strings is a failure response, allocates nothing, and the server
    keeps serving."""

    @pytest.mark.parametrize(
        "have_grants",
        ["abc", 7, 10**8, 10**30, [1, 2], [["a"]], [{}], {"a": 1}, [None]],
        ids=repr,
    )
    def test_refused_without_allocating(self, world, have_grants):
        import tracemalloc

        rpc, server, oid = world["rpc"], world["server"], world["oid"]
        tracemalloc.start()
        try:
            with pytest.raises(RpcError):
                rpc.call(
                    server.endpoint, "versioning.fetch",
                    oid_hex=oid.hex, have_heads=None, have_grants=have_grants,
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        bundle = rpc.call(server.endpoint, "versioning.fetch", oid_hex=oid.hex)
        assert len(bundle["grants"]) == 1 and "held_grants" not in bundle


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
    "held_grants_an_int": lambda bundle: {**bundle, "held_grants": 7},
    "held_grants_unhashable": lambda bundle: {**bundle, "held_grants": [["a"], {}]},
    # An id this reader does not hold names nothing it proved: malformed,
    # never skipped as if the grant had merely lapsed.
    "held_grant_never_held": lambda bundle: {
        **bundle, "held_grants": bundle.get("held_grants", []) + ["00" * 20]
    },
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
        """The answer stops *naming* bob's grant — neither shipped nor
        held by id — so his bound history loses its cover."""
        baseline = self.bind_two_writers(world, owner_keys, clock)
        honest = world["reader"].rpc
        bobs = {
            grant.grant_id
            for (writer_id, _), grant in world["server"].versioning._require(
                world["oid"].hex
            ).grants.items()
            if writer_id == "bob"
        }
        dropped = []

        class GrantDroppingRpc:
            def call(self, endpoint, op, **kwargs):
                answer = honest.call(endpoint, op, **kwargs)
                if op == "versioning.fetch":
                    dropped.extend(i for i in answer.get("held_grants", []) if i in bobs)
                    answer = {
                        **answer,
                        "grants": [
                            g for g in answer["grants"]
                            if g["envelope"]["payload"]["body"]["writer_id"] != "bob"
                        ],
                        "held_grants": [
                            i for i in answer.get("held_grants", []) if i not in bobs
                        ],
                    }
                return answer

        world["reader"].rpc = GrantDroppingRpc()
        self.assert_rejected_and_untouched(world, baseline, UnauthorizedWriterError)
        assert dropped == sorted(bobs)  # the bound reader held it by id

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
