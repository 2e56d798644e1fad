"""The adversarial conformance matrix, as a reusable library.

Every tamper mode of the §3.2.1 taxonomy — wire injection, content
tampering, element swapping, stale replay, impostor keys, a lying
location service, a relabelled hash suite, and a compromised-then-revoked
key — paired with the exact :class:`~repro.errors.SecurityError` subclass
and the span (a ``check.*`` span, or ``session.establish`` for a
certificate that does not even decode) that must reject it. The integration tests parametrize over this list
cold *and* warm, with the concurrent pipeline disabled *and* enabled, to
prove the fast paths never convert a cached or prefetched artifact into
a bypass.

:func:`build_world` assembles one scenario universe (testbed, victim
document, client stack); :func:`run_scenario` runs one matrix cell and
returns a machine-checkable verdict.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_location import LyingLocationService
from repro.attacks.malicious_server import (
    ElementSwapBehavior,
    ElementSwapRenamedBehavior,
    HonestBehavior,
    ImpostorBehavior,
    MaliciousReplica,
    StaleReplayBehavior,
    TamperBehavior,
)
from repro.attacks.mitm import MitmTransport
from repro.crypto.keys import KeyPair
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.net.address import Endpoint
from repro.net.message import Response
from repro.obs import RingBufferSink, Tracer
from repro.proxy.pipeline import PipelineConfig
from repro.revocation.statement import RevocationStatement

__all__ = [
    "ELEMENTS",
    "EVIL_MARKER",
    "CLIENT_HOST",
    "REVOCATION_STALENESS",
    "Scenario",
    "SCENARIOS",
    "World",
    "build_world",
    "run_scenario",
    "VERSIONING_ELEMENTS",
    "VersioningScenario",
    "VERSIONING_SCENARIOS",
    "VersioningWorld",
    "build_versioning_world",
    "run_versioning_scenario",
    "run_versioning_matrix",
]

ELEMENTS = {
    "index.html": b"<html>genuine matrix page</html>",
    "retraction.html": b"<html>genuine retraction</html>",
}

#: Bytes every attacker injects/serves; must never reach the caller.
EVIL_MARKER = b"EVIL-PAYLOAD"

CLIENT_HOST = "canardo.inria.fr"

#: Staleness window for the revocation scenario's stack (poll at half).
REVOCATION_STALENESS = 30.0


def _default_keys() -> KeyPair:
    # RSA-1024 keeps matrix sweeps fast; the tests inject their own
    # pre-generated key pool instead.
    return KeyPair.generate(1024)


class FlippedBytesBehavior(HonestBehavior):
    """Flip one content byte — the minimal authenticity violation."""

    def element(self, state, name):
        element = state.element(name)
        content = bytearray(element.content)
        content[0] ^= 0xFF
        return element.with_content(bytes(content) + EVIL_MARKER)


@dataclass
class World:
    """One scenario's universe: testbed, victim document, client stack."""

    testbed: Testbed
    published: object
    stack: object
    ring: RingBufferSink
    keys: Callable[[], KeyPair]
    pipelined: bool = False

    def deploy_replica(self, behavior) -> MaliciousReplica:
        replica = MaliciousReplica(
            host=CLIENT_HOST, document=self.published.document, behavior=behavior
        )
        self.testbed.install_replica(replica, self.published.oid_hex)
        return replica

    def handle(self, url: str):
        """Serve *url* through the mode under test: the pipelined batch
        path when enabled, the plain sequential proxy otherwise."""
        if self.pipelined:
            return self.stack.proxy.handle_many([url])[0]
        return self.stack.proxy.handle(url)


@dataclass(frozen=True)
class Scenario:
    """One tamper mode and the check that must reject it."""

    id: str
    expected_error: str
    expected_span: str
    deploy: Callable[[World], None]
    #: Scenarios that need the seventh check build their stack with a
    #: revocation checker attached (the rest keep the six-check pipeline).
    revocation: bool = False


def deploy_mitm(world: World) -> None:
    # The stack's transport is a MitmTransport built with the rewriter
    # disarmed (so the warm-up access is clean); arm it now.
    world.stack.transport.rewrite = MitmTransport.content_injector(EVIL_MARKER)


def deploy_tamper(world: World) -> None:
    world.deploy_replica(TamperBehavior(target="index.html", payload=EVIL_MARKER))


def deploy_flipped_bytes(world: World) -> None:
    world.deploy_replica(FlippedBytesBehavior())


def deploy_element_swap(world: World) -> None:
    world.deploy_replica(
        ElementSwapBehavior(
            when_asked_for="index.html", serve_instead="retraction.html"
        )
    )


def deploy_element_swap_renamed(world: World) -> None:
    world.deploy_replica(
        ElementSwapRenamedBehavior(
            when_asked_for="index.html", serve_instead="retraction.html"
        )
    )


def deploy_stale_replay(world: World) -> None:
    # Re-sign the *current* elements with a certificate that expires in
    # 60 s, replay it, and let the interval lapse: every signature still
    # verifies, only the freshness check can object.
    stale = world.published.owner.publish(validity=60.0)
    world.deploy_replica(StaleReplayBehavior(stale))
    world.testbed.clock.advance(61.0)


def deploy_impostor(world: World) -> None:
    impostor_owner = DocumentOwner(
        "evil.example/fake", keys=world.keys(), clock=world.testbed.clock
    )
    impostor_owner.put_element(PageElement("index.html", EVIL_MARKER))
    world.deploy_replica(ImpostorBehavior(impostor_owner.publish(validity=3600.0)))


def deploy_lying_location(world: World) -> None:
    impostor_owner = DocumentOwner(
        "evil.example/fake", keys=world.keys(), clock=world.testbed.clock
    )
    impostor_owner.put_element(PageElement("index.html", EVIL_MARKER))
    impostor = MaliciousReplica(
        host=CLIENT_HOST,
        document=world.published.document,
        behavior=ImpostorBehavior(impostor_owner.publish(validity=3600.0)),
        replica_id="impostor",
    )
    world.testbed.network.register(
        Endpoint(CLIENT_HOST, "objectserver"), impostor.rpc_server().handle_frame
    )
    liar = LyingLocationService(world.testbed.location_service.tree)
    liar.lie_about(
        world.published.owner.oid.hex,
        [impostor.contact_address()],
        suppress_truth=True,
    )
    world.testbed.network.register(  # replaces the honest handler
        world.testbed.location_endpoint, liar.rpc_server().handle_frame
    )


def deploy_foreign_suite_tag(world: World) -> None:
    # Relabel the integrity certificate's hash suite on the wire. The
    # tag is checked against the one suite, never obeyed: the
    # certificate is malformed before any hash or signature runs.
    def retag(certificate: dict) -> dict:
        return {**certificate, "envelope": {**certificate["envelope"], "suite": "sha256"}}

    def rewrite(endpoint: Endpoint, frame: bytes) -> bytes:
        response = Response.from_bytes(frame)
        value = response.value if response.ok else None
        if not isinstance(value, dict):
            return frame
        if "envelope" in value:
            return Response.success(retag(value)).to_bytes()
        if isinstance(value.get("certificate"), dict):  # a globedoc.bind answer
            retagged = {**value, "certificate": retag(value["certificate"])}
            return Response.success(retagged).to_bytes()
        return frame

    world.stack.transport.rewrite = rewrite


def deploy_compromised_key(world: World) -> None:
    # The ultimate replay: an attacker who stole the object key serves
    # the *genuine* document, bit-perfect, from a replica the six checks
    # fully trust — only the revocation check can reject it. The owner
    # publishes a key-scope statement to the feed; the serving replica
    # never hears of it.
    world.deploy_replica(HonestBehavior())
    owner = world.published.owner
    statement = RevocationStatement.revoke_key(
        owner.keys,
        owner.oid,
        serial=1,
        issued_at=world.testbed.clock.now(),
        reason="object key compromised",
    )
    world.testbed.object_server.revocation_feed.publish(statement)
    # Past the poll interval: the next check must refresh and see it.
    world.testbed.clock.advance(REVOCATION_STALENESS / 2.0 + 1.0)


SCENARIOS = [
    Scenario("mitm_inject", "AuthenticityError", "check.element_hash", deploy_mitm),
    Scenario("tamper", "AuthenticityError", "check.element_hash", deploy_tamper),
    Scenario(
        "flipped_bytes", "AuthenticityError", "check.element_hash",
        deploy_flipped_bytes,
    ),
    Scenario(
        "element_swap", "ConsistencyError", "check.consistency",
        deploy_element_swap,
    ),
    Scenario(
        "element_swap_renamed", "AuthenticityError", "check.element_hash",
        deploy_element_swap_renamed,
    ),
    Scenario(
        "stale_replay", "FreshnessError", "check.freshness", deploy_stale_replay
    ),
    Scenario(
        "impostor_key", "AuthenticityError", "check.public_key", deploy_impostor
    ),
    Scenario(
        "lying_location", "AuthenticityError", "check.public_key",
        deploy_lying_location,
    ),
    Scenario(
        "foreign_suite_tag", "AuthenticityError", "session.establish",
        deploy_foreign_suite_tag,
    ),
    Scenario(
        "compromised_key_replay", "RevokedKeyError", "check.revocation",
        deploy_compromised_key, revocation=True,
    ),
]


def build_world(
    revocation: bool = False,
    key_factory: Optional[Callable[[], KeyPair]] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> World:
    keys = key_factory if key_factory is not None else _default_keys
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/matrix", keys=keys(), clock=testbed.clock)
    for name, content in ELEMENTS.items():
        owner.put_element(PageElement(name, content))
    published = testbed.publish(owner, validity=3600.0)

    ring = RingBufferSink()
    tracer = Tracer(clock=testbed.clock, sinks=(ring,))
    # A disarmed MITM wrapper on every stack: scenarios that need it arm
    # the rewriter, the rest pass traffic through untouched.
    transport = MitmTransport(testbed.network.transport_for(CLIENT_HOST))
    stack = testbed.client_stack(
        CLIENT_HOST,
        transport=transport,
        verification_cache=VerificationCache(),
        max_rebinds=0,  # fail closed: no silent failover to ginger
        tracer=tracer,
        revocation_max_staleness=REVOCATION_STALENESS if revocation else None,
        pipeline=pipeline,
    )
    return World(
        testbed=testbed,
        published=published,
        stack=stack,
        ring=ring,
        keys=keys,
        pipelined=pipeline is not None,
    )


def run_scenario(
    scenario: Scenario,
    warm: bool,
    key_factory: Optional[Callable[[], KeyPair]] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> dict:
    """One matrix cell; returns a machine-checkable verdict dict.

    ``ok`` requires: the probe was *detected*, by the *exact* expected
    error class, with zero attacker bytes in the response, and the
    expected ``check.*`` span closed with that same error type.
    """
    world = build_world(
        revocation=scenario.revocation, key_factory=key_factory, pipeline=pipeline
    )
    url = world.published.url("index.html")
    warmup_ok = True
    if warm:
        # One honest access first: the VerificationCache now holds the
        # genuine certificate's verdict. Then force a cold bind so the
        # attacker (deployed at the client's own site) is found first.
        warmup = world.handle(url)
        warmup_ok = bool(warmup.ok) and warmup.content == ELEMENTS["index.html"]
        world.stack.proxy.drop_all_sessions()
        world.stack.location.invalidate(world.published.owner.oid)
    scenario.deploy(world)
    world.ring.clear()

    probe = run_attack_probe(world, url, ELEMENTS["index.html"])

    detected = probe.outcome is AttackOutcome.DETECTED
    exact_error = probe.failure_type == scenario.expected_error
    leaked = EVIL_MARKER in probe.response.content or any(
        content in probe.response.content for content in ELEMENTS.values()
    )
    error_spans = [
        span for span in world.ring.errors() if span.name == scenario.expected_span
    ]
    span_ok = bool(error_spans) and error_spans[-1].error_type == scenario.expected_error
    return {
        "scenario": scenario.id,
        "warm": warm,
        "pipelined": pipeline is not None,
        "expected_error": scenario.expected_error,
        "failure_type": probe.failure_type,
        "detected": detected,
        "exact_error": exact_error,
        "unverified_bytes_leaked": leaked,
        "span_ok": span_ok,
        "ok": warmup_ok and detected and exact_error and not leaked and span_ok,
    }


# ----------------------------------------------------------------------
# The multi-writer (versioning) attack matrix
# ----------------------------------------------------------------------
#
# Same contract as the element matrix above, against the delta-DAG
# surface: every tamper mode of the multi-writer taxonomy — a forged
# delta, a writer the owner never granted, a writer the owner revoked,
# a withheld branch, a genuine delta replayed across objects — paired
# with the exact ``SecurityError`` subclass and the ``check.frontier``
# span that must reject it. The attacker sits between the reader and an
# honest server, rewriting ``versioning.fetch`` answers (the versioning
# analogue of ``MitmTransport``); the revoked-writer scenario instead
# attacks with *valid* artifacts that only the feed can condemn.

VERSIONING_ELEMENTS = {
    "body": b"<html>genuine multi-writer body</html>",
    "title": b"genuine title",
}


class RewritingRpc:
    """An RPC wrapper that rewrites ``versioning.fetch`` answers.

    Disarmed (``rewrite is None``) it is a transparent proxy, so the
    honest warm-up read and the revocation feed traffic pass untouched.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.rewrite: Optional[Callable[[dict], dict]] = None

    def call(self, target, op: str, **args):
        answer = self.inner.call(target, op, **args)
        if self.rewrite is not None and op == "versioning.fetch":
            answer = self.rewrite(answer)
        return answer


@dataclass
class VersioningWorld:
    """One versioning scenario's universe: server, writers, reader."""

    clock: object
    server: object
    rpc: RewritingRpc
    reader: object
    cache: object
    ring: RingBufferSink
    owner_keys: KeyPair
    oid: object
    writers: dict
    writer_keys: dict
    keys: Callable[[], KeyPair]

    def bundle_now(self) -> dict:
        """The honest server's current wire bundle (attacker's copy)."""
        return self.server.versioning.fetch(self.oid.hex)


@dataclass(frozen=True)
class VersioningScenario:
    """One multi-writer tamper mode and the check that must reject it."""

    id: str
    expected_error: str
    deploy: Callable[[VersioningWorld], None]
    expected_span: str = "check.frontier"


def build_versioning_world(
    key_factory: Optional[Callable[[], KeyPair]] = None,
) -> VersioningWorld:
    from repro.deployment import ZONE_PATHS, Deployment
    from repro.globedoc.oid import ObjectId
    from repro.naming.zone import ZoneKeys
    from repro.net.transport import LoopbackTransport
    from repro.proxy.contentcache import ContentCache
    from repro.sim.clock import SimClock
    from repro.versioning import DeltaDag, DocumentWriter, WriterGrant, merge_deltas
    from repro.versioning.client import VersionedReader

    keys = key_factory if key_factory is not None else _default_keys
    clock = SimClock()
    clock.advance(100.0)
    transport = LoopbackTransport()
    host = "ginger.cs.vu.nl"
    deployment = Deployment(
        clock, transport.register, lambda _: transport, host, {host: "root/europe/vu"},
        zone_keys={zone: ZoneKeys(zone, keys()) for zone in ZONE_PATHS},
    )
    server = deployment.object_server

    owner_keys = keys()
    oid = ObjectId.from_public_key(owner_keys.public)
    server.versioning.register_object(owner_keys.public)

    writers, writer_keys = {}, {}
    shared = DeltaDag()
    for writer_id in ("alice", "bob"):
        writer_keys[writer_id] = keys()
        grant = WriterGrant.issue(
            owner_keys, oid, writer_id, writer_keys[writer_id].public,
            granted_at=clock.now(),
        )
        server.versioning.put_grant(oid.hex, grant)
        writers[writer_id] = DocumentWriter(writer_keys[writer_id], writer_id, oid, clock)
    # Two causally chained genuine deltas; bob's is the withholding target.
    d_alice = writers["alice"].put(shared, "body", VERSIONING_ELEMENTS["body"])
    d_bob = writers["bob"].put(shared, "title", VERSIONING_ELEMENTS["title"], "text/plain")
    for delta in (d_alice, d_bob):
        server.versioning.put_delta(oid.hex, delta)
    merged = merge_deltas(shared.deltas, oid_hex=oid.hex)
    server.versioning.put_frontier_cert(
        oid.hex, writers["alice"].certify_frontier(merged)
    )

    ring = RingBufferSink()
    tracer = Tracer(clock=clock, sinks=(ring,))
    cache = ContentCache(clock=clock, ttl=300.0)
    stack = deployment.client_stack(
        host,
        verification_cache=VerificationCache(),
        content_cache=cache,
        revocation_max_staleness=REVOCATION_STALENESS,
        tracer=tracer,
    )
    rpc = RewritingRpc(stack.rpc)
    reader = VersionedReader(rpc, stack.checker, content_cache=cache)
    return VersioningWorld(
        clock=clock, server=server, rpc=rpc, reader=reader, cache=cache,
        ring=ring, owner_keys=owner_keys, oid=oid,
        writers=writers, writer_keys=writer_keys, keys=keys,
    )


def deploy_forged_delta(world: VersioningWorld) -> None:
    """Rewrite a genuine delta's content in flight: signature must break."""
    template = world.bundle_now()

    def rewrite(answer: dict) -> dict:
        forged = copy.deepcopy(template["deltas"][0])
        forged["envelope"]["payload"]["body"]["ops"][0]["content"] = EVIL_MARKER
        answer = dict(answer)
        answer["deltas"] = list(answer.get("deltas", [])) + [forged]
        return answer

    world.rpc.rewrite = rewrite


def deploy_unauthorized_writer(world: VersioningWorld) -> None:
    """Splice in a delta self-signed by a writer the owner never granted."""
    from repro.versioning import DeltaOp, SignedDelta
    from repro.versioning.delta import OP_PUT

    eve = world.keys()
    rogue = SignedDelta.build(
        eve, world.oid, "eve", lamport=99, parents=[],
        ops=[DeltaOp(OP_PUT, "body", EVIL_MARKER)],
        issued_at=world.clock.now(),
    )

    def rewrite(answer: dict) -> dict:
        answer = dict(answer)
        answer["deltas"] = list(answer.get("deltas", [])) + [rogue.to_dict()]
        return answer

    world.rpc.rewrite = rewrite


def deploy_revoked_writer(world: VersioningWorld) -> None:
    """Owner revokes bob through the feed; bob's (valid) deltas must die."""
    statement = RevocationStatement.revoke_writer(
        world.owner_keys, world.oid, "bob",
        serial=1, issued_at=world.clock.now(),
    )
    world.rpc.call(
        world.server.endpoint, "revocation.publish", statement=statement.to_dict()
    )
    # Past the staleness window: the next check must refresh and see it.
    world.clock.advance(REVOCATION_STALENESS + 1.0)


def deploy_withheld_branch(world: VersioningWorld) -> None:
    """Serve the DAG minus bob's branch — hide a verified head."""
    from repro.versioning import DeltaDag

    # The DAG a server rolled back past bob's branch holds, and its heads.
    rolled_back = DeltaDag()
    rolled_back.add_all(
        delta
        for delta in world.server.versioning._require(world.oid.hex).dag.deltas
        if delta.writer_id != "bob"
    )

    def rewrite(answer: dict) -> dict:
        answer = dict(answer)
        answer["deltas"] = [
            d for d in answer.get("deltas", [])
            if d["envelope"]["payload"]["body"]["writer_id"] != "bob"
        ]
        answer["heads"] = rolled_back.heads()
        answer["frontier_cert"] = None  # the cert would name the hidden head
        return answer

    world.rpc.rewrite = rewrite


def deploy_replayed_delta(world: VersioningWorld) -> None:
    """Replay a genuine delta from a *different* object into this one."""
    from repro.globedoc.oid import ObjectId
    from repro.versioning import DeltaDag, DocumentWriter

    other_owner = world.keys()
    other_oid = ObjectId.from_public_key(other_owner.public)
    mallory = DocumentWriter(world.keys(), "mallory", other_oid, world.clock)
    foreign = mallory.put(DeltaDag(), "body", EVIL_MARKER)

    def rewrite(answer: dict) -> dict:
        answer = dict(answer)
        answer["deltas"] = list(answer.get("deltas", [])) + [foreign.to_dict()]
        return answer

    world.rpc.rewrite = rewrite


VERSIONING_SCENARIOS = [
    VersioningScenario("forged_delta", "DeltaForgeryError", deploy_forged_delta),
    VersioningScenario(
        "unauthorized_writer", "UnauthorizedWriterError", deploy_unauthorized_writer
    ),
    VersioningScenario("revoked_writer", "RevokedWriterError", deploy_revoked_writer),
    VersioningScenario(
        "withheld_branch", "BranchWithholdingError", deploy_withheld_branch
    ),
    VersioningScenario("replayed_delta", "DeltaReplayError", deploy_replayed_delta),
]


def run_versioning_scenario(
    scenario: VersioningScenario,
    key_factory: Optional[Callable[[], KeyPair]] = None,
) -> dict:
    """One versioning matrix cell; same verdict contract as the element
    matrix: detected, by the exact error class, zero attacker bytes
    served or cached, and the ``check.frontier`` span closed with that
    error type."""
    from repro.errors import SecurityError

    world = build_versioning_world(key_factory=key_factory)
    # Honest warm-up: the reader verifies and binds the genuine frontier
    # (the withholding scenario needs this baseline, and a prior bind
    # makes "the attack changed nothing served" checkable for the rest).
    warmup = world.reader.read(world.server.endpoint, world.oid)
    warmup_ok = (
        warmup.merged.element("body").content == VERSIONING_ELEMENTS["body"]
        and warmup.merged.element("title").content == VERSIONING_ELEMENTS["title"]
    )
    scenario.deploy(world)
    world.ring.clear()

    detected, failure_type, served = False, "", None
    try:
        served = world.reader.read(world.server.endpoint, world.oid)
    except SecurityError as exc:
        detected = True
        failure_type = type(exc).__name__

    leaked = False
    if served is not None:
        leaked = any(
            EVIL_MARKER in element.content
            for element in served.merged.elements.values()
        )
    for name in VERSIONING_ELEMENTS:
        cached = world.cache.get(world.oid.hex, name)
        if cached is not None and EVIL_MARKER in cached.content:
            leaked = True
    exact_error = failure_type == scenario.expected_error
    error_spans = [
        span for span in world.ring.errors() if span.name == scenario.expected_span
    ]
    span_ok = bool(error_spans) and (
        error_spans[-1].error_type == scenario.expected_error
    )
    return {
        "scenario": scenario.id,
        "expected_error": scenario.expected_error,
        "failure_type": failure_type,
        "detected": detected,
        "exact_error": exact_error,
        "unverified_bytes_leaked": leaked,
        "span_ok": span_ok,
        "ok": warmup_ok and detected and exact_error and not leaked and span_ok,
    }


def run_versioning_matrix(
    key_factory: Optional[Callable[[], KeyPair]] = None,
    scenarios: Sequence[VersioningScenario] = None,
) -> List[dict]:
    """The whole multi-writer tamper matrix; one verdict per scenario."""
    if scenarios is None:
        scenarios = VERSIONING_SCENARIOS
    return [
        run_versioning_scenario(scenario, key_factory=key_factory)
        for scenario in scenarios
    ]
