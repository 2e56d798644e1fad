"""The naming service + secure resolver over RPC."""

from __future__ import annotations

import pytest

from repro.crypto.keys import PublicKey
from repro.deployment import ZONE_PATHS, Deployment
from repro.errors import NameNotFound, NamingError, RpcError, ZoneValidationError
from repro.globedoc.oid import ObjectId
from repro.naming.dnssec import DelegationRecord, SignedOidRecord, SignedZone
from repro.naming.records import OidRecord
from repro.naming.service import NameService, SecureResolver
from repro.naming.zone import Zone, ZoneKeys
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.sim.clock import SimClock
from tests.conftest import EPOCH, fast_keys
from tests.naming.stubservice import StubNameService, stub_resolver


@pytest.fixture
def oid(shared_keys):
    return ObjectId.from_public_key(shared_keys.public)


@pytest.fixture
def service(oid):
    root = SignedZone(Zone(""), keys=ZoneKeys(zone="", keys=fast_keys()))
    service = NameService(root)
    nl = SignedZone(Zone("nl"), keys=ZoneKeys(zone="nl", keys=fast_keys()))
    vu = SignedZone(Zone("nl/vu"), keys=ZoneKeys(zone="nl/vu", keys=fast_keys()))
    service.add_zone(nl)
    service.add_zone(vu)
    service.register(OidRecord(name="vu.nl/doc", oid=oid, ttl=300.0))
    service.register(OidRecord(name="toplevel.example", oid=oid, ttl=300.0))
    return service


def wire_resolver(service, clock, iterative=True, anchor=None):
    transport = LoopbackTransport()
    endpoint = Endpoint(host="ns", service="naming")
    transport.register(endpoint, service.rpc_server().handle_frame)
    return SecureResolver(
        RpcClient(transport),
        endpoint,
        anchor if anchor is not None else service.root_key,
        clock=clock,
        iterative=iterative,
    ), transport


class TestService:
    def test_register_routes_to_deepest_zone(self, service):
        assert service.zone("nl/vu").zone.lookup("vu.nl/doc") is not None
        with pytest.raises(NameNotFound):
            service.zone("nl").zone.lookup("vu.nl/doc")

    def test_root_zone_must_be_root(self):
        nonroot = SignedZone(Zone("nl"), keys=ZoneKeys(zone="nl", keys=fast_keys()))
        with pytest.raises(NamingError):
            NameService(nonroot)

    def test_orphan_zone_rejected(self, service):
        orphan = SignedZone(
            Zone("com/example"), keys=ZoneKeys(zone="com/example", keys=fast_keys())
        )
        with pytest.raises(NamingError, match="parent"):
            service.add_zone(orphan)


MODES = pytest.mark.parametrize("iterative", [True, False], ids=["iterative", "one-shot"])


@MODES
class TestResolution:
    def test_resolve_delegated(self, service, clock, oid, iterative):
        resolver, _ = wire_resolver(service, clock, iterative)
        result = resolver.resolve("vu.nl/doc")
        assert result.oid == oid
        assert result.chain_length == 2

    def test_resolve_root_level(self, service, clock, oid, iterative):
        resolver, _ = wire_resolver(service, clock, iterative)
        result = resolver.resolve("toplevel.example")
        assert result.oid == oid
        assert result.chain_length == 0

    def test_missing_name(self, service, clock, iterative):
        resolver, _ = wire_resolver(service, clock, iterative)
        with pytest.raises((NameNotFound, RpcError)):
            resolver.resolve("ghost.example")

    def test_wrong_anchor_rejected(self, service, clock, other_keys, iterative):
        resolver, _ = wire_resolver(service, clock, iterative, anchor=other_keys.public)
        with pytest.raises(ZoneValidationError):
            resolver.resolve("vu.nl/doc")


class TestCaching:
    def test_cache_hit_within_ttl(self, service, clock, oid):
        resolver, transport = wire_resolver(service, clock)
        first = resolver.resolve("vu.nl/doc")
        requests_after_first = transport.stats.requests
        second = resolver.resolve("vu.nl/doc")
        assert second.from_cache
        assert not first.from_cache
        assert transport.stats.requests == requests_after_first

    def test_cache_expires_with_ttl(self, service, clock):
        resolver, transport = wire_resolver(service, clock)
        resolver.resolve("vu.nl/doc")
        count = transport.stats.requests
        clock.advance(301.0)  # past the 300 s TTL
        result = resolver.resolve("vu.nl/doc")
        assert not result.from_cache
        assert transport.stats.requests > count

    def test_flush(self, service, clock):
        resolver, _ = wire_resolver(service, clock)
        resolver.resolve("vu.nl/doc")
        assert resolver.cache_size == 1
        resolver.flush_cache()
        assert resolver.cache_size == 0

    def test_iterative_costs_more_requests(self, service, clock):
        it, t_it = wire_resolver(service, clock, iterative=True)
        one, t_one = wire_resolver(service, clock, iterative=False)
        it.resolve("vu.nl/doc")
        one.resolve("vu.nl/doc")
        assert t_it.stats.requests == 3  # root, nl, nl/vu
        assert t_one.stats.requests == 1

    def test_one_shot_is_the_default(self, service):
        resolver = SecureResolver(RpcClient(LoopbackTransport()), None, service.root_key)
        assert resolver.iterative is False


# ----------------------------------------------------------------------
# A lying naming service: the same verdict whichever way it is asked
# ----------------------------------------------------------------------


def _genuine(service) -> dict:
    return service.resolve_with_proof("vu.nl/doc")


def _link(service, signer_zone, child_zone, **kwargs) -> dict:
    """A delegation to *child_zone*'s real key, signed by *signer_zone*."""
    signer = service.zone(signer_zone).keys.keys
    child_key = service.zone(child_zone).public_key
    return DelegationRecord.issue(signer, child_zone, child_key, **kwargs).to_dict()


#: name -> (service, clock, other_keys) -> a forged proof for vu.nl/doc.
TAMPERS = {
    "delegation_signed_by_the_wrong_key": lambda s, c, other: {
        **_genuine(s),
        "chain": [
            DelegationRecord.issue(other, "nl", s.zone("nl").public_key).to_dict(),
            _genuine(s)["chain"][1],
        ],
    },
    "chain_skips_a_level": lambda s, c, other: {
        **_genuine(s), "chain": [_link(s, "", "nl/vu")],
    },
    "record_signed_by_the_parent_zone": lambda s, c, other: {
        **_genuine(s),
        "record": SignedOidRecord.issue(
            s.zone("nl").keys.keys, s.zone("nl/vu").signed_lookup("vu.nl/doc").record
        ).to_dict(),
    },
    "expired_delegation": lambda s, c, other: {
        **_genuine(s),
        "chain": [_link(s, "", "nl", not_after=c.now() - 1.0), _genuine(s)["chain"][1]],
    },
    "genuine_record_for_another_name": lambda s, c, other: s.resolve_with_proof(
        "toplevel.example"
    ),
}


class TestLyingService:
    @pytest.mark.parametrize("tamper", list(TAMPERS))
    def test_same_rejection_in_both_modes(self, service, clock, other_keys, tamper):
        forged = TAMPERS[tamper](service, clock, other_keys)
        raised = []
        for iterative in (True, False):
            resolver = stub_resolver(forged, service.root_key, clock, iterative)
            with pytest.raises(NamingError) as info:
                resolver.resolve("vu.nl/doc")
            raised.append(info.type)
        assert raised == [ZoneValidationError, ZoneValidationError]

    @MODES
    def test_the_stub_serves_a_genuine_proof_faithfully(self, service, clock, oid, iterative):
        resolver = stub_resolver(_genuine(service), service.root_key, clock, iterative)
        result = resolver.resolve("vu.nl/doc")
        assert (result.oid, result.chain_length) == (oid, 2)


# ----------------------------------------------------------------------
# A malformed answer is rejected by the proxy, never raised out of it
# ----------------------------------------------------------------------

HOST, SITE = "ginger.cs.vu.nl", "root/europe/vu"

#: name -> genuine answer -> a malformed one.
MALFORMED = {
    "chain_an_int": lambda genuine: {**genuine, "chain": 5},
    "chain_of_strings": lambda genuine: {**genuine, "chain": ["x"]},
    "envelope_an_int": lambda genuine: {**genuine, "chain": [{"envelope": 3}]},
    "delegation_without_zone": lambda genuine: {
        **genuine,
        "chain": [{"envelope": {"payload": {"type": "naming/delegation", "body": {},
                                            "not_before": None, "not_after": None},
                                "signature": b"sig", "suite": "sha1"}}],
    },
    "answer_a_list": lambda genuine: [genuine],
    "no_chain": lambda genuine: {"record": genuine["record"]},
}


@pytest.fixture(scope="module")
def deployments():
    """One published document on a loopback deployment per naming mode,
    and ``serve(deployment, answer)``: put a stub in its naming service's
    place."""
    keys = {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}
    worlds = {}
    for iterative in (True, False):
        loopback = LoopbackTransport()
        deployment = Deployment(
            SimClock(EPOCH), loopback.register, lambda host, t=loopback: t,
            HOST, {HOST: SITE}, zone_keys=keys, fig3_walk=iterative,
        )
        published = deployment.publish(
            deployment.document_owner("vu.nl/doc", {"index.html": b"<html>hi</html>"})
        )
        worlds[iterative] = deployment, published

    def serve(deployment, answer) -> None:
        deployment.register(
            deployment.naming_endpoint, StubNameService(answer).rpc_server().handle_frame
        )

    return worlds, serve


class TestMalformedAnswerThroughTheProxy:
    @MODES
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_naming_failure_response(self, deployments, iterative, case):
        worlds, serve = deployments
        deployment, published = worlds[iterative]
        genuine = deployment.naming.resolve_with_proof(published.name)
        serve(deployment, MALFORMED[case](genuine))
        stack = deployment.client_stack(HOST)
        assert stack.resolver.iterative is iterative
        response = stack.proxy.handle(published.url("index.html"))
        assert response.status == 404 and not response.security_failure
        assert b"Document Not Found" in response.content

    @MODES
    def test_over_long_chain_refused_before_any_signature(
        self, deployments, monkeypatch, iterative
    ):
        worlds, serve = deployments
        deployment, published = worlds[iterative]
        genuine = deployment.naming.resolve_with_proof(published.name)
        stack = deployment.client_stack(HOST)
        links = [genuine["chain"][0]] * (stack.resolver.max_depth + 1)
        serve(deployment, {**genuine, "chain": links})
        verifies = []
        real_verify = PublicKey.verify

        def counting(key, *args, **kwargs):
            verifies.append(key)
            return real_verify(key, *args, **kwargs)

        monkeypatch.setattr(PublicKey, "verify", counting)
        response = stack.proxy.handle(published.url("index.html"))
        assert response.status == 404 and b"max depth" in response.content
        assert verifies == []

    @MODES
    def test_genuine_answer_from_the_stub_is_served(self, deployments, iterative):
        worlds, serve = deployments
        deployment, published = worlds[iterative]
        serve(deployment, deployment.naming.resolve_with_proof(published.name))
        response = deployment.client_stack(HOST).proxy.handle(published.url("index.html"))
        assert (response.status, response.content) == (200, b"<html>hi</html>")
