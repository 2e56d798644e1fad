"""The proxy facade: URL handling, sessions, passthrough, failure pages."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from repro.attacks.malicious_server import HonestBehavior, MaliciousReplica
from repro.crypto.identity import TrustStore
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.globedoc.urls import HybridUrl
from repro.naming.dnssec import DelegationRecord
from repro.net.address import Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.net.message import BATCH_OP, Request, Response
from repro.obs import RingBufferSink, Tracer
from repro.proxy.metrics import AccessMetrics
from repro.proxy.pipeline import PipelineConfig
from repro.util.encoding import from_wire, to_wire
from tests.conftest import forge_signed
from tests.proxy.conftest import ELEMENTS


class TestGlobedocRequests:
    def test_name_form(self, stack, published, ring):
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.content == ELEMENTS["index.html"]
        assert response.content_type == "text/html"
        assert AccessMetrics.from_spans(ring.spans).security_time > 0

    def test_oid_form(self, stack, published):
        url = HybridUrl.for_oid(published.owner.oid, "img/logo.png").raw
        response = stack.proxy.handle(url)
        assert response.ok
        assert response.content == ELEMENTS["img/logo.png"]
        assert response.content_type == "image/png"

    def test_session_reuse_across_requests(self, stack, published):
        proxy = stack.fresh_proxy()
        proxy.handle(published.url("index.html"))
        assert proxy.session_count == 1
        proxy.handle(published.url("img/logo.png"))
        assert proxy.session_count == 1  # same object, same session

    def test_unknown_name_is_404(self, stack):
        response = stack.proxy.handle("globe://ghost.example/index.html")
        assert response.status == 404
        assert b"Not Found" in response.content or b"Document Not Found" in response.content

    def test_unknown_element_is_failure(self, stack, published):
        response = stack.proxy.handle(published.url("ghost.html"))
        assert response.status in (403, 404)
        assert not response.ok

    def test_unknown_element_keeps_the_binding(self, testbed, published, monkeypatch):
        """An element the certificate does not list is refused by every
        replica alike: no lie to escape, so repeated requests for it
        neither fail over nor count against the honest replica."""
        ring = RingBufferSink()
        health = ReplicaHealthTracker(clock=testbed.clock)
        noted = []
        monkeypatch.setattr(health, "record_failure", noted.append)
        proxy = testbed.client_stack(
            "canardo.inria.fr", health=health, tracer=Tracer(clock=testbed.clock, sinks=(ring,))
        ).proxy
        assert proxy.handle(published.url("index.html")).ok
        for _ in range(health.failure_threshold + 1):
            assert not proxy.handle(published.url("ghost.html")).ok
        assert proxy.handle(published.url("img/logo.png")).ok
        assert ring.named("session.failover") == ring.named("bind.rebind") == []
        assert len(ring.named("session.establish")) == 1
        assert noted == []

    def test_malformed_url_is_400(self, stack):
        assert stack.proxy.handle("ftp://weird").status == 400

    @pytest.mark.parametrize(
        "url", ["globe://vu.nl/a%5Cb\\c", "globe://vu.nl/x!/../y", f"globe://oid/{'ab' * 20}/a/"]
    )
    def test_refused_element_name_is_400(self, testbed, url):
        """A name ``validate_element_name`` refuses makes the URL
        malformed, through ``handle`` and ``handle_many`` alike."""
        stack = testbed.client_stack("canardo.inria.fr", pipeline=PipelineConfig())
        assert stack.proxy.handle(url).status == 400
        assert [r.status for r in stack.proxy.handle_many([url, url])] == [400, 400]

    def test_request_counters(self, stack, published):
        proxy = stack.fresh_proxy()
        assert proxy.handle(published.url("index.html")).ok
        assert not proxy.handle("globe://ghost.example/index.html").ok
        assert proxy.request_count == 2

    def test_drop_sessions(self, stack, published):
        proxy = stack.fresh_proxy()
        proxy.handle(published.url("index.html"))
        proxy.drop_all_sessions()
        assert proxy.session_count == 0


class TestPassthrough:
    def test_plain_http_forwarded(self, testbed, stack, published, ring):
        """§4: the proxy transparently handles regular HTTP requests."""
        response = stack.proxy.handle(
            f"http://ginger.cs.vu.nl/{published.name}/index.html"
        )
        assert response.ok
        assert response.content == ELEMENTS["index.html"]
        # No security pipeline ran: one plain call, no access phases.
        assert [span.name for span in ring.spans] == ["rpc.call"]
        assert AccessMetrics.from_spans(ring.spans).phases == ()

    def test_passthrough_404(self, stack):
        response = stack.proxy.handle("http://ginger.cs.vu.nl/ghost")
        assert response.status == 404

    def test_passthrough_unreachable_host(self, stack):
        response = stack.proxy.handle("http://nowhere.example/x")
        assert response.status == 502

    @pytest.mark.parametrize(
        "answer", [{"status": 200, "body": 50_000_000}, {"status": "x", "body": b""}, {}, 7]
    )
    def test_passthrough_malformed_answer_is_502(self, testbed, stack, answer):
        """The origin is untrusted too: an ``http.get`` answer that does
        not decode (an integer body would be a 50 MB allocation) is a
        bad gateway, never an exception."""
        testbed.network.register(
            Endpoint("canardo.inria.fr", "http"),
            lambda frame: Response.success(answer).to_bytes(),
        )
        response = stack.proxy.handle("http://canardo.inria.fr/x")
        assert response.status == 502 and len(response.content) < 1024


#: outcome -> (URL, or an element of the published page; status;
#: (``proxy.handle`` spans with status 200, ``proxy.handle`` spans)
#: after the one request).
OUTCOMES = {
    "bad_url": ("ftp://weird", 400, (0, 0)),
    "ok": ("index.html", 200, (1, 1)),
    "rejected": ("ghost.html", 403, (0, 1)),  # not in the integrity certificate
    "not_found": ("globe://ghost.example/index.html", 404, (0, 1)),
    "bad_gateway": ("http://nowhere.example/x", 502, (0, 0)),
    "passthrough": ("http://ginger.cs.vu.nl/vu.nl/research/index.html", 200, (0, 0)),
}


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_status_maps_to_one_outcome(testbed, published, outcome):
    """Only a GlobeDoc access opens a ``proxy.handle`` span, and the
    span carries the response's status: a 200 served, a 403 or 404
    rejected, while plain HTTP (served or 502) or an unparseable URL
    opens none."""
    target, status, counts = OUTCOMES[outcome]
    ring = RingBufferSink()
    tracer = Tracer(clock=testbed.clock, sinks=(ring,))
    proxy = testbed.client_stack("canardo.inria.fr", tracer=tracer).proxy
    url = target if "://" in target else published.url(target)
    assert proxy.handle(url).status == status
    handled = ring.named("proxy.handle")
    served = [span for span in handled if span.attributes.get("status") == 200]
    assert (len(served), len(handled)) == counts


class TestIdentityDisplay:
    def test_certified_as(self, testbed, session_ca):
        """§3.1.2: the proxy displays the certified name when the object
        presents a proof from a CA in the user's trust store."""
        from repro.crypto.identity import TrustStore
        from repro.globedoc.element import PageElement
        from repro.globedoc.owner import DocumentOwner
        from tests.conftest import fast_keys

        owner = DocumentOwner("vu.nl/shop", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>buy</html>"))
        owner.request_identity_certificate(session_ca)
        published = testbed.publish(owner)

        store = TrustStore()
        store.add_ca(session_ca)
        stack = testbed.client_stack("sporty.cs.vu.nl", trust_store=store)
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.certified_as == "vu.nl/shop"

    def test_no_trust_store_no_certified_name(self, stack, published):
        response = stack.proxy.handle(published.url("index.html"))
        assert response.certified_as is None


EVIL = b"EVIL-PAYLOAD"


def _string_bound(certificate: dict) -> dict:
    return forge_signed(certificate, lambda payload: payload.update(not_before="EVIL-PAYLOAD"))


def _signed(edit):
    """A forge that serves the genuine certificate with its signed bytes
    replaced by ``edit(signed bytes)``, the signature left as it was."""

    def forge(certificate, owner_keys):
        envelope = certificate["envelope"]
        return {**certificate, "envelope": {**envelope, "signed": edit(envelope["signed"])}}

    return forge


def _flip_oid_digit(signed: bytes) -> bytes:
    """One byte of the signed OID changed: still canonical JSON, so only
    the signature check can tell."""
    at = signed.index(b'"oid":"') + len(b'"oid":"')
    return signed[:at] + (b"1" if signed[at : at + 1] == b"0" else b"0") + signed[at + 1 :]


def _without(field: str):
    return lambda certificate, owner_keys: forge_signed(
        certificate, lambda payload: payload.pop(field)
    )


def _another_type(certificate, owner_keys) -> dict:
    """A record of another type, validly signed by the object key itself:
    only its type tells it from an integrity certificate."""
    return DelegationRecord.issue(owner_keys, "nl/vu", owner_keys.public).to_dict()


#: An integer where a bytes field belongs: ``bytes(HUGE)`` would be an
#: attacker-sized allocation, not a decode.
HUGE = 50_000_000


#: id -> (op, forge(genuine certificate, object keys) -> the canned answer).
MALFORMED_ANSWERS = {
    "public_key_an_integer": ("globedoc.get_public_key", lambda cert, keys: HUGE),
    "element_content_an_integer": (
        "globedoc.get_element", lambda cert, keys: {"name": "index.html", "content": HUGE},
    ),
    "public_key_not_bytes": ("globedoc.get_public_key", lambda cert, keys: "EVIL-PAYLOAD"),
    "identity_without_envelope": (
        "globedoc.get_identity_certificates", lambda cert, keys: [{"body": EVIL}],
    ),
    "certificate_string_bound": (
        "globedoc.get_integrity_certificate", lambda cert, keys: _string_bound(cert),
    ),
    "certificate_without_envelope": (
        "globedoc.get_integrity_certificate", lambda cert, keys: {"body": EVIL},
    ),
    "element_without_content": (
        "globedoc.get_element", lambda cert, keys: {"name": 5, "evil": EVIL},
    ),
    "element_name_not_a_relative_path": (
        "globedoc.get_element", lambda cert, keys: {"name": "/etc/passwd", "content": EVIL},
    ),
    # The signed leaf, attacked: what the certificate's signed bytes can be
    # made to say without the key.
    "certificate_signed_byte_flipped": (
        "globedoc.get_integrity_certificate", _signed(_flip_oid_digit),
    ),
    "certificate_signed_truncated": (
        "globedoc.get_integrity_certificate", _signed(lambda signed: signed[:-7]),
    ),
    "certificate_signed_not_bytes": (
        "globedoc.get_integrity_certificate", _signed(lambda signed: signed.decode()),
    ),
    "certificate_signed_without_type": ("globedoc.get_integrity_certificate", _without("type")),
    "certificate_signed_without_body": ("globedoc.get_integrity_certificate", _without("body")),
    "certificate_signed_nan_bound": (
        "globedoc.get_integrity_certificate",
        _signed(lambda signed: signed.replace(b'"not_after":null', b'"not_after":NaN')),
    ),
    "certificate_signed_infinite_bound": (
        "globedoc.get_integrity_certificate",
        _signed(lambda signed: signed.replace(b'"not_after":null', b'"not_after":1e400')),
    ),
    "certificate_signed_reserved_key": (
        "globedoc.get_integrity_certificate",
        _signed(lambda signed: signed.replace(b'{"body":', b'{"__b64__":"AA==","body":')),
    ),
    "certificate_of_another_type": ("globedoc.get_integrity_certificate", _another_type),
}



def _in_bind(**forges):
    """A forge of a whole ``globedoc.bind`` answer: the genuine parts,
    each part named in *forges* replaced by what its forge makes."""

    def forge(certificate, owner_keys):
        answer = {
            "key": owner_keys.public.der,
            "identity_certificates": [],
            "certificate": certificate,
            "element": PageElement("index.html", ELEMENTS["index.html"]).to_dict(),
        }
        answer.update({part: make(certificate, owner_keys) for part, make in forges.items()})
        return answer

    return forge


def _bind_without(part: str):
    return lambda certificate, owner_keys: {
        key: value for key, value in _in_bind()(certificate, owner_keys).items() if key != part
    }


#: The bundled answer (the stack reads the replica in one exchange): its
#: shape, each of its parts, and every certificate forge above inside it.
MALFORMED_ANSWERS.update(
    {
        "bind_not_a_mapping": ("globedoc.bind", lambda cert, keys: [EVIL]),
        "bind_without_element": ("globedoc.bind", _bind_without("element")),
        "bind_without_key": ("globedoc.bind", _bind_without("key")),
        "bind_with_an_extra_part": (
            "globedoc.bind", lambda cert, keys: {**_in_bind()(cert, keys), "evil": EVIL},
        ),
        "bind_key_not_bytes": ("globedoc.bind", _in_bind(key=lambda cert, keys: "EVIL-PAYLOAD")),
        "bind_key_an_integer": ("globedoc.bind", _in_bind(key=lambda cert, keys: HUGE)),
        "bind_identity_without_envelope": (
            "globedoc.bind",
            _in_bind(identity_certificates=lambda cert, keys: [{"body": EVIL}]),
        ),
        "element_in_bind_without_content": (
            "globedoc.bind", _in_bind(element=lambda cert, keys: {"name": 5, "evil": EVIL}),
        ),
        "element_in_bind_content_an_integer": (
            "globedoc.bind",
            _in_bind(element=lambda cert, keys: {"name": "index.html", "content": HUGE}),
        ),
        "element_in_bind_name_not_a_relative_path": (
            "globedoc.bind",
            _in_bind(element=lambda cert, keys: {"name": "a\\b", "content": EVIL}),
        ),
        **{
            "certificate_in_bind_" + case[len("certificate_"):]: (
                "globedoc.bind", _in_bind(certificate=forge),
            )
            for case, (op, forge) in MALFORMED_ANSWERS.items()
            if case.startswith("certificate_")
        },
    }
)

#: Cases that decode to a well-formed certificate, which its signature
#: check refuses rather than its decoder.
SIGNATURE_REFUSED = {"certificate_signed_byte_flipped", "certificate_in_bind_signed_byte_flipped"}


class TestMalformedReplicaAnswers:
    """ROADMAP 4(d), the replica half: an answer that does not decode
    is a typed rejection, never an exception out of the proxy."""

    CLIENT = "canardo.inria.fr"
    probe_ids = itertools.count()

    @pytest.fixture
    def world(self, testbed, session_ca):
        """A document of the test's own on ginger (so the attack replica
        is out of every other test's way), and ``deploy(case)``: a
        replica of it at the client's own site, found first, honest
        except for one malformed answer. A ``globedoc.bind`` case's
        stacks read the replica in that one exchange, the others walk
        Fig. 3."""
        name = f"vu.nl/probe{next(self.probe_ids)}"
        published = testbed.publish(testbed.document_owner(name, ELEMENTS))
        walk = {"fig3_walk": True}

        def deploy(case: str, reply: bytes = None) -> list:
            """``reply``, if given, is the whole frame the case's op is
            answered with, in place of its malformed answer. In a batch
            answer the reply's fields (all but ``kind``) are that op's
            slot; the returned list gains an entry per batch forged."""
            op, forge = MALFORMED_ANSWERS[case]
            walk["fig3_walk"] = op != "globedoc.bind"
            if reply is None:
                answer = forge(published.document.integrity.to_dict(), published.owner.keys)
                reply = Response.success(answer).to_bytes()
            forged_slot = {k: v for k, v in from_wire(reply).items() if k != "kind"}
            batches_forged = []
            replica = MaliciousReplica(
                host=self.CLIENT, document=published.document, behavior=HonestBehavior()
            )
            honest = replica.rpc_server().handle_frame

            def handle_frame(frame: bytes) -> bytes:
                request = Request.from_bytes(frame)
                if request.op == op:
                    return reply
                if request.op != BATCH_OP:
                    return honest(frame)
                slots = Response.from_bytes(honest(frame)).value
                calls = request.args["calls"]
                batches_forged.append([call["op"] for call in calls])
                return Response.success(
                    [forged_slot if call["op"] == op else slot for call, slot in zip(calls, slots)]
                ).to_bytes()

            testbed.network.register(Endpoint(self.CLIENT, "objectserver"), handle_frame)
            testbed.location_service.tree.insert(
                published.oid_hex, "root/europe/inria", replica.contact_address()
            )
            return batches_forged

        def stack(ring=None, **kwargs):
            # A non-empty trust store makes the session fetch identity
            # certificates, so that answer is decoded too.
            store = TrustStore()
            store.add_ca(session_ca)
            tracer = Tracer(clock=testbed.clock, sinks=(ring,)) if ring is not None else None
            testbed.fig3_walk = walk["fig3_walk"]
            try:
                return testbed.client_stack(
                    self.CLIENT, trust_store=store, tracer=tracer, **kwargs
                )
            finally:
                testbed.fig3_walk = True

        return published, deploy, stack

    @staticmethod
    def assert_rejected(response, case=None):
        assert response.status == 403
        assert response.security_failure == "AuthenticityError"
        if case not in SIGNATURE_REFUSED:
            assert b"malformed" in response.content
        assert EVIL not in response.content
        assert not any(genuine in response.content for genuine in ELEMENTS.values())

    @pytest.mark.parametrize("case", list(MALFORMED_ANSWERS))
    def test_rejected_as_authenticity_error(self, world, case):
        published, deploy, stack = world
        deploy(case)
        proxy = stack(max_rebinds=0).proxy  # fail closed: no way around it
        self.assert_rejected(proxy.handle(published.url("index.html")), case)

    @pytest.mark.parametrize("case", list(MALFORMED_ANSWERS))
    def test_rejected_through_the_pipeline(self, world, case):
        published, deploy, stack = world
        batches_forged = deploy(case)
        proxy = stack(max_rebinds=0, pipeline=PipelineConfig()).proxy
        index, logo = proxy.handle_many(
            [published.url("index.html"), published.url("img/logo.png")]
        )
        self.assert_rejected(index, case)
        # An element_in_bind_ case: index.html's bad element drops the
        # binding as a failed check does, so logo binds afresh, and the
        # replica forges that bind answer too.
        self.assert_rejected(logo, case)
        # The forge rode in its op's slot of the fetch wave's one frame.
        assert len(batches_forged) == 1
        assert MALFORMED_ANSWERS[case][0] in batches_forged[0]

    def test_integer_public_key_prefetched_without_allocating(self, world):
        """The pipeline decodes a prefetched key to batch-verify its
        certificate: an integer there must not become ``bytes(10**8)``."""
        published, deploy, stack = world
        batches_forged = deploy(
            "public_key_an_integer", reply=Response.success(10**8).to_bytes()
        )
        proxy = stack(
            max_rebinds=0,
            pipeline=PipelineConfig(),
            verification_cache=VerificationCache(),
        ).proxy
        tracemalloc.start()
        try:
            responses = proxy.handle_many(
                [published.url("index.html"), published.url("img/logo.png")]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for response in responses:
            self.assert_rejected(response)
        assert peak < 16 * 2**20
        assert batches_forged

    def test_integer_key_in_a_prefetched_bind_allocates_nothing(self, world):
        """The same for the key inside a prefetched ``globedoc.bind``."""
        published, deploy, stack = world
        answer = _in_bind(key=lambda cert, keys: 10**8)(
            published.document.integrity.to_dict(), published.owner.keys
        )
        batches_forged = deploy("bind_key_an_integer", reply=Response.success(answer).to_bytes())
        proxy = stack(
            max_rebinds=0,
            pipeline=PipelineConfig(),
            verification_cache=VerificationCache(),
        ).proxy
        tracemalloc.start()
        try:
            responses = proxy.handle_many(
                [published.url("index.html"), published.url("img/logo.png")]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for response in responses:
            self.assert_rejected(response)
        assert peak < 16 * 2**20
        assert batches_forged == [["globedoc.bind", "globedoc.get_element"]]

    @pytest.mark.parametrize(
        "case", ["public_key_not_bytes", "element_without_content", "bind_key_not_bytes"]
    )
    def test_response_frame_without_ok_is_the_same_failure_both_ways(self, world, case):
        """A reply that is no response frame at all (at bind time, at
        fetch time) is a transport failure of that replica — the same
        typed failure response from ``handle`` and ``handle_many``."""
        published, deploy, stack = world
        deploy(case, reply=to_wire({"kind": "response"}))
        urls = [published.url("index.html"), published.url("img/logo.png")]
        sequential = stack(max_rebinds=0).proxy.handle(urls[0])
        pipelined = stack(max_rebinds=0, pipeline=PipelineConfig()).proxy.handle_many(urls)
        assert not sequential.ok and sequential.status >= 400
        for response in (sequential, *pipelined):
            assert (response.status, response.security_failure) == (
                sequential.status, sequential.security_failure,
            )
            assert not any(genuine in response.content for genuine in ELEMENTS.values())

    @pytest.mark.parametrize(
        "case", [c for c in MALFORMED_ANSWERS if not c.startswith("element_")]
    )
    def test_binding_fails_over_to_an_honest_replica(self, world, case):
        """Exactly as for a bad key: the malformed replica is escaped
        via the genuine one on ginger, after one failover."""
        published, deploy, stack = world
        deploy(case)
        ring = RingBufferSink()
        response = stack(ring=ring).proxy.handle(published.url("index.html"))
        assert response.status == 200
        assert response.content == ELEMENTS["index.html"]
        failovers = [span for span in ring.spans if span.name == "session.failover"]
        assert len(failovers) == 1
        assert failovers[0].attributes["cause"] == "AuthenticityError"

    @pytest.mark.parametrize(
        "case", [c for c in MALFORMED_ANSWERS if c.startswith("certificate_")]
    )
    def test_pipeline_fails_over_to_an_honest_replica(self, world, case):
        """``handle_many`` escapes a bad certificate as ``handle`` does."""
        published, deploy, stack = world
        deploy(case)
        urls = [published.url("index.html"), published.url("img/logo.png")]
        responses = stack(pipeline=PipelineConfig()).proxy.handle_many(urls)
        assert [(r.status, r.content) for r in responses] == [
            (200, ELEMENTS["index.html"]), (200, ELEMENTS["img/logo.png"]),
        ]

    @pytest.mark.parametrize(
        "case", [c for c in MALFORMED_ANSWERS if c.startswith("element_")]
    )
    def test_malformed_element_is_not_retried_elsewhere(self, world, case):
        """Exactly as for a tampered element: a verified binding that
        then serves a bad element is a violation, not an outage — with
        no rebinds, the access is refused."""
        published, deploy, stack = world
        deploy(case)
        proxy = stack(max_rebinds=0).proxy
        self.assert_rejected(proxy.handle(published.url("index.html")))

    @pytest.mark.parametrize(
        "case", [c for c in MALFORMED_ANSWERS if c.startswith("element_")]
    )
    def test_malformed_element_escaped_with_rebinds(self, world, case):
        """...and, as for a tampered element, escaped via the genuine
        replica on ginger through one failover naming the violation."""
        published, deploy, stack = world
        deploy(case)
        ring = RingBufferSink()
        response = stack(ring=ring).proxy.handle(published.url("index.html"))
        assert (response.status, response.content) == (200, ELEMENTS["index.html"])
        failovers = [span for span in ring.spans if span.name == "session.failover"]
        assert [span.attributes["cause"] for span in failovers] == ["AuthenticityError"]

    @pytest.mark.parametrize(
        "case",
        [
            "public_key_an_integer",
            "element_content_an_integer",
            "bind_key_an_integer",
            "element_in_bind_content_an_integer",
        ],
    )
    def test_integer_in_a_bytes_field_allocates_nothing(self, world, case):
        """``bytes(50_000_000)`` is 50 MB of zeros: the rejection must
        cost no more memory than the frame that carried the integer."""
        import tracemalloc

        published, deploy, stack = world
        deploy(case)
        proxy = stack(max_rebinds=0).proxy
        tracemalloc.start()
        try:
            self.assert_rejected(proxy.handle(published.url("index.html")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < HUGE // 10
