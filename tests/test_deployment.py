"""The composition root (``repro.deployment``): one world over three
transports, a fresh proxy that really shares its stack's wiring, and
the guard that keeps the root the only place that wires the stack."""

from __future__ import annotations

import ast
import pathlib
from contextlib import ExitStack, contextmanager

import pytest

from repro.deployment import ZONE_PATHS, Deployment
from repro.globedoc.owner import DocumentOwner
from repro.globedoc.element import PageElement
from repro.globedoc.oid import ObjectId
from repro.globedoc.urls import HybridUrl
from repro.harness.experiment import Testbed
from repro.naming.zone import ZoneKeys
from repro.net.message import BATCH_OP, Request
from repro.net.retry import RetryingRpcClient, RetryPolicy
from repro.net.rpc import RpcClient
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from repro.net.topology import paper_testbed
from repro.net.transport import LoopbackTransport
from repro.obs import RingBufferSink, Tracer
from repro.proxy.pipeline import PipelineConfig
from repro.revocation.statement import RevocationStatement
from repro.sim.clock import RealClock, SimClock
from tests.conftest import fast_keys

HOST, CLIENT, SITE = "ginger.cs.vu.nl", "canardo.inria.fr", "root/europe/vu"
ELEMENTS = {
    "index.html": b"<html>one world</html>",
    "style.css": b"body { margin: 0 }",
    "logo.bin": bytes(range(255, -1, -1)) * 8,  # not UTF-8: travels as a raw attachment
}
TRANSPORTS = ("sim", "loopback", "tcp")


@pytest.fixture(scope="module")
def zone_keys():
    """One key ceremony for every world in this module."""
    return {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}


@contextmanager
def world(kind: str, zone_keys):
    """The same deployment on *kind*'s fabric: only the clock, the
    ``register`` and the ``transport_for`` differ between transports."""
    with ExitStack() as cleanup:
        if kind == "sim":
            network = paper_testbed(SimClock(1000.0)).network
            fabric = network.clock, network.register, network.transport_for
        elif kind == "loopback":
            loopback = LoopbackTransport()
            fabric = SimClock(1000.0), loopback.register, lambda host: loopback
        else:
            listener = cleanup.enter_context(TcpEndpointServer())
            tcp = TcpTransport(directory={HOST: listener.address})
            cleanup.callback(tcp.close)
            fabric = (
                RealClock(),
                lambda endpoint, handler: listener.register(endpoint.service, handler),
                lambda host: tcp,
            )
        yield Deployment(*fabric, HOST, {HOST: SITE, CLIENT: SITE}, zone_keys=zone_keys)


class Tap:
    """The client's transport, keeping every frame that crosses it."""

    def __init__(self, inner) -> None:
        self.inner, self.stats, self.frames = inner, inner.stats, []

    def request(self, endpoint, frame: bytes) -> bytes:
        answer = self.inner.request(endpoint, frame)
        self.frames += [frame, answer]
        return answer


class WaveTap:
    """The client's transport, keeping the ops of every frame of every
    pipelined exchange: one list of frames per ``request_many``, one
    list of ops per frame."""

    def __init__(self, inner) -> None:
        self.inner, self.stats, self.waves = inner, inner.stats, []

    def request(self, endpoint, frame: bytes) -> bytes:
        return self.inner.request(endpoint, frame)

    def request_many(self, frames):
        wave = []
        for _endpoint, frame in frames:
            request = Request.from_bytes(frame)
            if request.op == BATCH_OP:
                wave.append([op for op, _args, _error in request.batch_calls()])
            else:
                wave.append([request.op])
        self.waves.append(wave)
        return self.inner.request_many(frames)


def observe(kind: str, zone_keys, owner_keys) -> dict:
    """Publish the three-element document on *kind*'s fabric and record
    what a traced client sees: cold, warm, binary, and tampered at the
    replica — plus every RPC frame of those accesses — and what a fresh
    pipelined client gets for the whole page, clean and tampered."""
    with world(kind, zone_keys) as deployment:
        clock = deployment.clock
        owner = DocumentOwner("vu.nl/oneworld", keys=owner_keys, clock=clock)
        for name, content in ELEMENTS.items():
            owner.put_element(PageElement(name, content))
        published = deployment.publish(owner)
        ring = RingBufferSink()
        tap = Tap(deployment.transport_for(CLIENT))
        stack = deployment.client_stack(
            CLIENT, transport=tap, tracer=Tracer(clock=clock, sinks=(ring,))
        )

        def access(element: str):
            ring.clear()
            response = stack.proxy.handle(published.url(element))
            rejections = [(s.name, s.error_type) for s in ring.errors()]
            return response, [s.name for s in ring.spans], rejections

        def page():
            # Untapped: over TCP the windows must travel as windows.
            proxy = deployment.client_stack(CLIENT, pipeline=PipelineConfig()).proxy
            return proxy.handle_many([published.url(name) for name in ELEMENTS])

        observed = {
            "cold": access("index.html"),
            "warm": access("style.css"),
            "binary": access("logo.bin"),
            "page": page(),
        }
        state = deployment.object_server.replica_for_oid(published.oid_hex).lr.state
        state.elements["index.html"] = state.elements["index.html"].with_content(b"evil")
        observed["tampered"] = access("index.html")
        observed["tampered_page"] = page()
        observed["frames"] = tap.frames
        return observed


class TestOneWorldThreeTransports:
    """ROADMAP 1(a)'s "sim/loopback/TCP stay byte-identical to each
    other", stated once: the same document through the same root gives
    the same bytes, statuses and span sequence on every fabric."""

    @pytest.fixture(scope="class")
    def observed(self, zone_keys):
        owner_keys = fast_keys()  # same object id in all three worlds
        return {kind: observe(kind, zone_keys, owner_keys) for kind in TRANSPORTS}

    @pytest.mark.parametrize("phase", ["cold", "warm", "binary", "tampered"])
    def test_identical_response_and_span_sequence(self, observed, phase):
        reference, ref_spans, ref_rejections = observed["sim"][phase]
        assert ref_spans and ref_spans[-1] == "proxy.handle"
        for kind in TRANSPORTS[1:]:
            response, spans, rejections = observed[kind][phase]
            assert response == reference, kind
            assert spans == ref_spans, kind
            assert rejections == ref_rejections, kind

    def test_identical_pipelined_page(self, observed):
        """``handle_many`` through the batched pipeline — windows charged
        in parallel on sim, called in turn on loopback, written down one
        socket over TCP — serves the same page, and rejects the same one
        element of it, on every fabric."""
        clean, tampered = observed["sim"]["page"], observed["sim"]["tampered_page"]
        assert [(r.status, r.content) for r in clean] == [
            (200, content) for content in ELEMENTS.values()
        ]
        assert [r.status for r in tampered] == [403, 200, 200]
        assert tampered[0].security_failure == "AuthenticityError"
        assert tampered[1:] == clean[1:]
        for kind in TRANSPORTS[1:]:
            assert observed[kind]["page"] == clean, kind
            assert observed[kind]["tampered_page"] == tampered, kind

    def test_what_was_observed_is_the_pipeline(self, observed):
        cold, cold_spans, _ = observed["tcp"]["cold"]
        warm, warm_spans, _ = observed["tcp"]["warm"]
        tampered, _, rejections = observed["tcp"]["tampered"]
        assert (cold.status, cold.content) == (200, ELEMENTS["index.html"])
        assert (warm.status, warm.content) == (200, ELEMENTS["style.css"])
        assert observed["tcp"]["binary"][0].content == ELEMENTS["logo.bin"]
        assert "check.public_key" in cold_spans and "check.public_key" not in warm_spans
        assert tampered.status == 403 and tampered.security_failure == "AuthenticityError"
        assert ("check.element_hash", "AuthenticityError") in rejections


    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_no_frame_re_encodes_bytes(self, observed, kind):
        """Keys, signatures, hashes, content and signed records all cross
        as attachments: the signing codec's base64 tag appears in no RPC
        frame's header. (Inside a signed record's attached bytes it is
        what the signer signed.)"""
        frames = observed[kind]["frames"]
        assert len(frames) >= 2 * 8  # the cold bind alone is five calls
        headers = [f[4 : 4 + int.from_bytes(f[:4], "big")] for f in frames]
        assert not [h for h in headers if b"__b64__" in h]
        assert any(ELEMENTS["logo.bin"] in f for f in frames)


class TestColdAccessRequests:
    """A cold access asks the naming service once and the replica once on
    a deployable stack (one signed answer: chain + record; one
    ``globedoc.bind``: key, certificate and element), and once per zone
    and once per part on the paper's testbed, which keeps the Fig. 3
    walk. A failed access sends nothing after it fails."""

    BUNDLED = ["location.lookup", "globedoc.bind"]
    WALK = [
        "location.lookup",
        "globedoc.get_public_key",
        "globedoc.get_integrity_certificate",
        "globedoc.get_element",
    ]

    @staticmethod
    def sent(tap, since: int = 0) -> list:
        """The ops of the requests among ``tap.frames[since:]``."""
        return [Request.from_bytes(frame).op for frame in tap.frames[since::2]]

    @classmethod
    def cold_ops(cls, deployment) -> list:
        published = deployment.publish(deployment.document_owner("vu.nl/cold", ELEMENTS))
        tap = Tap(deployment.transport_for(CLIENT))
        stack = deployment.client_stack(CLIENT, transport=tap)
        assert stack.proxy.handle(published.url("index.html")).ok
        return cls.sent(tap)

    def test_loopback_deployment_is_three_requests(self, zone_keys):
        with world("loopback", zone_keys) as deployment:
            ops = self.cold_ops(deployment)
        assert ops == ["naming.resolve"] + self.BUNDLED

    def test_testbed_is_seven_requests(self, zone_keys):
        ops = self.cold_ops(Testbed(zone_keys=zone_keys))
        assert ops == ["naming.resolve_step"] * len(ZONE_PATHS) + self.WALK

    def test_pipelined_cold_batch_is_three_waves(self, zone_keys):
        """Two cold objects through ``handle_many``: every name lookup,
        then every location lookup, then one fetch wave — never one
        object's bind interleaved with the other's."""
        with world("loopback", zone_keys) as deployment:
            urls = [
                deployment.publish(deployment.document_owner(name, ELEMENTS)).url("index.html")
                for name in ("vu.nl/wave1", "vu.nl/wave2")
            ]
            tap = Tap(deployment.transport_for(CLIENT))
            stack = deployment.client_stack(CLIENT, transport=tap, pipeline=PipelineConfig())
            assert all(response.ok for response in stack.proxy.handle_many(urls))
        assert self.sent(tap) == (
            ["naming.resolve"] * 2 + ["location.lookup"] * 2 + ["globedoc.bind"] * 2
        )

    def test_pipelined_cold_batch_replays_from_the_prefetch(self, zone_keys):
        """Every call the replay of a cold two-object, two-element batch
        makes was parked by a wave — name, location, bind twice, the two
        other elements: were the waves to build a call otherwise than
        the replay does, it would miss and go to the wire again."""
        with world("loopback", zone_keys) as deployment:
            published = [
                deployment.publish(deployment.document_owner(name, ELEMENTS))
                for name in ("vu.nl/hit1", "vu.nl/hit2")
            ]
            stack = deployment.client_stack(CLIENT, pipeline=PipelineConfig())
            urls = [pub.url(name) for pub in published for name in ("index.html", "logo.bin")]
            assert all(response.ok for response in stack.proxy.handle_many(urls))
        counters = stack.scheduler.counters
        assert (counters.prefetch_hits, counters.prefetch_misses) == (8, 0)

    @pytest.mark.parametrize(
        "walk, fetch_frames",
        [
            (False, [["globedoc.bind"] + ["globedoc.get_element"] * 7]),
            (
                True,
                [
                    ["globedoc.get_public_key", "globedoc.get_integrity_certificate"]
                    + ["globedoc.get_element"] * 6,
                    ["globedoc.get_element"] * 2,
                ],
            ),
        ],
        ids=["bundled", "fig3_walk"],
    )
    def test_pipelined_page_fetch_wave(self, zone_keys, walk, fetch_frames):
        """A cold 8-element page: the fetch wave is one frame of 8 calls
        with the bundle, and 10 calls in two windows (8, then 2) on the
        walk, the paper's testbed."""
        testbed = Testbed(zone_keys=zone_keys)
        testbed.fig3_walk = walk
        page = {f"e{i}.html": b"<p>%d</p>" % i for i in range(8)}
        published = testbed.publish(testbed.document_owner("vu.nl/page8", page))
        tap = WaveTap(testbed.transport_for(CLIENT))
        stack = testbed.client_stack(CLIENT, transport=tap, pipeline=PipelineConfig())
        responses = stack.proxy.handle_many([published.url(name) for name in page])
        assert [response.content for response in responses] == list(page.values())
        names, locations, *fetch = tap.waves  # an exchange per window
        assert (names, locations) == ([["naming.resolve" + "_step" * walk]], [["location.lookup"]])
        assert fetch == [[frame] for frame in fetch_frames]

    def test_cached_page_prefetches_nothing(self, zone_keys):
        """Regression: a plan that had to establish a binding prefetched
        the key and the certificate even when the content cache served
        every element, so the replay never established and nothing
        consumed either answer."""
        from repro.proxy.contentcache import ContentCache

        with world("loopback", zone_keys) as deployment:
            published = deployment.publish(deployment.document_owner("vu.nl/cached", ELEMENTS))
            tap = Tap(deployment.transport_for(CLIENT))
            stack = deployment.client_stack(
                CLIENT,
                transport=tap,
                content_cache=ContentCache(clock=deployment.clock),
                pipeline=PipelineConfig(),
            )
            urls = [published.url("index.html"), published.url("style.css")]
            assert all(response.ok for response in stack.proxy.handle_many(urls))
            stack.proxy.drop_all_sessions()
            warm = len(tap.frames)
            assert all(response.ok for response in stack.proxy.handle_many(urls))
        assert [op for op in self.sent(tap, warm) if op.startswith("globedoc.")] == []

    def test_unknown_oid_is_one_lookup(self, zone_keys):
        with world("loopback", zone_keys) as deployment:
            tap = Tap(deployment.transport_for(CLIENT))
            stack = deployment.client_stack(CLIENT, transport=tap)
            unknown = ObjectId.from_public_key(fast_keys().public)
            response = stack.proxy.handle(HybridUrl.for_oid(unknown, "index.html").raw)
        assert response.status == 404
        assert self.sent(tap) == ["location.lookup"]

    def test_revoked_warm_access_asks_no_name(self, zone_keys):
        """The seventh check rejects a warm access: the element, the
        feed refresh that learns of the revocation, then nothing — no
        naming op."""
        with world("loopback", zone_keys) as deployment:
            owner = deployment.document_owner("vu.nl/revoked", ELEMENTS)
            published = deployment.publish(owner)
            tap = Tap(deployment.transport_for(CLIENT))
            stack = deployment.client_stack(
                CLIENT, transport=tap, revocation_max_staleness=30.0
            )
            assert stack.proxy.handle(published.url("index.html")).ok
            deployment.object_server.revocation_feed.publish(
                RevocationStatement.revoke_key(
                    owner.keys, owner.oid, serial=1, issued_at=deployment.clock.now()
                )
            )
            deployment.clock.advance(16.0)
            warm = len(tap.frames)
            response = stack.proxy.handle(published.url("index.html"))
        assert response.security_failure == "RevokedKeyError"
        assert self.sent(tap, warm) == ["globedoc.get_element", "revocation.fetch"]


class TestPipelinedBatchIsOneTrace:
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_every_client_span_carries_the_schedule_trace(self, zone_keys, kind):
        """Regression: the bind phase ran on threads over TCP, and each
        thread's spans opened a trace of their own."""
        with world(kind, zone_keys) as deployment:
            urls = [
                deployment.publish(deployment.document_owner(name, ELEMENTS)).url("index.html")
                for name in ("vu.nl/trace1", "vu.nl/trace2", "vu.nl/trace3")
            ]
            ring = RingBufferSink()
            stack = deployment.client_stack(
                CLIENT,
                pipeline=PipelineConfig(),
                tracer=Tracer(clock=deployment.clock, sinks=(ring,)),
            )
            assert all(response.ok for response in stack.proxy.handle_many(urls))
        (schedule,) = ring.named("pipeline.schedule")
        assert len(ring.named("bind.resolve")) == 6  # bind phase + replay
        assert {span.trace_id for span in ring.spans} == {schedule.trace_id}


class TestClientWiring:
    def test_the_retry_layer_wraps_the_prefetcher(self, zone_keys):
        """A prefetch wave is one attempt through the plain client; only
        the replay's calls pass the retry layer (and its health
        tracker), as ``handle``'s do."""
        with world("loopback", zone_keys) as deployment:
            stack = deployment.client_stack(
                CLIENT, retry_policy=RetryPolicy(), pipeline=PipelineConfig()
            )
        assert type(stack.rpc) is RetryingRpcClient
        assert stack.rpc.inner is stack.scheduler.prefetcher
        assert type(stack.scheduler.prefetcher.inner) is RpcClient


class TestFreshProxy:
    def test_fresh_proxy_shares_the_stacks_wiring(self, zone_keys):
        """Regression: ``fresh_proxy`` was a second ``GlobeDocProxy(``
        site that dropped the stack's tracer, content cache, failover
        budget, metrics and pipeline."""
        from repro.proxy.contentcache import ContentCache
        from repro.proxy.pipeline import PipelineConfig

        with world("loopback", zone_keys) as deployment:
            published = deployment.publish(deployment.document_owner("vu.nl/fresh", ELEMENTS))
            ring = RingBufferSink()
            cache = ContentCache(clock=deployment.clock, ttl=60.0)
            stack = deployment.client_stack(
                CLIENT,
                tracer=Tracer(clock=deployment.clock, sinks=(ring,)),
                content_cache=cache,
                max_rebinds=1,
                pipeline=PipelineConfig(),
            )
            fresh = stack.fresh_proxy(cache_binding=False)
            assert fresh is not stack.proxy and not fresh.cache_binding
            assert fresh.handle(published.url("index.html")).ok
            assert "proxy.handle" in [span.name for span in ring.spans]
            assert fresh.content_cache is cache and fresh.max_rebinds == 1
            assert fresh.scheduler is not None
            assert fresh.scheduler is not stack.scheduler


# ----------------------------------------------------------------------
# The duplication cannot regrow
# ----------------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOT_MODULE = "src/repro/deployment.py"

#: The classes the root wires: each has exactly one call site across
#: ``src/`` and ``examples/``, and it is in the root module.
WIRED = (
    "Binder SecurityChecker GlobeDocProxy SecureResolver RevocationChecker NameService "
    "LocationService AccessScheduler PrefetchingRpcClient RetryingRpcClient"
).split()

#: A second construction site that is truly needed goes here, by name:
#: ``{(class, "path/from/repo/root.py"): "why it cannot use the root"}``.
EXCEPTIONS: dict = {}


def _nodes(relative_path, kind):
    path = REPO / relative_path
    return [n for n in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(n, kind)]


class TestOneCompositionRoot:
    def test_one_construction_site_each_in_the_root(self):
        sites = {name: [] for name in WIRED}
        for top in ("src", "examples"):
            for path in sorted((REPO / top).rglob("*.py")):
                relative = str(path.relative_to(REPO))
                for call in _nodes(relative, ast.Call):
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in sites and (name, relative) not in EXCEPTIONS:
                        sites[name].append(relative)
        for name, paths in sites.items():
            assert paths == [ROOT_MODULE], (
                f"{name} is constructed in {paths}: wire it through "
                "repro.deployment, or name the exception in EXCEPTIONS"
            )

    def test_root_is_fabric_free_and_experiment_keeps_no_wiring(self):
        """The root lives outside ``harness/`` and imports no fabric;
        ``experiment.py`` imports none of what the root wires."""
        imported = {n.module for n in _nodes(ROOT_MODULE, ast.ImportFrom)}
        imported |= {a.name for n in _nodes(ROOT_MODULE, ast.Import) for a in n.names}
        fabrics = ("repro.harness", "repro.net.simnet", "repro.net.topology", "repro.net.tcpnet")
        assert not [module for module in imported if module.startswith(fabrics)]
        names = {
            alias.name
            for node in _nodes("src/repro/harness/experiment.py", ast.ImportFrom)
            for alias in node.names
        }
        assert not names & set(WIRED)
