"""Benchmark worlds: the real services wired without ``simnet``.

A :class:`World` is what one round runs against — the naming service
(root → ``nl`` → ``nl/vu``, DNSsec-signed), the location service (the
Testbed's three-site tree) and one object server holding a seeded
catalogue, all on ``RealClock``. The services sit either in this process
behind a ``LoopbackTransport`` or in a forked child behind a real
``TcpEndpointServer``; the client side is identical in both cases.

:func:`client_stack` mirrors ``Testbed.client_stack`` minus the
simulator: same constructors, same wiring order.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.globedoc.urls import HybridUrl
from repro.location.service import LocationClient, LocationService
from repro.location.tree import DomainTree
from repro.naming.dnssec import SignedZone
from repro.naming.records import OidRecord
from repro.naming.service import NameService, SecureResolver
from repro.naming.zone import Zone, ZoneKeys
from repro.net.address import ContactAddress, Endpoint
from repro.net.rpc import RpcClient
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from repro.net.transport import LoopbackTransport
from repro.proxy.binding import Binder
from repro.proxy.checks import SecurityChecker
from repro.proxy.clientproxy import GlobeDocProxy
from repro.proxy.contentcache import ContentCache
from repro.proxy.pipeline import AccessScheduler, PipelineConfig, PrefetchingRpcClient
from repro.proxy.session import SecureSession
from repro.revocation.checker import RevocationChecker
from repro.server.admin import AdminClient
from repro.server.objectserver import ObjectServer
from repro.sim.clock import RealClock

from perf.keypool import KeyPool
from perf.spans import END, START, SpanRecorder, SpanTable

__all__ = [
    "Catalogue",
    "SMALL",
    "BULK",
    "NO_CATALOGUE",
    "World",
    "Stack",
    "client_stack",
    "trace_checker",
    "trace_classes",
    "handler_stats",
    "OBJECTSERVER",
    "SERVER_HOST",
    "VERSIONED_OWNER_KEY",
    "WRITER_KEYS",
    "world_keys",
]

SERVER_HOST = "bench-server"
SERVER_SITE = "root/europe/vu"
CLIENT_SITE = "root/europe/inria"
SITES = (SERVER_SITE, CLIENT_SITE, "root/us/cornell")

NAMING = Endpoint(SERVER_HOST, "naming")
LOCATION = Endpoint(SERVER_HOST, "location")
OBJECTSERVER = Endpoint(SERVER_HOST, "objectserver")

# Key-pool layout: zones first, then one key per catalogue object, then
# the versioned object's owner and its writers.
ZONE_KEYS = {"": 0, "nl": 1, "nl/vu": 2}
FIRST_OWNER_KEY = 3
VERSIONED_OWNER_KEY = 35
WRITER_KEYS = (36, 37, 38)


@dataclass(frozen=True)
class Catalogue:
    """What a world serves: *objects* documents of *elements* elements
    of *size* bytes each, content drawn from the seed."""

    objects: int
    elements: int
    size: int

    @property
    def total_bytes(self) -> int:
        return self.objects * self.elements * self.size

    def object_name(self, obj: int) -> str:
        return f"vu.nl/perf/o{obj:02d}"

    def element_name(self, elem: int) -> str:
        return f"e{elem}.bin"

    def url(self, obj: int, elem: int) -> str:
        return HybridUrl.for_name(self.object_name(obj), self.element_name(elem)).raw

    def content(self, seed: int, obj: int, elem: int) -> bytes:
        return random.Random(f"perf/{seed}/{obj}/{elem}").randbytes(self.size)


def world_keys(catalogue: Catalogue, versioned: bool) -> List[int]:
    """Key-pool indices a world serving *catalogue* uses."""
    indices = list(ZONE_KEYS.values())
    indices.extend(range(FIRST_OWNER_KEY, FIRST_OWNER_KEY + catalogue.objects))
    if versioned:
        indices.extend((VERSIONED_OWNER_KEY, *WRITER_KEYS))
    return indices


#: The Fig. 4 catalogue: many small elements (per-message cost dominates).
SMALL = Catalogue(objects=32, elements=8, size=2 * 1024)
#: Few large elements (per-byte cost dominates).
BULK = Catalogue(objects=4, elements=8, size=256 * 1024)
#: A world that serves only versioned objects.
NO_CATALOGUE = Catalogue(objects=0, elements=0, size=0)


class _Services:
    """The server side of a world (lives in the parent or a TCP child)."""

    def __init__(
        self,
        pool: KeyPool,
        catalogue: Catalogue,
        seed: int,
        data_dir: Optional[str],
        spans: Optional[SpanRecorder],
        tracer=None,
        metrics=None,
    ) -> None:
        self.clock = RealClock()
        zones = {
            path: SignedZone(Zone(path), keys=ZoneKeys(zone=path, keys=pool.key(index)))
            for path, index in ZONE_KEYS.items()
        }
        self.naming = NameService(zones[""])
        self.naming.add_zone(zones["nl"])
        self.naming.add_zone(zones["nl/vu"])
        tree = DomainTree()
        for site in SITES:
            tree.add_site(site)
        self.location = LocationService(tree)
        self.object_server = ObjectServer(
            host=SERVER_HOST,
            site=SERVER_SITE,
            clock=self.clock,
            data_dir=data_dir,
            storage_sync=True,
            tracer=tracer,
            metrics=metrics,
        )
        if spans is not None:
            # Before rpc_server(): registration captures the bound methods.
            spans.patch(self.object_server, "rpc_get_element", "server.get_element")
            versioning = self.object_server.versioning
            spans.patch(versioning, "put_delta", "versioning.store_put_delta")
            spans.patch(versioning, "fetch", "versioning.store_fetch")
            if versioning.store is not None:
                spans.patch(versioning.store, "append", "storage.append")
        self.handlers: Dict[str, Callable[[bytes], bytes]] = {
            "naming": self.naming.rpc_server(tracer=tracer).handle_frame,
            "location": self.location.rpc_server(tracer=tracer).handle_frame,
            "objectserver": self.object_server.rpc_server().handle_frame,
        }
        if spans is not None:
            self.handlers = {
                service: spans.wrap(handler, "server.handle")
                for service, handler in self.handlers.items()
            }
        self.loopback = LoopbackTransport()
        for service, handler in self.handlers.items():
            self.loopback.register(Endpoint(SERVER_HOST, service), handler)
        self._tampered: Optional[Tuple[str, str, PageElement]] = None
        self.oids: List[str] = []
        self._publish(pool, catalogue, seed)

    def _publish(self, pool: KeyPool, catalogue: Catalogue, seed: int) -> None:
        """Owner tooling: sign each document and push it over the admin
        RPC surface, then register its name and contact address."""
        for obj in range(catalogue.objects):
            owner = DocumentOwner(
                catalogue.object_name(obj),
                keys=pool.key(FIRST_OWNER_KEY + obj),
                clock=self.clock,
            )
            for elem in range(catalogue.elements):
                owner.put_element(
                    PageElement(
                        catalogue.element_name(elem), catalogue.content(seed, obj, elem)
                    )
                )
            document = owner.publish()
            self.object_server.keystore.authorize(owner.name, owner.public_key)
            admin = AdminClient(
                RpcClient(self.loopback), OBJECTSERVER, owner.keys, self.clock
            )
            address = ContactAddress.from_dict(admin.create_replica(document)["address"])
            self.location.insert(owner.oid.hex, SERVER_SITE, address.to_dict())
            self.naming.register(OidRecord(name=owner.name, oid=owner.oid))
            self.oids.append(owner.oid.hex)

    def tamper(self, obj: int, element_name: str) -> None:
        """Swap one served element's bytes behind the owner's back."""
        elements = self.object_server.replica_for_oid(self.oids[obj]).lr.state.elements
        genuine = elements[element_name]
        self._tampered = (self.oids[obj], element_name, genuine)
        elements[element_name] = genuine.with_content(b"tampered " + genuine.content[9:])

    def untamper(self) -> None:
        oid_hex, element_name, genuine = self._tampered
        self.object_server.replica_for_oid(oid_hex).lr.state.elements[element_name] = genuine
        self._tampered = None

    def close(self) -> None:
        self.object_server.close()


def handler_stats(table: SpanTable) -> dict:
    """Server-side handler timings of one traced round (computed where
    the handlers ran: in a TCP child, or from the client's own table)."""
    return {
        "handle_ns": [r[END] - r[START] for r in table.by_name.get("server.handle", ())],
        "get_element_ns": table.total_ns("server.get_element"),
        "get_element_calls": table.count("server.get_element"),
    }


def _shared_cpu() -> Optional[int]:
    """The one CPU a TCP world's client and server both run on (None
    where affinity cannot be set).

    Where the scheduler puts a client and a server that wake each other
    thousands of times a second decides what ``tcp_page`` costs: on the
    2-vCPU sandbox a page takes 4.5 ms when both share a CPU and 6-9 ms
    when they do not, because a wake-up across virtual CPUs goes through
    the hypervisor and costs whatever the host's scheduler makes it cost
    that second. In 24 interleaved rounds of each placement, one CPU
    each ran at 80-167 pages/s (quartiles 28 % apart), unpinned at
    87-216 (62 %), one shared CPU at 104-204 (12 %). One CPU keeps the
    measurement about the program — sockets, framing, thread hand-offs,
    a second process — so that is the placement.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    return min(os.sched_getaffinity(0))


def _serve_child(conn, pool, catalogue, seed, traced) -> None:
    """Entry point of the forked TCP server process (it inherits the
    parent's CPU affinity)."""
    spans = SpanRecorder() if traced else None
    services = _Services(pool, catalogue, seed, None, spans)
    listener = TcpEndpointServer()
    for service, handler in services.handlers.items():
        listener.register(service, handler)
    listener.start()
    conn.send(listener.address)
    try:
        while True:
            command = conn.recv()
            if command[0] == "cpu":
                conn.send(time.process_time())
            elif command[0] == "tamper":
                services.tamper(command[1], command[2])
                conn.send(True)
            elif command[0] == "untamper":
                services.untamper()
                conn.send(True)
            elif command[0] == "reset_trace":
                spans.records.clear()
                conn.send(True)
            else:  # "stop"
                break
    finally:
        # No listener.stop(): socketserver's shutdown() waits out its 0.5 s
        # poll interval, and the exit of this process closes the sockets.
        services.close()
    conn.send(
        {
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "handlers": handler_stats(spans.table()) if traced else None,
        }
    )
    conn.close()


class World:
    """One freshly built set of services plus what the client needs to
    reach and check them: a transport, the trust anchor, expected digests."""

    def __init__(
        self,
        pool: KeyPool,
        catalogue: Catalogue,
        seed: int,
        tcp: bool = False,
        data_dir: Optional[str] = None,
        spans: Optional[SpanRecorder] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.pool = pool
        self.catalogue = catalogue
        self.clock = RealClock()
        self.root_key = pool.key(ZONE_KEYS[""]).public
        self.spans = spans
        #: The program's own obs plane, threaded through every layer when
        #: set (the ``obs.enabled_overhead_ratio`` round); loopback only.
        self.tracer = tracer
        self.metrics = metrics
        self.services: Optional[_Services] = None
        self._child = None
        self._conn = None
        self._unpinned = None
        if tcp:
            # fork, not spawn: the child must inherit the parsed key pool
            # (re-loading it costs ~2 s per world) and this process is
            # single-threaded whenever a world is built.
            context = multiprocessing.get_context("fork")
            self._conn, child_conn = context.Pipe()
            cpu = _shared_cpu()
            if cpu is not None:
                self._unpinned = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {cpu})
            self._child = context.Process(
                target=_serve_child,
                args=(child_conn, pool, catalogue, seed, spans is not None),
                daemon=True,
            )
            self._child.start()
            child_conn.close()
            ip, port = self._conn.recv()
            self.transport = TcpTransport(directory={SERVER_HOST: (ip, port)})
        else:
            self.services = _Services(
                pool, catalogue, seed, data_dir, spans, tracer, metrics
            )
            self.transport = self.services.loopback
        if spans is not None:
            spans.patch(self.transport, "request", "net.transport.request")
        #: url → SHA-256 of the bytes the owner published under it.
        self.expected: Dict[str, str] = {
            catalogue.url(obj, elem): hashlib.sha256(
                catalogue.content(seed, obj, elem)
            ).hexdigest()
            for obj in range(catalogue.objects)
            for elem in range(catalogue.elements)
        }

    # -- server-side controls (same verbs for both placements) ----------

    def _command(self, *command):
        self._conn.send(command)
        return self._conn.recv()

    def tamper(self, obj: int, elem: int) -> None:
        name = self.catalogue.element_name(elem)
        if self.services is not None:
            self.services.tamper(obj, name)
        else:
            self._command("tamper", obj, name)

    def untamper(self) -> None:
        if self.services is not None:
            self.services.untamper()
        else:
            self._command("untamper")

    def reset_trace(self) -> None:
        """Forget spans recorded so far (set-up, warm-up, probe)."""
        self.spans.records.clear()
        if self._child is not None:
            self._command("reset_trace")

    def server_cpu_s(self) -> float:
        """CPU seconds the server *process* has used; 0.0 when the
        services share this process (already in its ``process_time``)."""
        return self._command("cpu") if self._child is not None else 0.0

    def close(self) -> dict:
        """Stop the services; returns the child's exit report (its peak
        RSS and, when traced, its handler timings)."""
        if self._child is None:
            self.services.close()
            return {"maxrss_kib": 0, "handlers": None}
        self.transport.close()
        if self._unpinned is not None:
            os.sched_setaffinity(0, self._unpinned)
        self._conn.send(("stop",))
        report = self._conn.recv()
        self._conn.close()
        self._child.join(timeout=10)
        if self._child.is_alive():
            self._child.kill()
            self._child.join(timeout=10)
        return report


@dataclass
class Stack:
    """One client: the proxy, and the parts whose counters workloads read."""

    proxy: GlobeDocProxy
    verification_cache: Optional[VerificationCache] = None
    content_cache: Optional[ContentCache] = None
    revocation: Optional[RevocationChecker] = None
    prefetcher: Optional[PrefetchingRpcClient] = None


def client_stack(
    world: World,
    verification_cache: Optional[VerificationCache] = None,
    content_cache: Optional[ContentCache] = None,
    revocation_max_staleness: Optional[float] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> Stack:
    """Wire a full proxy stack against *world* (cf. ``Testbed.client_stack``;
    the caches are the caller's, fresh per stack).

    With ``world.spans`` set, every instance built here gets span
    wrappers on its public entry points before it is handed on.
    """
    spans, tracer, metrics = world.spans, world.tracer, world.metrics
    clock = world.clock
    base_rpc = RpcClient(world.transport, tracer=tracer, metrics=metrics)
    if spans is not None:
        spans.patch(base_rpc, "call", "net.rpc.call")
        spans.patch(base_rpc, "call_many", "net.rpc.call_many")
    rpc = base_rpc
    prefetcher = None
    if pipeline is not None:
        prefetcher = PrefetchingRpcClient(base_rpc, metrics=metrics, tracer=tracer)
        rpc = prefetcher
    resolver = SecureResolver(rpc, NAMING, world.root_key, clock=clock)
    location = LocationClient(rpc, LOCATION, origin_site=CLIENT_SITE, clock=clock)
    binder = Binder(resolver, location, rpc, tracer=tracer)
    revocation = None
    if revocation_max_staleness is not None:
        revocation = RevocationChecker(
            rpc,
            OBJECTSERVER,
            clock,
            max_staleness=revocation_max_staleness,
            verification_cache=verification_cache,
            content_cache=content_cache,
            metrics=metrics,
            tracer=tracer,
        )
    checker = SecurityChecker(
        clock,
        verification_cache=verification_cache,
        revocation_checker=revocation,
        tracer=tracer,
        metrics=metrics,
    )
    proxy = GlobeDocProxy(
        binder, checker, rpc, content_cache=content_cache, tracer=tracer, metrics=metrics
    )
    scheduler = None
    if prefetcher is not None:
        scheduler = AccessScheduler(
            proxy, prefetcher, config=pipeline, tracer=tracer, metrics=metrics
        )
        proxy.scheduler = scheduler
    if spans is not None:
        spans.patch(resolver, "resolve", "naming.resolve")
        spans.patch(location, "lookup", "location.lookup")
        spans.patch(binder, "bind", "proxy.bind")
        spans.patch(proxy, "handle", "proxy.handle")
        trace_checker(spans, checker)
        if verification_cache is not None:
            spans.patch(verification_cache, "verify", "crypto.verifycache.verify", True)
        if content_cache is not None:
            spans.patch(content_cache, "get", "proxy.contentcache.get")
            spans.patch(content_cache, "put", "proxy.contentcache.put")
        if revocation is not None:
            spans.patch(revocation, "check", "revocation.check")
            spans.patch(revocation, "refresh", "revocation.refresh")
        if prefetcher is not None:
            spans.patch(prefetcher, "prefetch", "proxy.pipeline.prefetch")
            spans.patch(scheduler, "run", "proxy.pipeline.run")
    return Stack(
        proxy=proxy,
        verification_cache=verification_cache,
        content_cache=content_cache,
        revocation=revocation,
        prefetcher=prefetcher,
    )


def trace_checker(spans: SpanRecorder, checker: SecurityChecker) -> None:
    """Span wrappers on the security checks of one checker instance."""
    checks = ["check_public_key", "check_certificate", "check_element", "check_frontier"]
    if checker.revocation_checker is not None:
        checks.append("check_revocation")  # otherwise a no-op, not a check
    if checker.verification_cache is not None:
        checks.append("prewarm_certificates")
    for check in checks:
        spans.patch(checker, check, f"proxy.{check}")


def trace_classes(spans: SpanRecorder) -> None:
    """Class-level seams: objects the program creates for itself (the
    proxy's sessions, keys parsed off the wire) cannot be wrapped per
    instance. Undone by ``spans.restore()``."""
    spans.patch(PublicKey, "verify", "crypto.rsa_verify")
    spans.patch(SecureSession, "establish", "proxy.establish")
    spans.patch(SecureSession, "fetch", "proxy.fetch")
