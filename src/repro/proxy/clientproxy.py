"""The user-facing GlobeDoc proxy (§2.1, §4).

"The client proxy … identifies GlobeDoc names from the hybrid URLs
passed by the client browser, does name resolution and replica location,
retrieves the desired page elements and performs the authenticity,
freshness and consistency tests … The proxy also transparently handles
any regular HTTP requests it receives from the browser."

:class:`GlobeDocProxy` is that component: a URL in, a response out.
Security violations never escape as exceptions — they render the
paper's "Security Check Failed" page, because the browser upstream only
speaks HTTP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import (
    BindingError,
    NamingError,
    LocationError,
    ReplicaError,
    ReproError,
    SecurityError,
    TransportError,
    UrlError,
)
from repro.globedoc.urls import HybridUrl
from repro.location.service import LocationClient
from repro.naming.service import SecureResolver
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient
from repro.obs import NOOP_TRACER
from repro.proxy.binding import Binder
from repro.proxy.checks import SecurityChecker
from repro.proxy.session import SecureSession
from repro.util.encoding import DECODE_ERRORS, wire_bytes

__all__ = ["GlobeDocProxy", "ProxyResponse"]

SECURITY_FAILED_HTML = (
    b"<html><head><title>Security Check Failed</title></head>"
    b"<body><h1>Security Check Failed</h1><p>%s</p></body></html>"
)

NOT_FOUND_HTML = (
    b"<html><head><title>Not Found</title></head>"
    b"<body><h1>Document Not Found</h1><p>%s</p></body></html>"
)

#: Sweep expired content-cache entries every this many requests, so dead
#: entries stop holding cache bytes even when no ``get`` touches them.
CACHE_SWEEP_INTERVAL = 64


@dataclass(frozen=True)
class ProxyResponse:
    """What the browser gets back from the proxy."""

    status: int
    content: bytes
    content_type: str = "text/html"
    certified_as: Optional[str] = None
    security_failure: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200


class GlobeDocProxy:
    """One user's proxy: sessions per object, passthrough for plain HTTP."""

    def __init__(
        self,
        binder: Binder,
        checker: SecurityChecker,
        rpc: RpcClient,
        cache_binding: bool = True,
        require_identity: bool = False,
        content_cache=None,
        session_ttl: Optional[float] = None,
        max_rebinds: int = 3,
        tracer=None,
        metrics=None,
    ) -> None:
        self.binder = binder
        self.checker = checker
        self.rpc = rpc
        self.cache_binding = cache_binding
        self.require_identity = require_identity
        self.content_cache = content_cache
        #: Root of the access trace: every GlobeDoc request opens one
        #: ``proxy.handle`` span whose children decompose the pipeline.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Per-session replica failover budget (0 disables failover —
        #: the pre-resilience behaviour, kept for ablations).
        self.max_rebinds = max_rebinds
        #: Re-bind sessions older than this (seconds). Without it a
        #: long-lived proxy would never notice replicas placed closer by
        #: dynamic replication; with it, bindings follow the replica set
        #: at the location-cache/naming-TTL cadence.
        self.session_ttl = session_ttl
        self._sessions: Dict[str, SecureSession] = {}
        self._session_created: Dict[str, float] = {}
        self.request_count = 0
        #: Optional :class:`~repro.proxy.pipeline.AccessScheduler`; when
        #: installed, :meth:`handle_many` prefetches batches in parallel.
        self.scheduler = None
        # ``metrics`` is accepted but unused: ``perf/`` still passes it
        # (ROADMAP 1(a)/8(a) remove it); SLOs count ``proxy.handle`` spans.

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, url: str) -> ProxyResponse:
        """Serve one browser request (hybrid URL or plain HTTP)."""
        self.request_count += 1
        if (
            self.content_cache is not None
            and self.request_count % CACHE_SWEEP_INTERVAL == 0
        ):
            self.content_cache.evict_expired()
        try:
            parsed = HybridUrl.parse(url)
        except UrlError as exc:
            return ProxyResponse(
                status=400, content=NOT_FOUND_HTML % str(exc).encode()
            )
        if not parsed.is_globedoc:
            return self._passthrough(parsed)
        return self._handle_globedoc(parsed)

    def handle_many(self, urls) -> list:
        """Serve a batch of browser requests; responses align with input.

        With an :attr:`scheduler` installed the batch goes through the
        concurrent access pipeline (parallel prefetch, batched
        verification, request coalescing); without one it degrades to a
        sequential loop over :meth:`handle`. Either way every request
        passes the full security pipeline individually.
        """
        if self.scheduler is not None:
            return self.scheduler.run(list(urls))
        return [self.handle(url) for url in urls]

    def _handle_globedoc(self, url: HybridUrl) -> ProxyResponse:
        # The root span stays status=ok even on a rejected access: the
        # error belongs to the check/rpc span that raised it, while the
        # outcome is recorded here as the HTTP ``status`` attribute.
        with self.tracer.span("proxy.handle", url=url.raw) as span:
            try:
                session = self._session_for(url)
                result = session.fetch(url.element_name)
            except (
                SecurityError, NamingError, LocationError, BindingError,
                ReplicaError, TransportError,
            ) as exc:
                return self._failure_response(span, exc)
            span.set_attribute("status", 200)
            return ProxyResponse(
                status=200,
                content=result.element.content,
                content_type=result.element.content_type,
                certified_as=result.certified_as,
            )

    def _failure_response(self, span, exc: Exception) -> ProxyResponse:
        if isinstance(exc, SecurityError):
            # §3.3: failed checks render the Security Check Failed page.
            span.set_attribute("status", 403)
            span.set_attribute("security_failure", type(exc).__name__)
            return ProxyResponse(
                status=403,
                content=SECURITY_FAILED_HTML % str(exc).encode(),
                security_failure=type(exc).__name__,
            )
        span.set_attribute("status", 404)
        return ProxyResponse(status=404, content=NOT_FOUND_HTML % str(exc).encode())

    def live_session(self, url: HybridUrl) -> Tuple[str, Optional[SecureSession]]:
        """The key *url*'s binding is held under (its OID, else its
        name) and that binding, or None when there is none or it is older
        than ``session_ttl`` (stale: the caller re-resolves and re-binds)."""
        key = url.oid.hex if url.oid is not None else str(url.object_name)
        session = self._sessions.get(key)
        if (
            session is not None
            and self.session_ttl is not None
            and self.checker.clock.now() - self._session_created.get(key, 0.0)
            > self.session_ttl
        ):
            session = None
        return key, session

    def _session_for(self, url: HybridUrl) -> SecureSession:
        key, session = self.live_session(url)
        if session is None:
            bound = self.binder.bind(url)
            session = SecureSession(
                binder=self.binder,
                checker=self.checker,
                bound=bound,
                cache_binding=self.cache_binding,
                require_identity=self.require_identity,
                max_rebinds=self.max_rebinds,
                content_cache=self.content_cache,
                tracer=self.tracer,
            )
            self._sessions[key] = session
            self._session_created[key] = self.checker.clock.now()
        return session

    def _passthrough(self, url: HybridUrl) -> ProxyResponse:
        """Transparent handling of a regular HTTP request: forward to the
        origin's HTTP front (the plain-HTTP baseline server)."""
        from urllib.parse import urlsplit

        parts = urlsplit(url.raw)
        try:
            answer = self.rpc.call(
                Endpoint(host=parts.netloc, service="http"),
                "http.get",
                path=parts.path or "/",
            )
            response = ProxyResponse(
                status=int(answer["status"]),
                content=wire_bytes(answer["body"]),
                content_type=str(answer.get("content_type", "text/html")),
            )
        except (ReproError, *DECODE_ERRORS) as exc:
            # The origin is as untrusted as a replica: an answer that
            # does not decode is a bad gateway, not an exception.
            return ProxyResponse(status=502, content=NOT_FOUND_HTML % str(exc).encode())
        return response

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------

    def drop_session(self, object_key: str) -> None:
        self._sessions.pop(object_key, None)
        self._session_created.pop(object_key, None)

    def drop_all_sessions(self) -> None:
        self._sessions.clear()
        self._session_created.clear()

    @property
    def session_count(self) -> int:
        return len(self._sessions)
