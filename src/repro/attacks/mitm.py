"""A man-in-the-middle on the transport (§3.2.1).

"An active attacker intercepts the client's request, and answers with
his own document." :class:`MitmTransport` wraps any client transport
and rewrites response frames — corrupting element content, injecting a
payload, or replaying a canned response. The attack tests show that
against GlobeDoc the tampering is detected by the hash check, whereas
against the plain-HTTP baseline the client happily accepts the bogus
bytes (the vulnerability the paper opens with).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.address import Endpoint
from repro.net.message import Response
from repro.net.transport import TransferStats, Transport

__all__ = ["MitmTransport"]

FrameRewriter = Callable[[Endpoint, bytes], bytes]


class MitmTransport:
    """Wraps a transport; rewrites responses through an attacker hook."""

    def __init__(self, inner: Transport, rewrite: Optional[FrameRewriter] = None) -> None:
        self.inner = inner
        self.rewrite = rewrite
        self.stats = TransferStats()
        self.intercepted = 0

    def request(self, endpoint: Endpoint, frame: bytes) -> bytes:
        response = self.inner.request(endpoint, frame)
        if self.rewrite is not None:
            rewritten = self.rewrite(endpoint, response)
            if rewritten != response:
                self.intercepted += 1
            response = rewritten
        self.stats.record(sent=len(frame), received=len(response))
        return response

    # ------------------------------------------------------------------
    # Ready-made attacker hooks
    # ------------------------------------------------------------------

    @staticmethod
    def content_injector(payload: bytes) -> FrameRewriter:
        """Rewriter that appends *payload* to any element/file content in
        a successful response (works on GlobeDoc elements and plain-HTTP
        bodies alike)."""

        def rewrite(endpoint: Endpoint, frame: bytes) -> bytes:
            try:
                response = Response.from_bytes(frame)
            except Exception:
                return frame
            if not response.ok or not isinstance(response.value, dict):
                return frame
            value = dict(response.value)
            changed = False
            if isinstance(value.get("content"), bytes):  # GlobeDoc element
                value["content"] = value["content"] + payload
                changed = True
            if isinstance(value.get("body"), bytes):  # plain HTTP body
                value["body"] = value["body"] + payload
                changed = True
            if not changed:
                return frame
            return Response.success(value).to_bytes()

        return rewrite

