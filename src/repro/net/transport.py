"""Transport abstraction.

A transport moves encoded request bytes to a remote endpoint and returns
encoded response bytes. All timing/accounting lives in the transport so
servers and proxies are transport-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Protocol, runtime_checkable

from repro.errors import TransportError
from repro.net.address import Endpoint

__all__ = ["Transport", "LoopbackTransport", "TransferStats"]

#: A server-side frame handler: request bytes in, response bytes out.
FrameHandler = Callable[[bytes], bytes]


@dataclass
class TransferStats:
    """Cumulative transfer accounting a transport exposes for experiments."""

    requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def record(self, sent: int, received: int) -> None:
        self.requests += 1
        self.bytes_sent += sent
        self.bytes_received += received

    def reset(self) -> None:
        self.requests = 0
        self.bytes_sent = 0
        self.bytes_received = 0


@runtime_checkable
class Transport(Protocol):
    """Client-side transport interface."""

    stats: TransferStats

    def request(self, endpoint: Endpoint, frame: bytes) -> bytes:
        """Deliver *frame* to *endpoint*, return the response frame."""
        ...


class LoopbackTransport:
    """Zero-cost in-process transport (unit tests, single-host examples).

    Endpoints register frame handlers; requests call them directly. No
    latency, no clock interaction — but byte accounting still happens so
    tests can assert on message sizes.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Endpoint, FrameHandler] = {}
        self.stats = TransferStats()

    def register(self, endpoint: Endpoint, handler: FrameHandler) -> None:
        """Expose *handler* at *endpoint* (overwrites silently — tests
        re-register fresh servers freely)."""
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Endpoint) -> None:
        self._handlers.pop(endpoint, None)

    def request(self, endpoint: Endpoint, frame: bytes) -> bytes:
        handler = self._handlers.get(endpoint)
        if handler is None:
            raise TransportError(f"no handler registered at {endpoint}")
        response = handler(frame)
        self.stats.record(sent=len(frame), received=len(response))
        return response
