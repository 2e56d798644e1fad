"""Real TCP transport.

The same wire frames as the simulator, length-prefixed over real
sockets. Integration tests run a full GlobeDoc object server and client
proxy across localhost TCP to prove the stack is not simulator-bound;
the examples can do the same across real machines.

Stream format: 4-byte big-endian length, then one opaque message frame
(:func:`repro.util.encoding.to_wire`, which carries its own checksum —
this module never looks inside). Connections are persistent: the server
answers frames on one connection until the peer closes it, and the
client keeps a small pool of sockets per address (replacing the
HTTP/1.0-era socket-per-request model), so a pipelined batch reuses warm
connections instead of paying a TCP handshake per call.

Every socket read and connect carries a configurable timeout surfacing
as :class:`~repro.errors.TransportError` — a stalled peer degrades into
the retry/failover path instead of hanging the client forever.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.transport import TransferStats

__all__ = ["TcpEndpointServer", "TcpTransport"]

FrameHandler = Callable[[bytes], bytes]

_LEN = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool = False
) -> Optional[bytes]:
    """Read exactly *count* bytes or raise TransportError.

    With ``allow_eof=True`` a connection closed cleanly *before any
    byte* returns None (the peer is done) — EOF mid-read still raises.
    A socket timeout raises TransportError so the retry layer engages.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 65536))
        except socket.timeout as exc:
            raise TransportError(
                f"receive timed out after {sock.gettimeout()}s"
            ) from exc
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, frame: bytes) -> None:
    if len(frame) > _MAX_FRAME:
        raise TransportError(f"frame too large: {len(frame)} bytes")
    try:
        sock.sendall(_LEN.pack(len(frame)) + frame)
    except socket.timeout as exc:
        raise TransportError(f"send timed out after {sock.gettimeout()}s") from exc


def _recv_frame(sock: socket.socket, allow_eof: bool = False) -> Optional[bytes]:
    header = _recv_exact(sock, _LEN.size, allow_eof=allow_eof)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(f"peer announced oversized frame: {length} bytes")
    return _recv_exact(sock, length)


class TcpEndpointServer:
    """Hosts one or more frame handlers behind a real TCP listener.

    Endpoints multiplex on the ``service`` name: the client prepends the
    service string to each frame so one port can serve an object server,
    a naming service, and a location service — like a Globe object
    server's single contact point. Connections are persistent: a handler
    thread answers frames until the client closes the connection or goes
    quiet past ``idle_timeout``.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, idle_timeout: float = 30.0
    ) -> None:
        self._handlers: Dict[str, FrameHandler] = {}
        self._lock = threading.Lock()
        self.idle_timeout = idle_timeout
        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # pragma: no cover - exercised via client
                self.request.settimeout(outer.idle_timeout)
                while True:
                    try:
                        raw = _recv_frame(self.request, allow_eof=True)
                    except TransportError:
                        return  # stalled or torn mid-frame: drop the line
                    if raw is None:
                        return  # clean close between frames
                    service, _, frame = raw.partition(b"\x00")
                    with outer._lock:
                        handler = outer._handlers.get(
                            service.decode("utf-8", "replace")
                        )
                    try:
                        if handler is None:
                            _send_frame(self.request, b"")
                        else:
                            _send_frame(self.request, handler(frame))
                    except (TransportError, OSError):
                        return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self._server.server_address[:2]

    def register(self, service: str, handler: FrameHandler) -> None:
        with self._lock:
            self._handlers[service] = handler

    def start(self) -> "TcpEndpointServer":
        """Start serving in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise TransportError("server already started")
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "TcpEndpointServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass
class TcpTransport:
    """Client transport resolving Endpoint hosts via a directory.

    ``directory`` maps the abstract host name used in :class:`Endpoint`
    to a concrete ``(ip, port)`` — the analogue of DNS A-records, kept
    out of band because GlobeDoc's *secure* naming never trusts it.

    Connections are pooled per address (at most ``pool_size`` idle
    sockets each). A pooled socket the server has since closed costs one
    transparent reconnect; ``timeout`` bounds connects and reads,
    surfacing as :class:`~repro.errors.TransportError`.
    """

    directory: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    timeout: float = 10.0
    pool_size: int = 4
    stats: TransferStats = field(default_factory=TransferStats)
    _pools: Dict[Tuple[str, int], List[socket.socket]] = field(
        default_factory=dict, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add_host(self, name: str, ip: str, port: int) -> None:
        self.directory[name] = (ip, port)

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------

    def _checkout(self, address: Tuple[str, int]) -> Optional[socket.socket]:
        with self._lock:
            pool = self._pools.get(address)
            if pool:
                return pool.pop()
        return None

    def _checkin(self, address: Tuple[str, int], sock: socket.socket) -> None:
        with self._lock:
            pool = self._pools.setdefault(address, [])
            if len(pool) < self.pool_size:
                pool.append(sock)
                return
        _close_quietly(sock)

    def _connect(self, address: Tuple[str, int]) -> socket.socket:
        sock = socket.create_connection(address, timeout=self.timeout)
        sock.settimeout(self.timeout)
        return sock

    def close(self) -> None:
        """Drop every pooled connection (tests, shutdown)."""
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            for sock in pool:
                _close_quietly(sock)

    @property
    def pooled_connections(self) -> int:
        with self._lock:
            return sum(len(pool) for pool in self._pools.values())

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def request(self, endpoint: Endpoint, frame: bytes) -> bytes:
        address = self.directory.get(endpoint.host)
        if address is None:
            raise TransportError(f"no TCP address known for host {endpoint.host!r}")
        payload = endpoint.service.encode("utf-8") + b"\x00" + frame
        sock = self._checkout(address)
        reused = sock is not None
        try:
            if sock is None:
                sock = self._connect(address)
            response = self._exchange(sock, payload)
        except (TransportError, OSError) as exc:
            _close_quietly(sock)
            if not reused:
                raise TransportError(
                    f"TCP request to {endpoint} failed: {exc}"
                ) from exc
            # The pooled socket had gone stale (server closed or timed it
            # out between requests): retry exactly once on a fresh one.
            sock = None
            try:
                sock = self._connect(address)
                response = self._exchange(sock, payload)
            except (TransportError, OSError) as retry_exc:
                _close_quietly(sock)
                raise TransportError(
                    f"TCP request to {endpoint} failed: {retry_exc}"
                ) from retry_exc
        self._checkin(address, sock)
        if response == b"":
            raise TransportError(f"no service {endpoint.service!r} at {endpoint.host!r}")
        with self._lock:
            self.stats.record(sent=len(payload), received=len(response))
        return response

    def request_many(
        self, batch: Sequence[Tuple[Endpoint, bytes]]
    ) -> List[Union[bytes, Exception]]:
        """Issue a batch concurrently over pooled connections.

        One worker thread per request (batches are already windowed by
        the RPC layer); slots align with *batch* and hold the response
        bytes or the per-request exception.
        """
        batch = list(batch)
        if len(batch) <= 1:
            return [self._request_slot(ep, frame) for ep, frame in batch]
        results: List[Union[bytes, Exception]] = [None] * len(batch)  # type: ignore[list-item]

        def work(index: int, endpoint: Endpoint, frame: bytes) -> None:
            results[index] = self._request_slot(endpoint, frame)

        threads = [
            threading.Thread(target=work, args=(i, ep, frame), daemon=True)
            for i, (ep, frame) in enumerate(batch)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def _request_slot(
        self, endpoint: Endpoint, frame: bytes
    ) -> Union[bytes, Exception]:
        try:
            return self.request(endpoint, frame)
        except Exception as exc:
            return exc

    def _exchange(self, sock: socket.socket, payload: bytes) -> bytes:
        _send_frame(sock, payload)
        response = _recv_frame(sock)
        assert response is not None  # allow_eof=False: None is impossible
        return response


def _close_quietly(sock: Optional[socket.socket]) -> None:
    if sock is None:
        return
    try:
        sock.close()
    except OSError:  # pragma: no cover - close best-effort
        pass
