"""Real TCP transport.

The same wire frames as the simulator, length-prefixed over real
sockets. Integration tests run a full GlobeDoc object server and client
proxy across localhost TCP to prove the stack is not simulator-bound;
the examples can do the same across real machines.

Stream format: 4-byte big-endian length, then one opaque message frame
(:func:`repro.util.encoding.to_wire`, which carries its own checksum —
this module never looks inside). Connections are persistent and
*pipelined*, HTTP/1.1 style (RFC 2616 §8.1.2.2): the server answers a
connection's frames strictly in arrival order until the peer closes it,
so a client may write a whole window of requests back-to-back down one
pooled socket and read the replies in request order — no thread and no
socket per call. A single request is a window of one. Both ends set
``TCP_NODELAY``: a small reply must not wait on Nagle for the ACK of the
one before it.

In-order replies per connection are therefore load-bearing: a
connection on which anything went wrong after its first reply (error,
timeout, short read) is closed, never pooled — a late reply would be
taken for the answer to the next exchange's first request.

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

#: Request bytes a pipelined exchange keeps written but un-answered on
#: one connection. A server that is blocked sending a large reply is not
#: reading; whatever the client has written ahead of it must then fit in
#: the kernel's socket buffers, or both ends block on send until the
#: timeout. 16 KiB is under every platform's default receive buffer and
#: is eighty ordinary requests — the RPC layer's window is eight. A
#: frame larger than this travels only when nothing else is outstanding.
_WRITE_AHEAD = 16 * 1024

#: How often the listener's accept loop looks for :meth:`stop`. The
#: socketserver default (0.5 s) is what every ``stop()`` then waits.
_STOP_POLL = 0.02


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


def _sendall(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except socket.timeout as exc:
        raise TransportError(f"send timed out after {sock.gettimeout()}s") from exc


def _send_frame(sock: socket.socket, frame: bytes) -> None:
    if len(frame) > _MAX_FRAME:
        raise TransportError(f"frame too large: {len(frame)} bytes")
    _sendall(sock, _LEN.pack(len(frame)) + frame)


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
                self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_STOP_POLL,), daemon=True
        )
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
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        """One request: a window of one (see :meth:`request_many`)."""
        (outcome,) = self.request_many([(endpoint, frame)])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def request_many(
        self, batch: Sequence[Tuple[Endpoint, bytes]]
    ) -> List[Union[bytes, Exception]]:
        """Issue a window of requests as one pipelined exchange per server.

        The window is grouped by resolved address; each address gets one
        pooled connection, its frames are written back-to-back and its
        replies read in request order, all on the calling thread. Every
        address's first frames are on the wire before any reply is
        waited for, so a window that spans servers still overlaps them.

        Slots align with *batch* and hold the response bytes or the
        per-request :class:`~repro.errors.TransportError`. An unknown
        host, an oversized frame and a "no such service" reply fail only
        their own slot and leave the connection usable. A pooled socket
        that fails before the window's first reply had gone stale: the
        address's frames are re-sent once on a fresh connection. Any
        other error or timeout fails the address's un-answered slots and
        closes the connection.
        """
        results: List[Union[bytes, Exception]] = [None] * len(batch)  # type: ignore[list-item]
        exchanges: Dict[Tuple[str, int], _Exchange] = {}
        for slot, (endpoint, frame) in enumerate(batch):
            address = self.directory.get(endpoint.host)
            if address is None:
                results[slot] = TransportError(
                    f"no TCP address known for host {endpoint.host!r}"
                )
                continue
            payload = endpoint.service.encode("utf-8") + b"\x00" + frame
            if len(payload) > _MAX_FRAME:
                results[slot] = TransportError(
                    f"TCP request to {endpoint} failed: "
                    f"frame too large: {len(payload)} bytes"
                )
                continue
            exchange = exchanges.get(address)
            if exchange is None:
                exchange = exchanges[address] = _Exchange(self, address, results)
            exchange.requests.append((slot, endpoint, payload))
        for exchange in exchanges.values():
            exchange.begin()
        for exchange in exchanges.values():
            exchange.finish()
        return results


class _Exchange:
    """One address's share of a window, on one connection.

    ``written`` requests are on the wire, the first ``answered`` of them
    have their reply; at most :data:`_WRITE_AHEAD` bytes of request are
    ever in between, except for a single frame written when nothing is.
    """

    def __init__(
        self,
        transport: TcpTransport,
        address: Tuple[str, int],
        results: List[Union[bytes, Exception]],
    ) -> None:
        self.transport = transport
        self.address = address
        self.results = results
        #: (slot in the window, endpoint, payload), in window order.
        self.requests: List[Tuple[int, Endpoint, bytes]] = []
        self.sock = transport._checkout(address)
        self.pooled = self.sock is not None
        self.written = 0
        self.answered = 0
        self.ahead = 0  # payload bytes written and not yet answered

    def begin(self) -> None:
        """Put the first frames on the wire; wait for nothing."""
        self._run(self._write_ahead)

    def finish(self) -> None:
        """Read every reply (writing the rest as replies make room),
        then return the connection to the pool — or, after a failure,
        do not."""
        if self.answered == len(self.requests):
            return  # begin() already failed every slot
        if self._run(self._read_replies):
            self.transport._checkin(self.address, self.sock)

    def _run(self, step: Callable[[], None]) -> bool:
        try:
            step()
            return True
        except (TransportError, OSError) as exc:
            _close_quietly(self.sock)
            self.sock = None
            if self.pooled and self.answered == 0:
                # The pooled socket had gone stale (server closed or
                # timed it out between exchanges): start over, exactly
                # once, on a fresh one.
                self.pooled = False
                self.written = self.ahead = 0
                return self._run(step)
            for slot, endpoint, _ in self.requests[self.answered :]:
                self.results[slot] = TransportError(
                    f"TCP request to {endpoint} failed: {exc}"
                )
            self.answered = len(self.requests)
            return False

    def _write_ahead(self) -> None:
        """Send, in one ``sendall``, as many of the next frames as the
        write-ahead bound admits (one at least when nothing is
        outstanding)."""
        if self.sock is None:
            self.sock = self.transport._connect(self.address)
        chunk = []
        while self.written < len(self.requests):
            payload = self.requests[self.written][2]
            if (
                self.written > self.answered
                and self.ahead + len(payload) > _WRITE_AHEAD
            ):
                break
            chunk.append(_LEN.pack(len(payload)))
            chunk.append(payload)
            self.ahead += len(payload)
            self.written += 1
        if chunk:
            _sendall(self.sock, b"".join(chunk))

    def _read_replies(self) -> None:
        stats, lock = self.transport.stats, self.transport._lock
        while self.answered < len(self.requests):
            self._write_ahead()
            slot, endpoint, payload = self.requests[self.answered]
            response = _recv_frame(self.sock)
            self.answered += 1
            self.ahead -= len(payload)
            if response == b"":
                self.results[slot] = TransportError(
                    f"no service {endpoint.service!r} at {endpoint.host!r}"
                )
            else:
                self.results[slot] = response
                with lock:
                    stats.record(sent=len(payload), received=len(response))


def _close_quietly(sock: Optional[socket.socket]) -> None:
    if sock is None:
        return
    try:
        sock.close()
    except OSError:  # pragma: no cover - close best-effort
        pass
