"""A raw-socket TCP peer for the transport's misbehaviour tests.

It speaks the stream format of :mod:`repro.net.tcpnet` (4-byte length,
then the frame) with its own few lines of code, so a test can make it do
what ``TcpEndpointServer`` never does: hang up after *k* replies, answer
a window backwards, or count the connections it is offered.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
from typing import Callable, List, Optional

_LEN = struct.Struct(">I")


def read_frame(conn: socket.socket) -> Optional[bytes]:
    """The next frame, or None once the client has closed the connection."""
    data = b""
    while len(data) < _LEN.size:
        chunk = conn.recv(_LEN.size - len(data))
        if not chunk:
            return None
        data += chunk
    (length,) = _LEN.unpack(data)
    chunks = []
    while length:
        chunk = conn.recv(min(length, 1 << 16))
        if not chunk:
            return None
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)


def read_window(conn: socket.socket, settle: float = 0.05) -> List[bytes]:
    """Every frame of the window the client is writing: the first one
    (waited for), then all that follow within *settle* seconds of each
    other. Empty once the client has closed the connection."""
    frames = []
    while not frames or select.select([conn], [], [], settle)[0]:
        frame = read_frame(conn)
        if frame is None:
            break
        frames.append(frame)
    return frames


def write_frame(conn: socket.socket, frame: bytes) -> None:
    conn.sendall(_LEN.pack(len(frame)) + frame)


class RawPeer:
    """Listens on localhost and runs ``serve(conn, number)`` on a thread
    per accepted connection (``number`` counts from 0). ``accepts`` is
    how many connections it has been offered."""

    def __init__(self, serve: Callable[[socket.socket, int], None]) -> None:
        self._serve = serve
        self.accepts = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._connections: List[socket.socket] = []
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            number, self.accepts = self.accepts, self.accepts + 1
            self._connections.append(conn)
            threading.Thread(
                target=self._run, args=(conn, number), daemon=True
            ).start()

    def _run(self, conn: socket.socket, number: int) -> None:
        try:
            self._serve(conn, number)
        except OSError:
            pass  # the client went away mid-script
        finally:
            conn.close()

    def close(self) -> None:
        for conn in [self._listener, *self._connections]:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._listener.close()

    def __enter__(self) -> "RawPeer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
