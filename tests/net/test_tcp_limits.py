"""TCP transport resource limits: oversized-frame defence."""

from __future__ import annotations

import socket
import struct

import pytest

import repro.net.tcpnet as tcpnet
from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.tcpnet import TcpEndpointServer, TcpTransport


class TestFrameLimits:
    def test_client_refuses_to_send_oversized(self, monkeypatch):
        monkeypatch.setattr(tcpnet, "_MAX_FRAME", 1024)
        server = TcpEndpointServer()
        server.register("echo", lambda frame: frame)
        with server:
            ip, port = server.address
            transport = TcpTransport(directory={"h": (ip, port)})
            with pytest.raises(TransportError, match="too large"):
                transport.request(Endpoint("h", "echo"), b"x" * 2048)

    def test_client_refuses_oversized_announcement(self, monkeypatch):
        """A malicious server announcing a multi-GB frame must be cut
        off before any allocation."""
        monkeypatch.setattr(tcpnet, "_MAX_FRAME", 1024)

        # A raw socket server that answers any frame with a huge length
        # prefix and garbage.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        ip, port = listener.getsockname()

        import threading

        def serve_once():
            conn, _ = listener.accept()
            try:
                conn.recv(65536)
                conn.sendall(struct.pack(">I", 2**30) + b"junk")
            finally:
                conn.close()

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        try:
            transport = TcpTransport(directory={"evil": (ip, port)}, timeout=2.0)
            with pytest.raises(TransportError, match="oversized"):
                transport.request(Endpoint("evil", "svc"), b"hello")
        finally:
            listener.close()
            thread.join(timeout=2)

    def test_truncated_stream_detected(self):
        """A server that closes mid-frame yields a clean TransportError."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        ip, port = listener.getsockname()

        import threading

        def serve_once():
            conn, _ = listener.accept()
            try:
                conn.recv(65536)
                conn.sendall(struct.pack(">I", 100) + b"only-ten!")  # then close
            finally:
                conn.close()

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        try:
            transport = TcpTransport(directory={"flaky": (ip, port)}, timeout=2.0)
            with pytest.raises(TransportError):
                transport.request(Endpoint("flaky", "svc"), b"hello")
        finally:
            listener.close()
            thread.join(timeout=2)

    def test_oversized_announcement_mid_window_fails_the_rest(self, monkeypatch):
        """The cut-off holds inside a pipelined window too: the replies
        already read stand, nothing is allocated for the announced frame,
        and the connection is dropped rather than pooled."""
        from tests.net.rawpeer import RawPeer, read_frame, write_frame

        monkeypatch.setattr(tcpnet, "_MAX_FRAME", 1024)

        def serve(conn, number):
            write_frame(conn, read_frame(conn))
            conn.sendall(struct.pack(">I", 2**30) + b"junk")
            while read_frame(conn) is not None:
                pass

        with RawPeer(serve) as peer:
            transport = TcpTransport(directory={"evil": peer.address}, timeout=2.0)
            endpoint = Endpoint("evil", "svc")
            results = transport.request_many([(endpoint, b"%d" % i) for i in range(3)])
            assert results[0] == b"svc\x000"
            assert all(
                isinstance(r, TransportError) and "oversized" in str(r)
                for r in results[1:]
            )
            assert transport.pooled_connections == 0


class TestOversizedWindow:
    def test_a_window_answer_over_the_cap_is_fetched_call_by_call(self, monkeypatch):
        """Each element fits a frame; the fetch window's one answer — the
        bind (key, certificate, first element) and every other element —
        does not. The server cannot send it, so the window's calls fail
        and park nothing, and the replay fetches and verifies each call
        on its own."""
        from repro.deployment import ZONE_PATHS, Deployment
        from repro.naming.zone import ZoneKeys
        from repro.proxy.pipeline import PipelineConfig
        from repro.sim.clock import RealClock
        from tests.conftest import fast_keys

        host, client, site = "server-host", "client-host", "root/local"
        elements = {f"part{i}.bin": bytes([i]) * (16 * 1024) for i in range(4)}
        with TcpEndpointServer() as listener:
            transport = TcpTransport(directory={host: listener.address})
            world = Deployment(
                RealClock(),
                lambda endpoint, handler: listener.register(endpoint.service, handler),
                lambda name: transport,
                host,
                {host: site, client: site},
                zone_keys={zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS},
            )
            # Published whole, before the cap comes down.
            published = world.publish(world.document_owner("vu.nl/big", elements))
            monkeypatch.setattr(tcpnet, "_MAX_FRAME", 48 * 1024)
            stack = world.client_stack(client, pipeline=PipelineConfig())
            try:
                responses = stack.proxy.handle_many([published.url(n) for n in elements])
            finally:
                transport.close()
        assert [(r.status, r.content) for r in responses] == [
            (200, content) for content in elements.values()
        ]
        counters = stack.scheduler.counters
        # Parked: the name and the location. Replayed from the wire: the
        # bind (key, certificate and the first element) and the other
        # three elements.
        assert (counters.prefetched, counters.prefetch_misses) == (2, len(elements))
