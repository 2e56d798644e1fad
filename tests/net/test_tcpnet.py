"""Real TCP transport: the same frames over actual sockets."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.rpc import BatchCall, RpcClient, RpcServer, rpc_method
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from tests.net.rawpeer import RawPeer, read_frame, write_frame


class Echo:
    @rpc_method("echo.say")
    def say(self, text: str) -> str:
        return f"echo: {text}"

    @rpc_method("echo.blob")
    def blob(self, data: bytes) -> bytes:
        return bytes(data) * 2


@pytest.fixture
def tcp_server():
    server = TcpEndpointServer()
    rpc = RpcServer("echo")
    rpc.register_object(Echo())
    server.register("echo", rpc.handle_frame)
    with server:
        yield server


class TestTcpTransport:
    def test_rpc_over_real_sockets(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport()
        transport.add_host("remote", ip, port)
        client = RpcClient(transport)
        assert client.call(Endpoint("remote", "echo"), "echo.say", text="hi") == "echo: hi"

    def test_binary_payload(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        client = RpcClient(transport)
        out = client.call(Endpoint("remote", "echo"), "echo.blob", data=b"\x00\xff")
        assert out == b"\x00\xff\x00\xff"

    def test_large_frame(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        client = RpcClient(transport)
        big = b"x" * 300_000
        assert client.call(Endpoint("remote", "echo"), "echo.blob", data=big) == big * 2

    def test_unknown_service(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        with pytest.raises(TransportError, match="no service"):
            transport.request(Endpoint("remote", "ghost"), b"frame")

    def test_unknown_host(self):
        transport = TcpTransport()
        with pytest.raises(TransportError, match="no TCP address"):
            transport.request(Endpoint("nowhere", "echo"), b"")

    def test_connection_refused(self):
        transport = TcpTransport(directory={"dead": ("127.0.0.1", 1)}, timeout=0.5)
        with pytest.raises(TransportError):
            transport.request(Endpoint("dead", "echo"), b"")

    def test_stats(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        RpcClient(transport).call(Endpoint("remote", "echo"), "echo.say", text="x")
        assert transport.stats.requests == 1

    def test_double_start_rejected(self):
        server = TcpEndpointServer()
        with server:
            with pytest.raises(TransportError):
                server.start()

    def test_stop_returns_promptly(self):
        # socketserver's default poll interval made every stop() — every
        # TCP test's teardown — wait 0.5 s.
        started = time.perf_counter()
        server = TcpEndpointServer()
        server.register("echo", lambda frame: frame)
        server.start()
        transport = TcpTransport(directory={"remote": server.address})
        assert transport.request(Endpoint("remote", "echo"), b"x") == b"x"
        transport.close()
        server.stop()
        assert time.perf_counter() - started < 0.2

    def test_multiple_services_one_port(self, tcp_server):
        other = RpcServer("extra")

        class Extra:
            @rpc_method("extra.ping")
            def ping(self) -> str:
                return "pong"

        other.register_object(Extra())
        tcp_server.register("extra", other.handle_frame)
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        client = RpcClient(transport)
        assert client.call(Endpoint("remote", "extra"), "extra.ping") == "pong"
        assert client.call(Endpoint("remote", "echo"), "echo.say", text="y") == "echo: y"


class TestConnectionPool:
    def test_connection_reused_across_requests(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        client = RpcClient(transport)
        endpoint = Endpoint("remote", "echo")
        for i in range(4):
            assert client.call(endpoint, "echo.say", text=str(i)) == f"echo: {i}"
        # One persistent socket served all four calls.
        assert transport.pooled_connections == 1
        transport.close()

    def test_close_drains_pool(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        transport.request(Endpoint("remote", "echo"), b"frame")
        assert transport.pooled_connections == 1
        transport.close()
        assert transport.pooled_connections == 0

    def test_pool_capped_at_pool_size(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)}, pool_size=1)
        batch = [(Endpoint("remote", "echo"), b"x") for _ in range(3)]
        results = transport.request_many(batch)
        assert all(isinstance(r, bytes) for r in results)
        assert transport.pooled_connections <= 1
        transport.close()

    def test_stale_pooled_socket_retried_once(self):
        # A server that hangs up idle connections quickly: the pooled
        # socket goes stale between requests, and the transport must
        # retry on a fresh connection instead of surfacing the EOF.
        server = TcpEndpointServer(idle_timeout=0.2)
        rpc = RpcServer("echo")
        rpc.register_object(Echo())
        server.register("echo", rpc.handle_frame)
        with server:
            ip, port = server.address
            transport = TcpTransport(directory={"remote": (ip, port)})
            client = RpcClient(transport)
            endpoint = Endpoint("remote", "echo")
            assert client.call(endpoint, "echo.say", text="a") == "echo: a"
            assert transport.pooled_connections == 1
            time.sleep(0.5)  # server closes the idle connection
            assert client.call(endpoint, "echo.say", text="b") == "echo: b"
            transport.close()


class TestTimeouts:
    def test_slow_handler_surfaces_transport_error(self, tcp_server):
        def slow(frame: bytes) -> bytes:
            time.sleep(1.0)
            return b"late"

        tcp_server.register("slow", slow)
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)}, timeout=0.2)
        with pytest.raises(TransportError, match="timed out"):
            transport.request(Endpoint("remote", "slow"), b"frame")
        transport.close()


class TestRequestManyTcp:
    def test_batch_down_one_connection(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        client = RpcClient(transport)
        endpoint = Endpoint("remote", "echo")
        outcomes = client.call_many(
            [BatchCall(endpoint, "echo.say", {"text": str(i)}) for i in range(6)]
        )
        assert [o.value for o in outcomes] == [f"echo: {i}" for i in range(6)]
        assert transport.pooled_connections == 1
        assert transport.stats.requests == 1  # one batch frame carries all six
        transport.close()

    def test_failed_slot_holds_exception(self, tcp_server):
        ip, port = tcp_server.address
        transport = TcpTransport(directory={"remote": (ip, port)})
        results = transport.request_many(
            [
                (Endpoint("remote", "echo"), b"ok"),
                (Endpoint("remote", "ghost"), b"dead"),
                (Endpoint("nowhere", "echo"), b"lost"),
            ]
        )
        assert isinstance(results[0], bytes)
        assert isinstance(results[1], TransportError)
        assert isinstance(results[2], TransportError)
        # Only the answered slot counts, and the "no such service" reply
        # left the connection usable.
        assert transport.stats.requests == 1
        assert transport.pooled_connections == 1
        transport.close()

    def test_empty_batch(self):
        assert TcpTransport().request_many([]) == []


# ----------------------------------------------------------------------
# The pipelined exchange
# ----------------------------------------------------------------------

#: Around the write-ahead bound (16 KiB), around a socket buffer, and the
#: empty frame — which an echoing handler answers with the empty "no
#: such service" reply.
FRAME_SIZES = [0, 1, 200, 16 * 1024 - 8, 16 * 1024, 70_000, 1 << 20]


@pytest.fixture(scope="module")
def two_servers():
    """Two live listeners ("a", "b"), each echoing under its own prefix,
    and one transport whose pool persists across examples."""
    with TcpEndpointServer() as a, TcpEndpointServer() as b:
        a.register("echo", lambda frame: frame)
        a.register("tag", lambda frame: b"a:" + frame)
        b.register("echo", lambda frame: frame)
        b.register("tag", lambda frame: b"b:" + frame)
        transport = TcpTransport(directory={"a": a.address, "b": b.address})
        yield transport
        transport.close()


def expected_reply(endpoint: Endpoint, frame: bytes):
    """What the servers of ``two_servers`` owe *endpoint* for *frame*
    (None: a TransportError)."""
    if endpoint.host not in ("a", "b") or endpoint.service not in ("echo", "tag"):
        return None
    reply = frame if endpoint.service == "echo" else endpoint.host.encode() + b":" + frame
    return reply or None


class TestWindowEqualsItsRequests:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "nowhere"]),
                st.sampled_from(["echo", "tag", "ghost"]),
                st.sampled_from(FRAME_SIZES),
                st.integers(0, 255),
            ),
            max_size=10,
        )
    )
    def test_request_many_equals_request_slot_for_slot(self, two_servers, picks):
        transport = two_servers
        batch = [
            (Endpoint(host, service), bytes([fill]) * size)
            for host, service, size, fill in picks
        ]
        window = transport.request_many(batch)
        assert len(window) == len(batch)
        for (endpoint, frame), got in zip(batch, window):
            try:
                alone = transport.request(endpoint, frame)
            except TransportError as exc:
                alone = exc
            want = expected_reply(endpoint, frame)
            if want is None:
                assert isinstance(got, TransportError), (endpoint, len(frame))
                assert isinstance(alone, TransportError)
                assert str(got) == str(alone)
            else:
                assert got == want == alone, (endpoint, len(frame))


class TestPipelinedExchange:
    def test_large_window_does_not_deadlock(self, tcp_server):
        # Written all at once before any read, 8 x 8 MiB fills both
        # directions' socket buffers: the server blocks sending reply 1
        # while the client blocks sending frame 2, until the timeout.
        tcp_server.register("raw", lambda frame: frame)
        transport = TcpTransport(directory={"remote": tcp_server.address}, timeout=5.0)
        frames = [bytes([i]) * (8 << 20) for i in range(8)]
        started = time.perf_counter()
        results = transport.request_many(
            [(Endpoint("remote", "raw"), frame) for frame in frames]
        )
        assert time.perf_counter() - started < transport.timeout
        assert results == frames
        assert transport.pooled_connections == 1
        transport.close()

    def test_window_across_servers_overlaps_them(self):
        def slow(frame: bytes) -> bytes:
            time.sleep(0.2)
            return frame

        with TcpEndpointServer() as a, TcpEndpointServer() as b:
            a.register("slow", slow)
            b.register("slow", slow)
            transport = TcpTransport(directory={"a": a.address, "b": b.address})
            started = time.perf_counter()
            results = transport.request_many(
                [(Endpoint("a", "slow"), b"1"), (Endpoint("b", "slow"), b"2")]
            )
            assert time.perf_counter() - started < 0.35
            assert results == [b"1", b"2"]
            assert transport.pooled_connections == 2
            transport.close()

    def test_stale_pooled_socket_retried_once_for_the_whole_window(self):
        served = []

        def serve(conn, number):
            if number == 0:  # answers one frame, then hangs up
                write_frame(conn, read_frame(conn))
                return
            while True:
                frame = read_frame(conn)
                if frame is None:
                    return
                served.append(frame)
                write_frame(conn, frame)

        with RawPeer(serve) as peer:
            transport = TcpTransport(directory={"peer": peer.address})
            endpoint = Endpoint("peer", "svc")
            assert transport.request(endpoint, b"warm") == b"svc\x00warm"
            assert transport.pooled_connections == 1
            results = transport.request_many([(endpoint, b"%d" % i) for i in range(5)])
            assert results == [b"svc\x00%d" % i for i in range(5)]
            assert peer.accepts == 2
            assert served == results  # each frame served once, in order
            assert transport.pooled_connections == 1
            transport.close()

    @pytest.mark.parametrize("pooled", [False, True])
    def test_hang_up_after_k_replies_fails_the_rest_and_drops_the_connection(
        self, pooled
    ):
        def serve(conn, number):
            if pooled:
                write_frame(conn, read_frame(conn))  # the warm-up request
            for _ in range(2):
                write_frame(conn, read_frame(conn))

        with RawPeer(serve) as peer:
            transport = TcpTransport(directory={"peer": peer.address}, timeout=2.0)
            endpoint = Endpoint("peer", "svc")
            if pooled:
                transport.request(endpoint, b"warm")
            before = transport.stats.requests
            results = transport.request_many([(endpoint, b"%d" % i) for i in range(5)])
            assert results[:2] == [b"svc\x000", b"svc\x001"]
            assert all(isinstance(r, TransportError) for r in results[2:])
            assert transport.stats.requests - before == 2
            # Replies had begun, so the socket was not stale: no retry,
            # and what is left of it never goes back to the pool.
            assert peer.accepts == 1
            assert transport.pooled_connections == 0

    def test_timeout_mid_window_drops_the_connection(self, tcp_server):
        def slow(frame: bytes) -> bytes:
            if frame == b"slow":
                time.sleep(0.6)
            return frame

        tcp_server.register("raw", slow)
        transport = TcpTransport(directory={"remote": tcp_server.address}, timeout=0.2)
        endpoint = Endpoint("remote", "raw")
        results = transport.request_many(
            [(endpoint, b"quick"), (endpoint, b"slow"), (endpoint, b"late")]
        )
        assert results[0] == b"quick"
        assert "timed out" in str(results[1]) and "timed out" in str(results[2])
        # The late replies are still coming down that socket.
        assert transport.pooled_connections == 0
        assert transport.request(endpoint, b"next") == b"next"
        transport.close()

    def test_oversized_frame_fails_its_slot_only(self, tcp_server, monkeypatch):
        import repro.net.tcpnet as tcpnet

        tcp_server.register("raw", lambda frame: frame)
        transport = TcpTransport(directory={"remote": tcp_server.address})
        endpoint = Endpoint("remote", "raw")
        monkeypatch.setattr(tcpnet, "_MAX_FRAME", 1024)
        results = transport.request_many(
            [(endpoint, b"a"), (endpoint, b"x" * 2048), (endpoint, b"b")]
        )
        assert results[0] == b"a" and results[2] == b"b"
        assert isinstance(results[1], TransportError) and "too large" in str(results[1])
        assert transport.pooled_connections == 1
        transport.close()

    def test_one_connection_and_no_thread_per_window(self):
        threads_seen = []

        def serve(conn, number):
            while True:
                frame = read_frame(conn)
                if frame is None:
                    return
                threads_seen.append(threading.active_count())
                write_frame(conn, frame)

        with RawPeer(serve) as peer:
            transport = TcpTransport(directory={"peer": peer.address})
            batch = [(Endpoint("peer", "svc"), b"%d" % i) for i in range(10)]
            assert all(isinstance(r, bytes) for r in transport.request_many(batch))
            assert peer.accepts == 1
            # Wider than pool_size: the old fan-out opened (and closed)
            # window - pool_size fresh connections on every window.
            idle = threading.active_count()
            del threads_seen[:]
            assert all(isinstance(r, bytes) for r in transport.request_many(batch))
            assert peer.accepts == 1
            assert transport.pooled_connections == 1
            # Seen from the peer while the window was in flight: nobody
            # started a thread for it.
            assert threads_seen == [idle] * 10
            assert threading.active_count() == idle
            transport.close()
