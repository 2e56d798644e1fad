"""The plain-HTTP baseline server and client."""

from __future__ import annotations

import pytest

from repro.baselines.plainhttp import PlainHttpClient, StaticHttpServer
from repro.errors import ReproError
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport


@pytest.fixture
def wired():
    server = StaticHttpServer(host="apache")
    server.put_files({"index.html": b"<html>home</html>", "img/a.png": b"PNG"})
    transport = LoopbackTransport()
    transport.register(server.endpoint, server.rpc_server().handle_frame)
    client = PlainHttpClient(RpcClient(transport), server.endpoint)
    return server, client


class TestServer:
    def test_get(self, wired):
        server, client = wired
        assert client.get("index.html") == b"<html>home</html>"
        assert client.get("/index.html") == b"<html>home</html>"  # slash-insensitive

    def test_content_type(self, wired):
        server, _ = wired
        answer = server.rpc_get("img/a.png")
        assert answer["content_type"] == "image/png"

    def test_404(self, wired):
        server, client = wired
        assert server.rpc_get("ghost")["status"] == 404
        with pytest.raises(ReproError, match="404"):
            client.get("ghost")

    def test_counters(self, wired):
        server, client = wired
        served = client.get("index.html") + client.get("img/a.png")
        assert client.rpc.transport.stats.requests == 2
        assert len(served) == len(b"<html>home</html>") + 3

    def test_get_many(self, wired):
        _, client = wired
        result = client.get_many(["index.html", "img/a.png"])
        assert set(result) == {"index.html", "img/a.png"}

    def test_empty_path_rejected(self):
        with pytest.raises(ReproError):
            StaticHttpServer(host="h").put_file("", b"")

    def test_no_security_whatsoever(self, wired):
        """The baseline's defining property: content can be swapped
        server-side with no client-visible signal."""
        server, client = wired
        server.put_file("index.html", b"<html>defaced</html>")
        assert client.get("index.html") == b"<html>defaced</html>"
