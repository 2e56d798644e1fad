"""The plain-HTTP baseline: an Apache-style static file server.

Serves named files over the RPC substrate with no security whatsoever.
This is the "Apache" series of Figures 5–7 and the origin server for
the proxy's HTTP passthrough. Keeping it on the same transport as
GlobeDoc makes the comparison honest: both pay identical network and
service-time costs, so the measured difference is exactly the security
machinery.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ReproError
from repro.globedoc.element import guess_content_type
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient, RpcServer, rpc_method
from repro.util.encoding import wire_bytes

__all__ = ["StaticHttpServer", "PlainHttpClient"]


class StaticHttpServer:
    """A dictionary of path → bytes behind an ``http.get`` operation."""

    def __init__(self, host: str, service: str = "http") -> None:
        self.host = host
        self.service = service
        self._files: Dict[str, bytes] = {}

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(host=self.host, service=self.service)

    def put_file(self, path: str, content: bytes) -> None:
        """Publish *content* at *path* (leading slash normalised)."""
        if not path:
            raise ReproError("path must be non-empty")
        self._files["/" + path.lstrip("/")] = bytes(content)

    @property
    def file_count(self) -> int:
        return len(self._files)

    @rpc_method("http.get")
    def rpc_get(self, path: str) -> dict:
        """GET *path*: 200 with body, or 404."""
        normalized = "/" + str(path).lstrip("/")
        content = self._files.get(normalized)
        if content is None:
            return {"status": 404, "body": b"not found", "content_type": "text/plain"}
        return {
            "status": 200,
            "body": content,
            "content_type": guess_content_type(normalized),
        }

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name=f"http@{self.host}")
        server.register_object(self)
        return server


class PlainHttpClient:
    """Minimal HTTP client over the RPC substrate (the wget stand-in)."""

    def __init__(self, rpc: RpcClient, server_endpoint: Endpoint) -> None:
        self.rpc = rpc
        self.endpoint = server_endpoint

    def get(self, path: str) -> bytes:
        """Fetch *path*; raises on any non-200 status."""
        answer = self.rpc.call(self.endpoint, "http.get", path=path)
        if int(answer["status"]) != 200:
            raise ReproError(f"HTTP {answer['status']} for {path!r}")
        return wire_bytes(answer["body"])

    def get_many(self, paths) -> Dict[str, bytes]:
        """Fetch several paths sequentially (one connection each, like
        HTTP/1.0-era wget)."""
        return {path: self.get(path) for path in paths}
