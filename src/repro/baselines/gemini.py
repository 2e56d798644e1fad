"""The Gemini cache-signing baseline (ref [12], §5).

Gemini's security model: untrusted caches **sign the data they return**
so that "malicious caches serving bogus content are eventually caught
red-handed" by after-the-fact auditing. Contrast with GlobeDoc, which
"makes it impossible for malicious servers to pass bogus data
undetected" in the first place.

The implementation captures both halves of that contrast:

* cost — the cache pays an RSA **sign** per response (vs GlobeDoc's
  owner signing once, offline); the ``design-choices`` server-signing
  row counts it;
* semantics — a cheating cache *succeeds* at serving bogus content to
  the client (the client only verifies the cache's signature), and is
  only exposed later when :class:`GeminiAuditor` replays receipts
  against the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signing import SignedEnvelope
from repro.errors import AuthenticityError, ReproError, SignatureError
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient, RpcServer, rpc_method
from repro.sim.clock import Clock, RealClock
from repro.util.encoding import wire_bytes

__all__ = ["GeminiCache", "GeminiClient", "GeminiAuditor", "Receipt"]


@dataclass(frozen=True)
class Receipt:
    """A cache-signed response the client keeps for auditing."""

    envelope: SignedEnvelope
    cache_key_der: bytes

    @property
    def path(self) -> str:
        return str(self.envelope.payload["path"])

    @property
    def content(self) -> bytes:
        return bytes(self.envelope.payload["content"])

    @property
    def served_at(self) -> float:
        return float(self.envelope.payload["served_at"])

    def to_dict(self) -> dict:
        return {
            "envelope": self.envelope.to_dict(),
            "cache_key_der": self.cache_key_der,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Receipt":
        return cls(
            envelope=SignedEnvelope.from_dict(data["envelope"]),
            cache_key_der=wire_bytes(data["cache_key_der"]),
        )


class GeminiCache:
    """An untrusted cache that signs every response it serves.

    ``tamper_with`` lets the attack tests flip it into a cheating cache
    that serves modified bytes — *signed*, because a Gemini cache
    cannot avoid signing; that signature is what later convicts it.
    """

    def __init__(
        self,
        host: str,
        keys: Optional[KeyPair] = None,
        clock: Optional[Clock] = None,
        service: str = "gemini",
    ) -> None:
        self.host = host
        self.service = service
        self.keys = keys if keys is not None else KeyPair.generate()
        self.clock = clock if clock is not None else RealClock()
        self._files: Dict[str, bytes] = {}
        self._tampered: Dict[str, bytes] = {}

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(host=self.host, service=self.service)

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public

    def fill(self, files: Mapping[str, bytes]) -> None:
        """Populate the cache from the origin (out-of-band refresh)."""
        for path, content in files.items():
            self._files["/" + path.lstrip("/")] = bytes(content)

    def tamper_with(self, path: str, bogus: bytes) -> None:
        """Turn malicious for *path*: serve *bogus* instead."""
        self._tampered["/" + path.lstrip("/")] = bytes(bogus)

    @rpc_method("gemini.get")
    def rpc_get(self, path: str) -> dict:
        normalized = "/" + str(path).lstrip("/")
        content = self._tampered.get(normalized, self._files.get(normalized))
        if content is None:
            raise ReproError(f"cache miss for {path!r}")
        payload = {
            "path": normalized,
            "content": content,
            "served_at": self.clock.now(),
        }
        with self.clock.compute():
            envelope = SignedEnvelope.create(self.keys, payload)
        return {"envelope": envelope.to_dict(), "cache_key_der": self.keys.public.der}

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name=f"gemini@{self.host}")
        server.register_object(self)
        return server


class GeminiClient:
    """Client: verifies the *cache's* signature and archives receipts.

    Note what this does **not** verify: that the content matches what
    the publisher created. That gap is the design difference GlobeDoc
    closes.
    """

    def __init__(
        self,
        rpc: RpcClient,
        cache_endpoint: Endpoint,
        trusted_cache_key: PublicKey,
        clock: Optional[Clock] = None,
    ) -> None:
        self.rpc = rpc
        self.endpoint = cache_endpoint
        self.cache_key = trusted_cache_key
        self.clock = clock if clock is not None else RealClock()
        self.receipts: List[Receipt] = []

    def get(self, path: str) -> bytes:
        answer = self.rpc.call(self.endpoint, "gemini.get", path=path)
        receipt = Receipt.from_dict(answer)
        if receipt.cache_key_der != self.cache_key.der:
            raise AuthenticityError("response signed by an unexpected cache key")
        with self.clock.compute():
            try:
                receipt.envelope.verify(self.cache_key)
            except SignatureError as exc:
                raise AuthenticityError(f"cache signature invalid: {exc}") from exc
        self.receipts.append(receipt)
        return receipt.content


class GeminiAuditor:
    """After-the-fact auditing: replay receipts against origin content.

    Returns the receipts that convict the cache — content it signed that
    the publisher never produced. This is the "caught red-handed"
    mechanism; detection is eventual, not preventive.
    """

    def __init__(self, origin_files: Mapping[str, bytes]) -> None:
        self.origin = {"/" + p.lstrip("/"): bytes(c) for p, c in origin_files.items()}

    def audit(self, receipts: List[Receipt], cache_key: PublicKey) -> List[Receipt]:
        convictions = []
        for receipt in receipts:
            # Only signed receipts are admissible evidence.
            try:
                receipt.envelope.verify(cache_key)
            except SignatureError:
                continue
            genuine = self.origin.get(receipt.path)
            if genuine is None or genuine != receipt.content:
                convictions.append(receipt)
        return convictions
