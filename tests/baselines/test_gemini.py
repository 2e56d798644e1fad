"""The Gemini baseline: cache signing and eventual-audit semantics."""

from __future__ import annotations

import pytest

from repro.baselines.gemini import GeminiCache, GeminiClient, Receipt
from repro.crypto.signing import SignedEnvelope
from repro.errors import AuthenticityError, RpcError, SignatureError
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.sim.clock import SimClock
from repro.util.tally import TALLY
from tests.conftest import fast_keys

ORIGIN = {"index.html": b"<html>publisher content</html>", "a.png": b"PNG"}
BOGUS = {"index.html": b"<html>ads injected</html>"}


def convicting(receipts, cache_key):
    """The audit: receipts signed by the cache (admissible evidence) for
    content the publisher never produced."""
    evidence = []
    for receipt in receipts:
        receipt.envelope.verify(cache_key)  # SignatureError: inadmissible
        if ORIGIN.get(receipt.path.lstrip("/")) != receipt.content:
            evidence.append(receipt)
    return evidence


def rsa_signs() -> int:
    """RSA signatures made in this process so far, any key size."""
    return sum(
        n for op, n in TALLY.items() if isinstance(op, tuple) and op[0] == "rsa.sign"
    )


@pytest.fixture
def wired(clock):
    cache = GeminiCache(host="squid", keys=fast_keys(), clock=clock)
    cache.fill(ORIGIN)
    transport = LoopbackTransport()
    transport.register(cache.endpoint, cache.rpc_server().handle_frame)
    client = GeminiClient(RpcClient(transport), cache.endpoint, cache.public_key)
    return cache, client


class TestHonestCache:
    def test_serves_and_signs(self, wired):
        _, client = wired
        before = rsa_signs()
        assert client.get("index.html") == ORIGIN["index.html"]
        assert rsa_signs() - before == 1
        assert len(client.receipts) == 1

    def test_signing_cost_per_response(self, wired):
        """Gemini's cost profile: one RSA signature per response (vs
        GlobeDoc's owner signing once, offline)."""
        _, client = wired
        before = rsa_signs()
        for _ in range(5):
            client.get("a.png")
        assert rsa_signs() - before == 5

    def test_miss(self, wired):
        _, client = wired
        with pytest.raises((RpcError, Exception)):
            client.get("ghost")

    def test_audit_clears_honest_cache(self, wired):
        cache, client = wired
        client.get("index.html")
        client.get("a.png")
        assert convicting(client.receipts, cache.public_key) == []


class TestCheatingCache:
    def test_bogus_content_accepted_by_client(self, wired):
        """The design gap: the client verifies only the cache signature,
        so tampered content is ACCEPTED at serve time."""
        cache, client = wired
        cache.fill(BOGUS)
        body = client.get("index.html")
        assert body == b"<html>ads injected</html>"  # attack succeeds now…

    def test_audit_convicts_cheater(self, wired):
        """…but the signed receipt convicts the cache later ('caught
        red-handed')."""
        cache, client = wired
        cache.fill(BOGUS)
        client.get("index.html")
        client.get("a.png")  # honest response
        convictions = convicting(client.receipts, cache.public_key)
        assert len(convictions) == 1
        assert convictions[0].path == "/index.html"
        assert convictions[0].content == b"<html>ads injected</html>"

    def test_unsigned_evidence_inadmissible(self, wired):
        """Receipts that do not verify under the cache key cannot convict
        (an attacker cannot frame a cache)."""
        cache, client = wired
        client.get("index.html")
        receipt = client.receipts[0]
        forged = Receipt(
            envelope=SignedEnvelope(
                payload={**dict(receipt.envelope.payload), "content": b"framed"},
                signature=receipt.envelope.signature,
            ),
            cache_key_der=receipt.cache_key_der,
        )
        with pytest.raises(SignatureError):
            convicting([forged], cache.public_key)

    def test_wrong_cache_key_rejected_by_client(self, clock):
        cache = GeminiCache(host="squid", keys=fast_keys(), clock=clock)
        cache.fill(ORIGIN)
        transport = LoopbackTransport()
        transport.register(cache.endpoint, cache.rpc_server().handle_frame)
        stranger = fast_keys()
        client = GeminiClient(RpcClient(transport), cache.endpoint, stranger.public)
        with pytest.raises(AuthenticityError):
            client.get("index.html")
