"""The SSL/TLS baseline: handshake, record protection, trust gap."""

from __future__ import annotations

import pytest

from repro.baselines.ssl_channel import (
    SslClient,
    SslServer,
    TlsSession,
    _decrypt_record,
    _encrypt_record,
)
from repro.errors import CryptoError, ReproError, RpcError
from repro.net.message import Request
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from tests.conftest import fast_keys


@pytest.fixture
def wired():
    """The server, a client, and the op of every frame the client sent."""
    server = SslServer(host="apache", keys=fast_keys())
    server.put_files({"index.html": b"<html>secret home</html>"})
    transport = LoopbackTransport()
    handle = server.rpc_server().handle_frame
    sent = []

    def tap(frame: bytes) -> bytes:
        sent.append(Request.from_bytes(frame).op)
        return handle(frame)

    transport.register(server.endpoint, tap)
    client = SslClient(RpcClient(transport), server.endpoint)
    return server, client, sent


class TestRecords:
    def test_roundtrip(self):
        session = TlsSession.derive("s", b"premaster")
        record = _encrypt_record(session.enc_key, session.mac_key, b"payload")
        assert _decrypt_record(session.enc_key, session.mac_key, record) == b"payload"

    def test_ciphertext_differs_from_plaintext(self):
        session = TlsSession.derive("s", b"premaster")
        record = _encrypt_record(session.enc_key, session.mac_key, b"payload")
        assert b"payload" not in record

    def test_tampered_record_rejected(self):
        session = TlsSession.derive("s", b"premaster")
        record = bytearray(_encrypt_record(session.enc_key, session.mac_key, b"payload"))
        record[-1] ^= 0xFF
        with pytest.raises(CryptoError):
            _decrypt_record(session.enc_key, session.mac_key, bytes(record))

    def test_wrong_key_rejected(self):
        a = TlsSession.derive("s", b"premaster-a")
        b = TlsSession.derive("s", b"premaster-b")
        record = _encrypt_record(a.enc_key, a.mac_key, b"payload")
        with pytest.raises(CryptoError):
            _decrypt_record(b.enc_key, b.mac_key, record)

    def test_short_record_rejected(self):
        session = TlsSession.derive("s", b"p")
        with pytest.raises(CryptoError):
            _decrypt_record(session.enc_key, session.mac_key, b"short")


class TestChannel:
    def test_handshake_and_get(self, wired):
        server, client, sent = wired
        body = client.get("index.html")
        assert body == b"<html>secret home</html>"
        assert sent == ["ssl.hello", "ssl.key_exchange", "ssl.get"]

    def test_per_request_handshakes(self, wired):
        _, client, sent = wired
        client.get_many(["index.html", "index.html"], per_request_handshake=True)
        assert sent.count("ssl.hello") == 2

    def test_persistent_connection(self, wired):
        _, client, sent = wired
        client.handshake()
        client.get("index.html", new_connection=False)
        client.get("index.html", new_connection=False)
        assert sent.count("ssl.hello") == 1

    def test_404(self, wired):
        _, client, _ = wired
        with pytest.raises(ReproError):
            client.get("ghost")

    def test_get_without_session_rejected_server_side(self, wired):
        server, _, _ = wired
        with pytest.raises(CryptoError):
            server.rpc_get(session_id="nonexistent", path="index.html")


class TestTrustGap:
    def test_malicious_server_defeats_tls(self, wired):
        """The paper's core criticism of TLS (§3.2.1): 'The secure
        channel … does not help at all if a malicious server sends bogus
        data over it.' A compromised server swaps the content; the
        channel verifies perfectly and the client accepts the bogus
        bytes."""
        server, client, _ = wired
        server.put_file("index.html", b"<html>bogus but encrypted</html>")
        body = client.get("index.html")
        assert body == b"<html>bogus but encrypted</html>"  # accepted!
