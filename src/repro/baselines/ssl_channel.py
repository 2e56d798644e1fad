"""The Apache+SSL baseline: a TLS-1.0-style secure channel.

Reproduces the cost structure the paper attributes to SSL:

* a handshake per connection costing two round trips plus an RSA
  key-exchange — the client *encrypts* a premaster secret under the
  server's public key and the server *decrypts* it with its private
  key (the expensive operation the paper contrasts with GlobeDoc's
  cheap signature verification);
* record protection on every byte: real AES-128-CBC plus HMAC-SHA1 on
  both ends, charged per byte at the modelled cost of DESIGN §2.

Security semantics also mirror TLS: the channel authenticates the
*server* and protects the *transport* — a malicious replica behind a
valid certificate can still serve bogus content, which is exactly the
gap GlobeDoc's object-signed integrity certificate closes (tested in
``tests/baselines/test_ssl_channel.py::TestTrustGap``).
"""

from __future__ import annotations

import hmac
import os
from dataclasses import dataclass
from hashlib import sha1 as _sha1
from typing import Dict, Optional

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto.keys import KeyPair, PublicKey, rsa_encrypt
from repro.errors import CryptoError, ReproError
from repro.globedoc.element import guess_content_type
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient, RpcServer, rpc_method
from repro.sim.clock import Clock, RealClock
from repro.util.encoding import wire_bytes
from repro.util.tally import TALLY

__all__ = ["TlsSession", "SslServer", "SslClient"]

_KEY_LEN = 16
_MAC_LEN = 20
_BLOCK = 16


def _encrypt_record(key: bytes, mac_key: bytes, plaintext: bytes) -> bytes:
    """AES-128-CBC + HMAC-SHA1 (MAC-then-encrypt, TLS 1.0 style)."""
    TALLY["record"] += len(plaintext)
    mac = hmac.new(mac_key, plaintext, _sha1).digest()
    payload = plaintext + mac
    pad_len = _BLOCK - (len(payload) % _BLOCK)
    payload += bytes([pad_len]) * pad_len
    iv = os.urandom(_BLOCK)
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return iv + encryptor.update(payload) + encryptor.finalize()


def _decrypt_record(key: bytes, mac_key: bytes, ciphertext: bytes) -> bytes:
    TALLY["record"] += len(ciphertext)
    if len(ciphertext) < _BLOCK * 2:
        raise CryptoError("TLS record too short")
    iv, body = ciphertext[:_BLOCK], ciphertext[_BLOCK:]
    decryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).decryptor()
    payload = decryptor.update(body) + decryptor.finalize()
    pad_len = payload[-1]
    if pad_len < 1 or pad_len > _BLOCK:
        raise CryptoError("TLS record padding invalid")
    payload = payload[:-pad_len]
    plaintext, mac = payload[:-_MAC_LEN], payload[-_MAC_LEN:]
    if not hmac.compare_digest(hmac.new(mac_key, plaintext, _sha1).digest(), mac):
        raise CryptoError("TLS record MAC check failed")
    return plaintext


@dataclass
class TlsSession:
    """Established session keys for one connection."""

    session_id: str
    enc_key: bytes
    mac_key: bytes

    @classmethod
    def derive(cls, session_id: str, premaster: bytes) -> "TlsSession":
        """Toy KDF: split a SHA-1-expanded premaster into keys."""
        material = b""
        counter = 0
        while len(material) < _KEY_LEN + _MAC_LEN:
            material += _sha1(premaster + bytes([counter])).digest()
            counter += 1
        return cls(
            session_id=session_id,
            enc_key=material[:_KEY_LEN],
            mac_key=material[_KEY_LEN : _KEY_LEN + _MAC_LEN],
        )


class SslServer:
    """Static files behind a TLS-style handshake + encrypted records;
    Apache's crypto is charged to *clock* as native code."""

    def __init__(
        self,
        host: str,
        keys: Optional[KeyPair] = None,
        service: str = "https",
        clock: Optional[Clock] = None,
    ) -> None:
        self.host = host
        self.service = service
        self.keys = keys if keys is not None else KeyPair.generate()
        self.clock = clock if clock is not None else RealClock()
        self._files: Dict[str, bytes] = {}
        self._sessions: Dict[str, TlsSession] = {}

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(host=self.host, service=self.service)

    @property
    def certificate_der(self) -> bytes:
        """The server 'certificate' (bare public key; CA validation out
        of scope — the paper's point is the crypto cost, not the PKI)."""
        return self.keys.public.der

    def put_file(self, path: str, content: bytes) -> None:
        if not path:
            raise ReproError("path must be non-empty")
        self._files["/" + path.lstrip("/")] = bytes(content)

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------

    @rpc_method("ssl.hello")
    def rpc_hello(self) -> dict:
        """ClientHello/ServerHello: return the server certificate."""
        return {"certificate_der": self.certificate_der}

    @rpc_method("ssl.key_exchange")
    def rpc_key_exchange(self, session_id: str, encrypted_premaster: bytes) -> dict:
        """The expensive step: RSA-decrypt the premaster secret."""
        with self.clock.compute(native=True):
            premaster = self.keys.decrypt(bytes(encrypted_premaster))
            self._sessions[str(session_id)] = TlsSession.derive(str(session_id), premaster)
        return {"established": True}

    @rpc_method("ssl.get")
    def rpc_get(self, session_id: str, path: str) -> dict:
        session = self._sessions.get(str(session_id))
        if session is None:
            raise CryptoError(f"no TLS session {session_id!r}")
        normalized = "/" + str(path).lstrip("/")
        content = self._files.get(normalized)
        if content is None:
            return {"status": 404, "record": b""}
        with self.clock.compute(native=True):
            record = _encrypt_record(session.enc_key, session.mac_key, content)
        return {
            "status": 200,
            "record": record,
            "content_type": guess_content_type(normalized),
        }

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name=f"https@{self.host}")
        server.register_object(self)
        return server


class SslClient:
    """Client side: handshake once per connection, then encrypted GETs.

    The client-side RSA encrypt and record decryption are charged to
    *clock* — natively, as wget with OpenSSL — symmetrically with the
    GlobeDoc proxy's verification costs.
    """

    def __init__(
        self,
        rpc: RpcClient,
        server_endpoint: Endpoint,
        clock: Optional[Clock] = None,
    ) -> None:
        self.rpc = rpc
        self.endpoint = server_endpoint
        self.clock = clock if clock is not None else RealClock()
        self._session: Optional[TlsSession] = None
        self._counter = 0

    def handshake(self) -> TlsSession:
        """Run the 2-RTT handshake; returns the established session."""
        hello = self.rpc.call(self.endpoint, "ssl.hello")
        server_key = PublicKey(der=wire_bytes(hello["certificate_der"]))
        self._counter += 1
        session_id = f"sess-{self._counter}-{os.urandom(4).hex()}"
        premaster = os.urandom(48)
        with self.clock.compute(native=True):
            encrypted = rsa_encrypt(server_key, premaster)
            session = TlsSession.derive(session_id, premaster)
        self.rpc.call(
            self.endpoint,
            "ssl.key_exchange",
            session_id=session_id,
            encrypted_premaster=encrypted,
        )
        self._session = session
        return session

    def get(self, path: str, new_connection: bool = True) -> bytes:
        """Fetch *path*; by default each GET opens a fresh connection
        (fresh handshake), matching wget-over-HTTPS in the paper."""
        if new_connection or self._session is None:
            self.handshake()
        assert self._session is not None
        answer = self.rpc.call(
            self.endpoint, "ssl.get", session_id=self._session.session_id, path=path
        )
        if int(answer["status"]) != 200:
            raise ReproError(f"HTTPS {answer['status']} for {path!r}")
        with self.clock.compute(native=True):
            return _decrypt_record(
                self._session.enc_key, self._session.mac_key, wire_bytes(answer["record"])
            )

    def get_many(self, paths, per_request_handshake: bool = True) -> Dict[str, bytes]:
        return {
            path: self.get(path, new_connection=per_request_handshake) for path in paths
        }
