"""Generic certificates: typing, validity windows, field binding."""

from __future__ import annotations

import pytest

from repro.crypto.certificates import Certificate
from repro.crypto.signing import SignedEnvelope
from repro.errors import CertificateError
from repro.sim.clock import SimClock
from repro.util.tally import TALLY


@pytest.fixture
def cert(shared_keys):
    return Certificate.issue(
        shared_keys, "test/type", {"field": "value"}, not_before=100.0, not_after=200.0
    )


class TestIssueVerify:
    def test_verify_within_window(self, cert, shared_keys):
        body = cert.verify(shared_keys.public, clock=SimClock(150.0))
        assert body == {"field": "value"}

    def test_expired_rejected(self, cert, shared_keys):
        with pytest.raises(CertificateError, match="expired"):
            cert.verify(shared_keys.public, clock=SimClock(201.0))

    def test_not_yet_valid_rejected(self, cert, shared_keys):
        with pytest.raises(CertificateError, match="not yet valid"):
            cert.verify(shared_keys.public, clock=SimClock(99.0))

    def test_boundary_times_valid(self, cert, shared_keys):
        cert.verify(shared_keys.public, clock=SimClock(100.0))
        cert.verify(shared_keys.public, clock=SimClock(200.0))

    def test_no_clock_skips_window(self, cert, shared_keys):
        # Verification without a clock checks signature only.
        cert.verify(shared_keys.public)

    def test_wrong_key_rejected(self, cert, other_keys):
        with pytest.raises(CertificateError):
            cert.verify(other_keys.public)

    def test_type_check(self, cert, shared_keys):
        cert.verify(shared_keys.public, expected_type="test/type")
        with pytest.raises(CertificateError, match="type"):
            cert.verify(shared_keys.public, expected_type="other/type")

    @pytest.mark.parametrize(
        "now, reason", [(201.0, "expired"), (99.0, "not yet valid")]
    )
    def test_window_is_checked_before_the_signature(self, cert, shared_keys, now, reason):
        """A certificate outside its window is refused before the RSA
        verify: no ``rsa.verify`` is tallied and no cache entry is made."""
        from repro.crypto.verifycache import VerificationCache

        cache = VerificationCache()
        bits = shared_keys.public.bit_size
        before = TALLY["rsa.verify", bits]
        with pytest.raises(CertificateError, match=reason):
            cert.verify(shared_keys.public, clock=SimClock(now), cache=cache)
        assert TALLY["rsa.verify", bits] == before
        assert len(cache) == 0 and cache.stats.snapshot() == (0, 0)

    def test_empty_window_rejected_at_issue(self, shared_keys):
        with pytest.raises(CertificateError):
            Certificate.issue(
                shared_keys, "t", {}, not_before=200.0, not_after=100.0
            )

    def test_unbounded_certificate(self, shared_keys):
        cert = Certificate.issue(shared_keys, "t", {"x": 1})
        cert.verify(shared_keys.public, clock=SimClock(1e12))


class TestFieldBinding:
    """Only the signed payload speaks: keys riding beside ``envelope``
    on the wire are unsigned and ignored — no mix-and-match attacks."""

    def test_forged_window_rejected(self, cert, shared_keys):
        # Attacker extends validity outside the signature.
        decoded = Certificate.from_dict({**cert.to_dict(), "not_after": 1e12})
        assert decoded.not_after == 200.0
        with pytest.raises(CertificateError, match="expired"):
            decoded.verify(shared_keys.public, clock=SimClock(201.0))

    def test_forged_body_rejected(self, cert, shared_keys):
        decoded = Certificate.from_dict({**cert.to_dict(), "body": {"field": "evil"}})
        assert decoded == cert
        assert decoded.verify(shared_keys.public) == {"field": "value"}

    def test_forged_type_rejected(self, cert, shared_keys):
        decoded = Certificate.from_dict({**cert.to_dict(), "cert_type": "admin/root"})
        assert decoded.cert_type == "test/type"
        with pytest.raises(CertificateError, match="type"):
            decoded.verify(shared_keys.public, expected_type="admin/root")


class TestSerialization:
    def test_dict_roundtrip(self, cert, shared_keys):
        restored = Certificate.from_dict(cert.to_dict())
        restored.verify(shared_keys.public, clock=SimClock(150.0))
        assert restored.body == cert.body

    def test_malformed_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_dict({"cert_type": "x"})

    @pytest.mark.parametrize(
        "override",
        [
            {"type": 7},
            {"body": ["not", "a", "mapping"]},
            {"not_before": "soon"},
            {"not_after": "2038-01-19"},
            {"not_after": True},
        ],
        ids=["type", "body", "not_before", "not_after", "bool_bound"],
    )
    def test_validly_signed_malformed_payload_rejected(self, shared_keys, override):
        """A signature does not make a payload well-formed: the signer
        may be the adversary. Decoding must fail with the typed error
        (a str bound used to surface as TypeError inside verify)."""
        payload = {"type": "t", "body": {}, "not_before": None, "not_after": None}
        envelope = SignedEnvelope.create(shared_keys, {**payload, **override})
        with pytest.raises(CertificateError, match="malformed"):
            Certificate.from_dict({"envelope": envelope.to_dict()})

    @pytest.mark.parametrize("missing", ["type", "body", "not_before", "not_after"])
    def test_missing_payload_key_rejected(self, shared_keys, missing):
        payload = {"type": "t", "body": {}, "not_before": None, "not_after": None}
        del payload[missing]
        envelope = SignedEnvelope.create(shared_keys, payload)
        with pytest.raises(CertificateError, match="malformed"):
            Certificate.from_dict({"envelope": envelope.to_dict()})

    def test_wire_size(self, cert):
        assert cert.wire_size > 100
