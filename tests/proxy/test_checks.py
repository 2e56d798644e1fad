"""The security checker primitives in isolation."""

from __future__ import annotations

import pytest

from repro.crypto.identity import TrustStore
from repro.errors import (
    AuthenticityError,
    ConsistencyError,
    FreshnessError,
)
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.obs import RingBufferSink, Tracer
from repro.proxy.checks import SecurityChecker
from repro.proxy.metrics import AccessMetrics
from tests.conftest import EPOCH, fast_keys, forge_signed


@pytest.fixture
def object_keys():
    return fast_keys()


@pytest.fixture
def oid(object_keys):
    return ObjectId.from_public_key(object_keys.public)


@pytest.fixture
def elements():
    return [PageElement("index.html", b"main"), PageElement("pic.png", b"img")]


@pytest.fixture
def integrity(object_keys, oid, elements):
    return IntegrityCertificate.for_elements(
        object_keys, oid.hex, elements, expires_at=EPOCH + 600
    )


@pytest.fixture
def checker(clock):
    return SecurityChecker(clock)


def traced_checker(clock, **kwargs):
    """A checker whose ``check.*`` spans land in the returned ring."""
    ring = RingBufferSink()
    tracer = Tracer(clock=clock, sinks=(ring,))
    return SecurityChecker(clock, tracer=tracer, **kwargs), ring


class TestPublicKeyCheck:
    def test_matching_key(self, oid, object_keys, clock):
        checker, ring = traced_checker(clock)
        assert checker.check_public_key(oid, object_keys.public) == object_keys.public
        metrics = AccessMetrics.from_spans(ring.spans)
        assert [name for name, _ in metrics.phases] == ["verify_public_key"]

    def test_wrong_key(self, checker, oid, other_keys, clock):
        with pytest.raises(AuthenticityError):
            checker.check_public_key(oid, other_keys.public)


class TestCertificateCheck:
    def test_valid(self, checker, oid, object_keys, integrity, clock):
        checker.check_certificate(object_keys.public, integrity, oid)

    def test_wrong_signer(self, checker, oid, other_keys, integrity, clock):
        with pytest.raises(AuthenticityError):
            checker.check_certificate(other_keys.public, integrity, oid)

    def test_cross_object_replay_rejected(self, checker, object_keys, elements, clock):
        """A certificate signed by the right key but issued for another
        OID must not be accepted (cross-object replay)."""
        oid = ObjectId.from_public_key(object_keys.public)
        foreign = IntegrityCertificate.for_elements(
            object_keys, "ff" * 20, elements, expires_at=EPOCH + 600
        )
        with pytest.raises(AuthenticityError, match="different object"):
            checker.check_certificate(object_keys.public, foreign, oid)


class TestElementCheck:
    def test_valid(self, checker, integrity, elements, clock):
        entry = checker.check_element(integrity, "index.html", elements[0])
        assert entry.name == "index.html"

    def test_tamper(self, checker, integrity, elements, clock):
        with pytest.raises(AuthenticityError):
            checker.check_element(
                integrity, "index.html", elements[0].with_content(b"evil")
            )

    def test_stale(self, checker, integrity, elements, clock):
        clock.advance(601)
        with pytest.raises(FreshnessError):
            checker.check_element(integrity, "index.html", elements[0])

    def test_swap(self, checker, integrity, elements, clock):
        with pytest.raises(ConsistencyError):
            checker.check_element(integrity, "index.html", elements[1])

    def test_phases_recorded(self, integrity, elements, clock):
        checker, ring = traced_checker(clock)
        checker.check_element(integrity, "index.html", elements[0])
        phases = AccessMetrics.from_spans(ring.spans).by_phase()
        assert "check_consistency" in phases
        assert "verify_element_hash" in phases
        assert "check_freshness" in phases


class TestIdentityCheck:
    def test_advisory_none_on_no_match(self, clock, object_keys):
        checker = SecurityChecker(clock, trust_store=TrustStore())
        assert (
            checker.check_identity(object_keys.public, [], require=False)
            is None
        )

    def test_required_raises(self, clock, object_keys):
        checker = SecurityChecker(clock, trust_store=TrustStore())
        with pytest.raises(AuthenticityError):
            checker.check_identity(object_keys.public, [], require=True)

    def test_match_returns_name(self, clock, object_keys, session_ca):
        store = TrustStore()
        store.add_ca(session_ca)
        checker = SecurityChecker(clock, trust_store=store)
        cert = session_ca.certify("VU Research Group", object_keys.public)
        name = checker.check_identity(object_keys.public, [cert])
        assert name == "VU Research Group"

    def test_cert_for_other_key_ignored(self, clock, object_keys, other_keys, session_ca):
        store = TrustStore()
        store.add_ca(session_ca)
        checker = SecurityChecker(clock, trust_store=store)
        cert = session_ca.certify("Someone Else", other_keys.public)
        assert checker.check_identity(object_keys.public, [cert]) is None


class TestVerificationFastPath:
    """The checker with a VerificationCache: hits are counted, expiry is
    honored, and every failure still fails closed on warm caches."""

    def make_checker(self, clock):
        from repro.crypto.verifycache import VerificationCache

        return SecurityChecker(clock, verification_cache=VerificationCache())

    def test_repeat_check_hits_and_records_metrics(
        self, oid, object_keys, integrity, clock
    ):
        from repro.crypto.verifycache import VerificationCache

        checker, ring = traced_checker(clock, verification_cache=VerificationCache())
        checker.check_certificate(object_keys.public, integrity, oid)
        first = ring.named("check.certificate")[0].attributes
        assert first["verify_misses"] == 1 and first["verify_hits"] == 0
        assert first["cache"] == "miss"

        checker.check_certificate(object_keys.public, integrity, oid)
        second = ring.named("check.certificate")[1].attributes
        assert second["verify_hits"] == 1 and second["verify_misses"] == 0
        assert second["cache"] == "hit"

    def test_warm_cache_still_rejects_wrong_signer(
        self, oid, object_keys, other_keys, integrity, clock
    ):
        checker = self.make_checker(clock)
        checker.check_certificate(object_keys.public, integrity, oid)
        with pytest.raises(AuthenticityError):
            checker.check_certificate(other_keys.public, integrity, oid)

    def test_warm_cache_still_rejects_tampered_reparse(
        self, oid, object_keys, integrity, clock
    ):
        """A re-parsed certificate with one flipped entry must not ride
        the warm cache of the genuine one."""
        checker = self.make_checker(clock)
        checker.check_certificate(object_keys.public, integrity, oid)
        wire = forge_signed(
            integrity.to_dict(),
            lambda payload: payload["body"]["entries"][0].update(content_hash=b"\x00" * 20),
        )
        forged = IntegrityCertificate.from_dict(wire)
        with pytest.raises(AuthenticityError):
            checker.check_certificate(object_keys.public, forged, oid)

    def test_cached_verdict_expires_with_certificate(self, object_keys, clock):
        """Integrity certificates bound freshness per entry, but windowed
        certificates (e.g. identity proofs) must drop their cached
        verdicts once ``not_after`` passes."""
        from repro.crypto.certificates import Certificate
        from repro.crypto.verifycache import VerificationCache
        from repro.errors import CertificateError

        cache = VerificationCache()
        cert = Certificate.issue(
            object_keys, "test/windowed", {"x": 1}, not_after=clock.now() + 600
        )
        cert.verify(object_keys.public, clock=clock, cache=cache)
        cert.verify(object_keys.public, clock=clock, cache=cache)
        assert cache.stats.hits == 1 and len(cache) == 1
        clock.advance(601)
        with pytest.raises(CertificateError, match="expired"):
            cert.verify(object_keys.public, clock=clock, cache=cache)
        # The window is checked before the cache is consulted: the stale
        # verdict is neither replayed nor looked up.
        assert cache.stats.snapshot() == (1, 1)
