"""Microbenchmarks of the proxy's security pipeline pieces.

Not a paper figure, but the numbers behind Fig. 4's decomposition: what
each verification step costs on real crypto, at the element sizes the
paper sweeps.
"""

from __future__ import annotations

import pytest

from repro.crypto.keys import KeyPair
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.util.sizes import KB, MB
from repro.workloads.generator import make_content
from repro.sim.random import make_rng


@pytest.fixture(scope="module")
def object_keys():
    return KeyPair.generate()


@pytest.fixture(scope="module")
def oid(object_keys):
    return ObjectId.from_public_key(object_keys.public)


@pytest.mark.parametrize("size", [KB, 100 * KB, MB], ids=["1KB", "100KB", "1MB"])
def test_element_hash_check(benchmark, object_keys, oid, size):
    """The size-proportional part: SHA-1 over the element content."""
    element = PageElement("image.png", make_content(size, make_rng(0)))
    cert = IntegrityCertificate.for_elements(
        object_keys, oid.hex, [element], expires_at=1e12
    )
    from repro.sim.clock import SimClock

    clock = SimClock(0.0)
    result = benchmark(lambda: cert.check_element("image.png", element, clock))
    assert result.name == "image.png"


def test_oid_key_check(benchmark, object_keys, oid):
    """The constant part: SHA-1 over the ~300-byte public key DER."""
    benchmark(lambda: oid.check_key(object_keys.public))


def test_certificate_signature_check(benchmark, object_keys, oid):
    """One RSA verify per binding."""
    elements = [PageElement(f"e{i}.png", bytes([i]) * 64) for i in range(11)]
    cert = IntegrityCertificate.for_elements(
        object_keys, oid.hex, elements, expires_at=1e12
    )
    benchmark(lambda: cert.verify_signature(object_keys.public))


def test_certificate_signature_check_cached(benchmark, object_keys, oid):
    """The same check through a warm VerificationCache — the fast path
    that amortizes RSA across repeated accesses (§4)."""
    from repro.crypto.verifycache import VerificationCache

    elements = [PageElement(f"e{i}.png", bytes([i]) * 64) for i in range(11)]
    cert = IntegrityCertificate.for_elements(
        object_keys, oid.hex, elements, expires_at=1e12
    )
    cache = VerificationCache()
    cert.verify_signature(object_keys.public, cache=cache)
    benchmark(lambda: cert.verify_signature(object_keys.public, cache=cache))
    assert cache.stats.hits > 0


def test_envelope_reparse_cold(benchmark, object_keys, oid):
    """Parsing a certificate off the wire with the intern pool defeated:
    every round trip re-validates and re-builds the envelope."""
    from repro.crypto.signing import SignedEnvelope

    elements = [PageElement(f"e{i}.png", bytes([i]) * 64) for i in range(11)]
    cert = IntegrityCertificate.for_elements(
        object_keys, oid.hex, elements, expires_at=1e12
    )
    wire = cert.to_dict()

    def cold():
        SignedEnvelope.clear_intern_pool()
        return IntegrityCertificate.from_dict(wire)

    benchmark(cold)
    SignedEnvelope.clear_intern_pool()


def test_envelope_reparse_interned(benchmark, object_keys, oid):
    """The same parse when the intern pool is warm: the prior instance
    (with its memoized encoding and digests) is returned."""
    from repro.crypto.signing import SignedEnvelope

    elements = [PageElement(f"e{i}.png", bytes([i]) * 64) for i in range(11)]
    cert = IntegrityCertificate.for_elements(
        object_keys, oid.hex, elements, expires_at=1e12
    )
    wire = cert.to_dict()
    SignedEnvelope.clear_intern_pool()
    IntegrityCertificate.from_dict(wire)
    benchmark(lambda: IntegrityCertificate.from_dict(wire))
    SignedEnvelope.clear_intern_pool()


def test_owner_publish_11_elements(benchmark, object_keys):
    """Owner-side cost of signing the paper's 11-element object."""
    from repro.globedoc.owner import DocumentOwner
    from repro.sim.clock import SimClock

    owner = DocumentOwner("vu.nl/bench", keys=object_keys, clock=SimClock(0.0))
    for i in range(10):
        owner.put_element(PageElement(f"img/i{i}.png", make_content(10 * KB, make_rng(i))))
    owner.put_element(PageElement("story.txt", make_content(5 * KB, make_rng(99))))
    signed = benchmark(lambda: owner.publish(validity=3600))
    assert signed.total_size == 105 * KB
