"""Property-based tests on the integrity certificate: for arbitrary
documents, the §3.2.1 guarantees hold against arbitrary single-element
tampering, as the proxy's element check enforces them."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyPair
from repro.errors import AuthenticityError, ConsistencyError, FreshnessError
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.proxy.checks import SecurityChecker
from repro.sim.clock import SimClock

# One shared key pair: these properties are about hashing/table logic,
# not key generation.
_KEYS = KeyPair.generate(1024)
_OID = "ab" * 20

_names = st.from_regex(r"[a-z0-9]{1,10}(\.[a-z]{1,4})?", fullmatch=True)
_documents = st.dictionaries(_names, st.binary(max_size=64), min_size=1, max_size=8)


def build(elements_map, expires_at=1000.0):
    elements = [PageElement(n, c) for n, c in elements_map.items()]
    cert = IntegrityCertificate.for_elements(
        _KEYS, _OID, elements, expires_at=expires_at
    )
    return elements, cert


class TestProperties:
    @given(_documents)
    @settings(max_examples=40, deadline=None)
    def test_every_genuine_element_verifies(self, elements_map):
        elements, cert = build(elements_map)
        cert.verify_signature(_KEYS.public)
        clock = SimClock(0.0)
        for element in elements:
            entry = SecurityChecker(clock).check_element(cert, element.name, element)
            assert entry.content_hash == element.content_hash()

    @given(_documents, st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_tampering_detected(self, elements_map, data):
        elements, cert = build(elements_map)
        victim = data.draw(st.sampled_from(elements))
        mutation = data.draw(st.binary(min_size=1, max_size=8))
        tampered = victim.with_content(victim.content + mutation)
        with pytest.raises(AuthenticityError):
            SecurityChecker(SimClock(0.0)).check_element(cert, victim.name, tampered)

    @given(_documents, st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_swap_detected(self, elements_map, data):
        """Serving element B for a request of A fails, for every (A, B)
        pair with distinct content — by the name check, or (when renamed)
        by the hash check."""
        elements, cert = build(elements_map)
        if len(elements) < 2:
            return
        a, b = data.draw(
            st.tuples(st.sampled_from(elements), st.sampled_from(elements)).filter(
                lambda pair: pair[0].name != pair[1].name
                and pair[0].content != pair[1].content
            )
        )
        clock = SimClock(0.0)
        with pytest.raises((ConsistencyError, AuthenticityError)):
            SecurityChecker(clock).check_element(cert, a.name, b)
        renamed = PageElement(a.name, b.content)
        with pytest.raises(AuthenticityError):
            SecurityChecker(clock).check_element(cert, a.name, renamed)

    @given(_documents, st.floats(min_value=0.1, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_freshness_boundary_exact(self, elements_map, validity):
        elements, cert = build(elements_map, expires_at=validity)
        element = elements[0]
        SecurityChecker(SimClock(validity)).check_element(cert, element.name, element)  # inclusive
        with pytest.raises(FreshnessError):
            SecurityChecker(SimClock(validity * (1 + 1e-9) + 1e-6)).check_element(
                cert, element.name, element
            )

    @given(_documents)
    @settings(max_examples=30, deadline=None)
    def test_wire_roundtrip_preserves_checks(self, elements_map):
        elements, cert = build(elements_map)
        restored = IntegrityCertificate.from_dict(cert.to_dict())
        restored.verify_signature(_KEYS.public)
        clock = SimClock(0.0)
        for element in elements:
            SecurityChecker(clock).check_element(restored, element.name, element)
