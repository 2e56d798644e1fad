"""Shared fixtures.

RSA key generation is the only expensive primitive, so tests share
session-scoped keys where freshness does not matter and use 1024-bit
keys (the paper's era size) where it does. SimClock fixtures start at a
fixed epoch so expiry arithmetic in tests is readable.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.crypto import hashes
from repro.crypto.identity import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.crypto.signing import SignedEnvelope
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.sim.clock import SimClock

#: Readable test epoch: 2005-01-01-ish.
EPOCH = 1_100_000_000.0

#: Era-faithful and fast to generate; used for throwaway identities.
FAST_BITS = 1024

# The deep budget for the model-based (stateful) tests, run as a separate
# CI job (``HYPOTHESIS_PROFILE=deep``). Without the variable nothing is
# loaded: Hypothesis's own default stands for every property test, and
# the state machines pin their own small tier-1 budget.
settings.register_profile("deep", max_examples=1000, stateful_step_count=100)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(autouse=True)
def _isolate_fastpath_state():
    """Keep the envelope intern pool test-local."""
    SignedEnvelope.clear_intern_pool()
    yield
    SignedEnvelope.clear_intern_pool()


@pytest.fixture
def sha256_suite(monkeypatch):
    """One test on SHA-256: the one line of ``crypto/hashes.py`` a
    change of hash edits (``SUITE = SHA1``), flipped for the test."""
    monkeypatch.setattr(hashes, "SUITE", hashes.SHA256)
    return hashes.SHA256


def fast_keys() -> KeyPair:
    """A fresh 1024-bit key pair (cheap; for identity-unique needs)."""
    return KeyPair.generate(FAST_BITS)


@pytest.fixture(scope="session")
def shared_keys() -> KeyPair:
    """A session-wide key pair for tests that only need *a* valid key."""
    return KeyPair.generate(FAST_BITS)


@pytest.fixture(scope="session")
def other_keys() -> KeyPair:
    """A second, distinct session-wide key pair ('the wrong key')."""
    return KeyPair.generate(FAST_BITS)


@pytest.fixture(scope="session")
def session_ca() -> CertificateAuthority:
    """A session-wide certificate authority."""
    return CertificateAuthority("TestRoot CA", keys=KeyPair.generate(FAST_BITS))


@pytest.fixture
def clock() -> SimClock:
    return SimClock(EPOCH)


@pytest.fixture
def make_owner(clock):
    """Factory: a DocumentOwner with staged elements and fast keys.

    ``make_owner(name, {"index.html": b"..."} )`` — keys are fresh per
    call (each owner must have a unique OID).
    """

    def build(name: str = "vu.nl/test", elements=None) -> DocumentOwner:
        owner = DocumentOwner(name, keys=fast_keys(), clock=clock)
        staged = elements if elements is not None else {"index.html": b"<html>hi</html>"}
        for elem_name, content in staged.items():
            owner.put_element(PageElement(elem_name, content))
        return owner

    return build


@pytest.fixture(scope="session")
def bench_report():
    """``bench_report(name)``: the registered bench *name*'s report at
    seed 0 — the run the committed ``BENCH_*.json`` holds — run at most
    once per session (all five take a few seconds) and shared by every
    test that needs a real report. Treat the result as read-only:
    deep-copy before mutating.
    """
    from repro.harness.kernel import REGISTRY

    reports = {}

    def get(name: str):
        if name not in reports:
            reports[name] = REGISTRY[name].run(0)
        return reports[name]

    return get
