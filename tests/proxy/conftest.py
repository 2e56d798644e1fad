"""Proxy test wiring: a module-scoped testbed with one published doc."""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.obs import RingBufferSink, Tracer
from tests.conftest import fast_keys

ELEMENTS = {
    "index.html": b"<html><a href='img/logo.png'>hi</a></html>",
    "img/logo.png": b"\x89PNG-logo-bytes",
}


@pytest.fixture(scope="module")
def testbed():
    return Testbed()


@pytest.fixture(scope="module")
def published(testbed):
    owner = DocumentOwner("vu.nl/research", keys=fast_keys(), clock=testbed.clock)
    for name, content in ELEMENTS.items():
        owner.put_element(PageElement(name, content))
    return testbed.publish(owner, validity=3600)


@pytest.fixture
def ring():
    """Where the ``stack`` fixture's spans land: phase assertions read
    ``AccessMetrics.from_spans(ring.spans)``."""
    return RingBufferSink()


@pytest.fixture
def stack(testbed, published, ring):
    return testbed.client_stack(
        "canardo.inria.fr", tracer=Tracer(clock=testbed.clock, sinks=(ring,))
    )
