"""The attack matrix's worlds on the deployable stack's replica exchange."""

from __future__ import annotations

import pytest

import repro.attacks.scenarios as scenarios
from repro.harness.experiment import Testbed
from repro.server.localrep import ProxyLR


@pytest.fixture
def one_bind(monkeypatch):
    """Build every scenario world on a ``Testbed`` whose Fig. 3 walk is
    switched off, so each client reads a replica in one ``globedoc.bind``
    exchange. Returns the element names the LRs sent a bind for — the
    witness that the bundled path really ran."""
    sent = []

    def bundled_testbed(*args, **kwargs):
        testbed = Testbed(*args, **kwargs)
        testbed.fig3_walk = False
        return testbed

    bind = ProxyLR._bind

    def counted_bind(lr, name):
        sent.append(name)
        return bind(lr, name)

    monkeypatch.setattr(scenarios, "Testbed", bundled_testbed)
    monkeypatch.setattr(ProxyLR, "_bind", counted_bind)
    return sent
