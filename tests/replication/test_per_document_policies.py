"""Per-document strategies side by side (§2): "GlobeDoc allows
replication of Web documents without imposing any single global
replication policy on all documents." One coordinator, two documents,
two different policies — each behaves per its own policy."""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.naming.records import OidRecord
from repro.replication.policy import RequestObservation
from repro.replication.strategies import HotspotReplication, NoReplication
from tests.conftest import fast_keys

REMOTE_SITE = "root/us/cornell"
REMOTE_HOST = "ensamble02.cornell.edu"


@pytest.fixture
def world():
    testbed = Testbed()

    def make_doc(name):
        owner = DocumentOwner(name, keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", f"<html>{name}</html>".encode()))
        document = owner.publish(validity=3600)
        testbed.object_server.keystore.authorize(name, owner.public_key)
        testbed.naming.register(OidRecord(name=name, oid=owner.oid))
        return owner, document

    static_owner, static_doc = make_doc("vu.nl/archive-page")
    hot_owner, hot_doc = make_doc("vu.nl/breaking-news")

    remote = testbed.start_server(REMOTE_HOST)
    # Admin placement is authenticated per owner key, so each document
    # gets its own coordinator (as each owner would run in practice).
    coordinators = {}
    for owner in (static_owner, hot_owner):
        remote.keystore.authorize(owner.name, owner.public_key)
        coordinators[owner.name] = testbed.coordinator(owner)

    coordinators[static_owner.name].manage(
        static_owner, static_doc, NoReplication(), home_site="root/europe/vu"
    )
    coordinators[hot_owner.name].manage(
        hot_owner,
        hot_doc,
        HotspotReplication(create_rate=1.0, destroy_rate=0.05, window=10.0),
        home_site="root/europe/vu",
    )
    return testbed, remote, static_owner, hot_owner, coordinators


class TestPerDocumentPolicies:
    def test_same_traffic_different_outcomes(self, world):
        """Identical Cornell traffic hits both documents; only the one
        with the hotspot policy grows a replica there."""
        testbed, remote, static_owner, hot_owner, coordinators = world
        for i in range(15):
            now = testbed.clock.now()
            for owner in (static_owner, hot_owner):
                coordinators[owner.name].observe_request(
                    owner.oid, RequestObservation(site=REMOTE_SITE, time=now)
                )
            testbed.clock.advance(0.3)

        assert remote.hosts_oid(hot_owner.oid.hex)
        assert not remote.hosts_oid(static_owner.oid.hex)

    def test_both_documents_still_verified_everywhere(self, world):
        testbed, remote, static_owner, hot_owner, coordinators = world
        for i in range(15):
            now = testbed.clock.now()
            coordinators[hot_owner.name].observe_request(
                hot_owner.oid, RequestObservation(site=REMOTE_SITE, time=now)
            )
            testbed.clock.advance(0.3)
        stack = testbed.client_stack(REMOTE_HOST)
        for owner in (static_owner, hot_owner):
            response = stack.proxy.handle(f"globe://{owner.name}!/index.html")
            assert response.ok
            assert owner.name.encode() in response.content
