"""Load simulation: saturation under a flash crowd, relief with
dynamic replication — §1's motivation, measured."""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.harness.loadsim import LoadSimulator
from repro.replication.policy import RequestObservation
from repro.replication.strategies import HotspotReplication, NoReplication
from repro.workloads.trace import RequestEvent, TraceConfig, generate_trace, inject_flash_crowd
from tests.conftest import fast_keys

CROWD_SITE = "root/us/cornell"


def build_world(policy_factory):
    from repro.naming.records import OidRecord

    testbed = Testbed()
    owner = DocumentOwner("vu.nl/hot", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>hot page</html>" * 50))
    document = owner.publish(validity=7200)
    # Register naming only — the coordinator owns replica placement.
    testbed.object_server.keystore.authorize("owner", owner.public_key)
    testbed.naming.register(OidRecord(name=owner.name, oid=owner.oid))

    cornell = testbed.start_server("ensamble02.cornell.edu")
    cornell.keystore.authorize("owner", owner.public_key)
    coordinator = testbed.coordinator(owner)
    policy = policy_factory()
    coordinator.manage(owner, document, policy, home_site="root/europe/vu")
    return testbed, owner, coordinator


def crowd_trace(owner_name: str):
    config = TraceConfig(
        documents=(owner_name,),
        sites=("root/europe/vu", CROWD_SITE),
        duration=120.0,
        rate=0.2,
        seed=5,
    )
    return inject_flash_crowd(
        generate_trace(config),
        document=owner_name,
        site=CROWD_SITE,
        start=30.0,
        duration=30.0,
        rate=20.0,
        seed=6,
    )


def run_load(policy_factory):
    testbed, owner, coordinator = build_world(policy_factory)
    trace = crowd_trace(owner.name)
    simulator = LoadSimulator(
        testbed, url_of=lambda e: f"globe://{e.document}!/index.html"
    )

    def feedback(event: RequestEvent) -> None:
        coordinator.observe_request(
            owner.oid,
            RequestObservation(site=event.site, time=testbed.clock.now()),
        )

    report = simulator.run(trace, on_request=feedback)
    return report, coordinator, owner


class TestLoadSimulation:
    def test_all_requests_served_genuine(self):
        report, _, _ = run_load(NoReplication)
        assert report.count > 100
        assert report.failures == 0

    def test_crowd_saturates_single_server(self):
        """Without replication, crowd-phase latency at Cornell is far
        above the quiet-phase latency (queue build-up)."""
        report, _, _ = run_load(NoReplication)
        quiet = report.latency_summary(site=CROWD_SITE, start=0.0, end=30.0)
        crowd = report.latency_summary(site=CROWD_SITE, start=40.0, end=60.0)
        assert crowd.mean > 3 * quiet.mean
        assert report.max_wait > 0.5

    def test_hotspot_replication_relieves_crowd(self):
        """With the hotspot policy in the loop, the crowd triggers a
        local replica and late-crowd latency collapses."""
        report, coordinator, owner = run_load(
            lambda: HotspotReplication(create_rate=1.0, destroy_rate=0.01, window=15.0)
        )
        managed = coordinator.document(owner.oid)
        # The replica was pushed during the crowd (and legitimately
        # retired once the crowd subsided — dynamic in both directions).
        assert managed.placements >= 2
        assert managed.removals <= managed.placements - 1

        no_repl_report, _, _ = run_load(NoReplication)
        with_tail = report.latency_summary(site=CROWD_SITE, start=45.0, end=60.0)
        without_tail = no_repl_report.latency_summary(
            site=CROWD_SITE, start=45.0, end=60.0
        )
        assert with_tail.mean < without_tail.mean / 2

    def test_report_filters(self):
        report, _, _ = run_load(NoReplication)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            report.latency_summary(site="root/mars")
