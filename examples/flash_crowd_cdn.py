#!/usr/bin/env python3
"""Flash crowd on a peer-to-peer CDN: dynamic replication.

The paper's motivating scenario (§1): a document suddenly becomes very
popular at a remote site. This example drives a request trace with an
injected flash crowd through the hotspot replication policy, placing
replicas via the authenticated admin interface, and reports how
client-perceived latency at the crowded site evolves.

Run: ``python examples/flash_crowd_cdn.py``
"""

from __future__ import annotations

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.replication.policy import RequestObservation
from repro.replication.strategies import HotspotReplication
from repro.workloads.trace import TraceConfig, generate_trace, inject_flash_crowd

CROWD_SITE = "root/us/cornell"
CROWD_HOST = "ensamble02.cornell.edu"


def site_fetch_time(testbed, site_host: str, url: str) -> float:
    stack = testbed.client_stack(site_host, location_ttl=1.0)
    start = testbed.clock.now()
    response = stack.proxy.handle(url)
    assert response.ok, response.status
    return testbed.clock.now() - start


def main() -> None:
    testbed = Testbed()

    # Publish the soon-to-be-viral document at the VU home site.
    owner = DocumentOwner("vu.nl/viral-story", clock=testbed.clock)
    owner.put_element(
        PageElement("index.html", b"<html><h1>Breaking story</h1></html>" + b"." * 8000)
    )
    published = testbed.publish(owner)
    url = published.url("index.html")

    print("Before the crowd, a Cornell access costs "
          f"{site_fetch_time(testbed, CROWD_HOST, url)*1000:.0f} ms (transatlantic)")

    # A background trace plus a flash crowd from Cornell.
    trace = inject_flash_crowd(
        generate_trace(
            TraceConfig(
                documents=(owner.name,),
                sites=("root/europe/vu", "root/europe/inria", CROWD_SITE),
                duration=300.0,
                rate=0.5,
                seed=42,
            )
        ),
        document=owner.name,
        site=CROWD_SITE,
        start=60.0,
        duration=60.0,
        rate=10.0,
        seed=43,
    )
    print(f"Trace: {len(trace)} requests over 300 s "
          f"(crowd of ~600 between t=60 s and t=120 s)")

    policy = HotspotReplication(create_rate=1.0, destroy_rate=0.05, window=30.0)
    current_sites = ["root/europe/vu"]
    placed_at = None

    base_time = testbed.clock.now()
    for event in trace:
        now = base_time + event.time
        if now > testbed.clock.now():
            testbed.clock.advance_to(now)
        for action in policy.on_request(
            RequestObservation(site=event.site, time=now), current_sites
        ):
            if action.kind.value == "create" and action.site == CROWD_SITE:
                testbed.add_replica(published, CROWD_HOST, CROWD_SITE)
                current_sites.append(CROWD_SITE)
                placed_at = event.time
                print(f"  t={event.time:6.1f}s  replica pushed to {CROWD_SITE} "
                      f"(signed state, authenticated admin channel)")

    assert placed_at is not None, "the crowd never triggered replication"
    after = site_fetch_time(testbed, CROWD_HOST, url)
    print(f"\nAfter replication, a Cornell access costs {after*1000:.0f} ms (local replica)")
    print("Every byte served by the new replica is still verified against")
    print("the owner's integrity certificate — the CDN host needs no trust.")


if __name__ == "__main__":
    main()
