#!/usr/bin/env python3
"""Quickstart: publish a secure Web document and browse it.

Walks the full GlobeDoc lifecycle on the paper's simulated four-host
testbed:

1. an owner creates a document (key pair → self-certifying OID),
2. signs and publishes it (replica + naming + location registration),
3. a client in Paris browses it through the secure proxy,
4. the access's timing decomposition (the paper's Fig. 4 metric) is
   derived from the spans the proxy emitted,
5. a tampering replica is demonstrated to be detected.

Run: ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro.attacks.malicious_server import MaliciousReplica, TamperBehavior
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.obs import RingBufferSink, Tracer


def main() -> None:
    # -- 1. The testbed: Table 1's four hosts on a simulated WAN --------
    testbed = Testbed()
    print("Testbed hosts:", ", ".join(testbed.network.host_names))

    # -- 2. Owner side: create, fill, publish ---------------------------
    owner = DocumentOwner("vu.nl/research/report", clock=testbed.clock)
    owner.put_element(
        PageElement(
            "index.html",
            b"<html><body><h1>Research Report</h1>"
            b'<img src="img/figure1.png"></body></html>',
        )
    )
    owner.put_element(PageElement("img/figure1.png", b"\x89PNG..." * 200))
    published = testbed.publish(owner, validity=3600)
    print(f"\nPublished {owner.name!r}")
    print(f"  self-certifying OID: {owner.oid.hex}")
    print(f"  integrity certificate: {published.document.integrity.wire_size} bytes, "
          f"{len(published.document.elements)} elements, version {published.document.version}")

    # -- 3. Client side: secure browsing from Paris ---------------------
    # Pass a tracer: every phase of the access closes a span into `sink`.
    sink = RingBufferSink()
    stack = testbed.client_stack(
        "canardo.inria.fr", tracer=Tracer(clock=testbed.clock, sinks=(sink,))
    )
    url = published.url("index.html")
    print(f"\nParis client requests {url}")
    # measured_access = proxy.handle(url) + AccessMetrics.from_spans(sink.spans)
    response, metrics = testbed.measured_access(stack.proxy, url, sink)
    assert response.ok
    print(f"  -> {response.status}, {len(response.content)} bytes, verified")

    # -- 4. The Fig. 4 decomposition ------------------------------------
    print("\nAccess timing decomposition:")
    for phase, seconds in metrics.phases:
        print(f"  {phase:28s} {seconds*1000:8.3f} ms")
    print(f"  {'TOTAL':28s} {metrics.total*1000:8.3f} ms")
    print(f"  security overhead: {metrics.overhead_percent:.1f}%")

    # -- 5. Attack demo: a tampering replica is detected ----------------
    evil = MaliciousReplica(
        host="canardo.inria.fr",
        document=published.document,
        behavior=TamperBehavior("index.html", payload=b"<script>steal()</script>"),
    )
    testbed.install_replica(evil, owner.oid.hex)
    victim_stack = testbed.client_stack("canardo.inria.fr")
    attacked = victim_stack.proxy.handle(url)
    print(f"\nTampering replica deployed at the client's own site:")
    print(f"  -> HTTP {attacked.status}"
          + (f" ({attacked.security_failure})" if attacked.security_failure else ""))
    if attacked.ok:
        # Failover found the genuine Amsterdam replica.
        print("  -> failover served the GENUINE content "
              f"({len(attacked.content)} bytes match: {attacked.content == response.content})")
    print("\nDone — see examples/attack_detection.py for the full adversary matrix.")


if __name__ == "__main__":
    main()
