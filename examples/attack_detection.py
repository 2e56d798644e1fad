#!/usr/bin/env python3
"""The adversary matrix: every §3 attack against the security pipeline.

Deploys each malicious-replica behaviour (plus a lying location service
and a man-in-the-middle) against a published document and reports the
outcome per attack — the security-property table of DESIGN.md, executed.

Run: ``python examples/attack_detection.py``
"""

from __future__ import annotations

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_location import LyingLocationService
from repro.attacks.malicious_server import (
    ElementSwapBehavior,
    ElementSwapRenamedBehavior,
    ImpostorBehavior,
    MaliciousReplica,
    StaleReplayBehavior,
    TamperBehavior,
)
from repro.attacks.mitm import MitmTransport
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.harness.report import render_table

ATTACK_HOST = "canardo.inria.fr"


def fresh_world():
    """A testbed + published two-element document (v1 kept for replay)."""
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/news", clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>story v1</html>"))
    owner.put_element(PageElement("retraction.html", b"<html>retraction</html>"))
    v1 = owner.publish(validity=120.0)
    owner.put_element(PageElement("index.html", b"<html>story v2 corrected</html>"))
    published = testbed.publish(owner, validity=3600.0)
    return testbed, owner, v1, published


def deploy(testbed, published, behavior):
    replica = MaliciousReplica(
        host=ATTACK_HOST, document=published.document, behavior=behavior
    )
    testbed.install_replica(replica, published.oid_hex)
    return replica


def probe(testbed, published, element="index.html", genuine=None, max_rebinds=3):
    stack = testbed.client_stack(ATTACK_HOST, max_rebinds=max_rebinds)
    return run_attack_probe(stack.proxy, published.url(element), genuine)


def main() -> None:
    rows = []
    genuine_v2 = b"<html>story v2 corrected</html>"
    # Attacks 1-4 lie about one element: probed without failover, so each
    # row shows the check that rejects the lie. With rebinds the proxy
    # escapes to the genuine VU replica instead (DESIGN §4c).

    # 1. Content tampering (authenticity).
    testbed, owner, v1, published = fresh_world()
    deploy(testbed, published, TamperBehavior("index.html", b"<script>evil</script>"))
    result = probe(testbed, published, genuine=genuine_v2, max_rebinds=0)
    rows.append(["tampered element", "authenticity (hash)", result.outcome.value,
                 result.failure_type or "-"])

    # 2. Stale replay after expiry (freshness).
    testbed, owner, v1, published = fresh_world()
    deploy(testbed, published, StaleReplayBehavior(v1))
    testbed.clock.advance(121.0)
    result = probe(testbed, published, genuine=genuine_v2, max_rebinds=0)
    rows.append(["stale version replay", "freshness (expiry)", result.outcome.value,
                 result.failure_type or "-"])

    # 3. Element swap (consistency, name check).
    testbed, owner, v1, published = fresh_world()
    deploy(testbed, published, ElementSwapBehavior("index.html", "retraction.html"))
    result = probe(testbed, published, genuine=genuine_v2, max_rebinds=0)
    rows.append(["element swap", "consistency (name)", result.outcome.value,
                 result.failure_type or "-"])

    # 4. Renamed element swap (consistency defeated, hash catches it).
    testbed, owner, v1, published = fresh_world()
    deploy(testbed, published, ElementSwapRenamedBehavior("index.html", "retraction.html"))
    result = probe(testbed, published, genuine=genuine_v2, max_rebinds=0)
    rows.append(["renamed element swap", "authenticity (hash)", result.outcome.value,
                 result.failure_type or "-"])

    # 5. Impostor object via lying location service (secure naming).
    testbed, owner, v1, published = fresh_world()
    impostor_owner = DocumentOwner("evil.example/fake", clock=testbed.clock)
    impostor_owner.put_element(PageElement("index.html", b"<html>masquerade</html>"))
    impostor = deploy(testbed, published, ImpostorBehavior(impostor_owner.publish(validity=3600)))
    liar = LyingLocationService(testbed.location_service.tree)
    liar.lie_about(owner.oid.hex, [impostor.contact_address()], suppress_truth=True)
    testbed.network.register(testbed.location_endpoint, liar.rpc_server().handle_frame)
    result = probe(testbed, published, genuine=genuine_v2)
    rows.append(["lying location service", "self-certifying OID", result.outcome.value,
                 result.failure_type or "(DoS only)"])

    # 6. Man-in-the-middle content injection.
    testbed, owner, v1, published = fresh_world()
    inner = testbed.network.transport_for(ATTACK_HOST)
    mitm = MitmTransport(inner, MitmTransport.content_injector(b"<!-- pwn -->"))
    proxy = testbed.client_stack(ATTACK_HOST, transport=mitm).proxy
    result = run_attack_probe(proxy, published.url("index.html"), genuine_v2)
    rows.append(["man-in-the-middle", "authenticity (hash)", result.outcome.value,
                 result.failure_type or "-"])

    print("GlobeDoc adversary matrix (all replicas/infrastructure untrusted)\n")
    print(render_table(["Attack", "Defence (check)", "Outcome", "Error"], rows))

    succeeded = [r for r in rows if r[2] == AttackOutcome.SUCCEEDED.value]
    print(f"\nAttacks that slipped wrong bytes past the proxy: {len(succeeded)}")
    assert not succeeded, "an attack succeeded — the security pipeline is broken!"


if __name__ == "__main__":
    main()
