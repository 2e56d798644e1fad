#!/usr/bin/env python3
"""Publishing a whole website as GlobeDoc objects.

A conventional multi-page site (pages + images + inter-page links)
is imported into GlobeDoc: one object per page, site-absolute links
rewritten to ``globe://`` hybrid URLs (possible only after the OIDs
exist), identity certificates from a CA the users trust, and the whole
site browsed — following links — from another continent. Then the site
lives on: the same proxy passes a plain ``http://`` URL through, the
``vu.nl`` zone rolls its key over (resolution fails closed until the
parent re-delegates), and the owner revokes one element of one page.

Run: ``python examples/secure_publishing_workflow.py``
"""

from __future__ import annotations

from repro.crypto.identity import CertificateAuthority, TrustStore
from repro.crypto.keys import KeyPair
from repro.globedoc.element import PageElement
from repro.globedoc.links import extract_links, rewrite_links
from repro.globedoc.urls import HybridUrl
from repro.harness.experiment import Testbed
from repro.naming.zone import ZoneKeys
from repro.revocation.statement import RevocationStatement
from repro.workloads.generator import WebsiteSpec, make_website


def main() -> None:
    testbed = Testbed()

    # -- 1. Generate a conventional website ------------------------------
    spec = WebsiteSpec(
        site_name="vu.nl", pages=4, links_per_page=2, images_per_page=2, image_size=4096
    )
    owners = make_website(spec, seed=7, clock=testbed.clock)
    print(f"Generated site: {len(owners)} pages, "
          f"{sum(len(o.element_names()) for o in owners)} elements total")

    # -- 2. Rewrite site-absolute links to hybrid URLs --------------------
    # A link '/page2' refers to another *document*; once every page has
    # an owner (and thus an OID-bearing name), it becomes a globe:// URL.
    page_urls = {
        f"/page{i}": HybridUrl.for_name(owner.name, "index.html").raw
        for i, owner in enumerate(owners)
    }
    for owner in owners:
        html_element = owner._elements["index.html"]
        rewritten = rewrite_links(
            html_element.content.decode(), lambda target: page_urls.get(target)
        )
        owner.put_element(PageElement("index.html", rewritten.encode()))
    print("Rewrote inter-page links to globe:// hybrid URLs")

    # -- 3. Identity: a CA certifies every page object --------------------
    ca = CertificateAuthority("VU Campus CA")
    for owner in owners:
        owner.request_identity_certificate(ca)

    # -- 4. Publish all pages ---------------------------------------------
    published = [testbed.publish(owner, validity=24 * 3600) for owner in owners]
    print(f"Published {len(published)} GlobeDoc objects:")
    for pub in published:
        print(f"  {pub.name:18s} oid={pub.owner.oid.hex[:16]}… "
              f"{pub.document.total_size:6d} B")

    # -- 5. Browse from Ithaca, following links ---------------------------
    store = TrustStore()
    store.add_ca(ca)
    stack = testbed.client_stack(
        "ensamble02.cornell.edu", trust_store=store, revocation_max_staleness=60.0
    )

    visited = set()
    frontier = [published[0].url("index.html")]
    while frontier:
        url = frontier.pop()
        if url in visited:
            continue
        visited.add(url)
        response = stack.proxy.handle(url)
        assert response.ok, f"{url}: {response.status}"
        tag = f"[certified as: {response.certified_as}]" if response.certified_as else ""
        print(f"  fetched {url[:60]:60s} {len(response.content):6d} B {tag}")
        if response.content_type == "text/html":
            page = HybridUrl.parse(url)
            for link in extract_links(response.content.decode()):
                if link.is_globedoc:
                    frontier.append(link.target)
                elif link.is_relative:  # sibling element (an image)
                    frontier.append(page.sibling(link.target).raw)

    print(f"\nCrawled {len(visited)} verified URLs across "
          f"{stack.proxy.session_count} secure object bindings.")

    # -- 6. A plain Web URL passes through the same proxy, unverified ----
    plain = stack.proxy.handle(f"http://ginger.cs.vu.nl/{published[0].name}/index.html")
    print(f"\nPlain http:// pass-through: {plain.status}, {len(plain.content)} B, no checks")

    # -- 7. Zone key rollover: fail closed until the parent re-delegates -
    home = published[0].url("index.html")
    testbed.vu_zone.rotate_keys(ZoneKeys(zone="nl/vu", keys=KeyPair.generate(1024)))
    stack.resolver.flush_cache()
    stack.proxy.drop_all_sessions()
    gap = stack.proxy.handle(home)
    testbed.nl_zone.redelegate(testbed.vu_zone)
    stack.resolver.flush_cache()
    rolled = stack.proxy.handle(home)
    assert gap.status == 404 and rolled.ok, (gap.status, rolled.status)
    print(f"Zone key rollover: {gap.status} until re-delegated, then {rolled.status}")

    # -- 8. The owner revokes one element; the rest of the page stays ----
    owner, page = owners[0], published[0]
    image = next(name for name in owner.element_names() if name != "index.html")
    testbed.object_server.revocation_feed.publish(
        RevocationStatement.revoke_element(
            owner.keys, owner.oid, image, cert_version=page.document.version, serial=1,
            issued_at=testbed.clock.now(),
        )
    )
    testbed.clock.advance(61.0)  # past the client's revocation staleness
    revoked, kept = stack.proxy.handle(page.url(image)), stack.proxy.handle(home)
    assert revoked.security_failure == "RevokedElementError" and kept.ok
    print(f"Revoked {image}: {revoked.status} ({revoked.security_failure}); "
          f"index.html still {kept.status}")


if __name__ == "__main__":
    main()
