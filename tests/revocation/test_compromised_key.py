"""A compromised key means a new object, end to end.

The OID is the hash of the object key (§3.1), so an owner whose key
leaks revokes it and publishes the content again under a fresh key:

* **name-form URLs** follow the re-registered name to the new object;
* **OID URLs** minted before the revocation name the old key, and fail
  closed — 403 ``RevokedKeyError``, none of the object's bytes — even
  though the holder of the leaked key is still publishing.
"""

from __future__ import annotations

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.globedoc.urls import HybridUrl
from repro.harness.experiment import Testbed
from repro.revocation.statement import RevocationStatement
from tests.conftest import fast_keys

ELEMENTS = {"index.html": b"<html>the genuine page</html>"}
THIEF_PAGE = b"<html>the thief's page</html>"
CLIENT_HOST = "canardo.inria.fr"
MAX_STALENESS = 30.0  # polls at 15 s
VALIDITY = 7 * 24 * 3600.0


def owner_of(name, elements, keys=None, clock=None):
    owner = DocumentOwner(name, keys=keys or fast_keys(), clock=clock)
    for element, content in elements.items():
        owner.put_element(PageElement(element, content))
    return owner


def build_world():
    testbed = Testbed()
    owner = owner_of("vu.nl/leaked", ELEMENTS, clock=testbed.clock)
    testbed.publish(owner, validity=VALIDITY)
    return testbed, owner


def revoke(owner, clock) -> RevocationStatement:
    return RevocationStatement.revoke_key(
        owner.keys, owner.oid, serial=1, issued_at=clock.now(), reason="key leaked"
    )


class TestCompromisedKey:
    def test_name_urls_follow_the_republish(self):
        """The owner revokes the key and publishes the same content
        under a fresh one: the publish re-binds the name to the new OID."""
        testbed, owner = build_world()
        testbed.object_server.rpc_revocation_publish(revoke(owner, testbed.clock).to_dict())
        successor = owner_of(owner.name, ELEMENTS, clock=testbed.clock)
        testbed.publish(successor, validity=VALIDITY)

        stack = testbed.client_stack(
            CLIENT_HOST, revocation_max_staleness=MAX_STALENESS
        )
        response = stack.proxy.handle(HybridUrl.for_name(owner.name, "index.html").raw)
        assert response.ok and response.content == ELEMENTS["index.html"]
        assert stack.proxy.handle(HybridUrl.for_oid(successor.oid, "index.html").raw).ok

    def test_revoked_oid_url_fails_closed(self):
        """After the revocation, the old OID URL reaches nothing: not the
        replica the leaked key still serves (straight into the feed, so
        that server never tears it down, as an attacker's would not), and
        not the object the key's holder published since."""
        testbed, owner = build_world()
        stack = testbed.client_stack(
            CLIENT_HOST, revocation_max_staleness=MAX_STALENESS
        )
        old_url = HybridUrl.for_oid(owner.oid, "index.html").raw
        assert stack.proxy.handle(old_url).ok

        testbed.object_server.revocation_feed.publish(revoke(owner, testbed.clock))
        thief = owner_of("vu.nl/thief", {"index.html": THIEF_PAGE}, clock=testbed.clock)
        testbed.publish(thief, validity=VALIDITY)
        testbed.clock.advance(MAX_STALENESS / 2.0 + 1.0)

        warm = stack.proxy.handle(old_url)
        stack.proxy.drop_all_sessions()
        cold = stack.proxy.handle(old_url)
        for response in (warm, cold):
            assert response.status == 403
            assert response.security_failure == "RevokedKeyError"
            assert ELEMENTS["index.html"] not in response.content
            assert THIEF_PAGE not in response.content
