"""Freshness (§3.2.1): replaying a genuine-but-old version must fail
once its validity interval lapses.

"No attacker or malicious server should be able to pass off genuine but
old versions of a document and convince the client they are fresh."
"""

from __future__ import annotations

import pytest

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_server import StaleReplayBehavior
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from tests.attacks.conftest import assert_escaped, escaping_stack
from tests.conftest import fast_keys


@pytest.fixture
def stale_setup(testbed):
    """Publish v1 with a short validity, then v2; attacker replays v1."""
    owner = DocumentOwner("vu.nl/news", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>old story v1</html>"))
    v1 = owner.publish(validity=300.0)

    owner.put_element(PageElement("index.html", b"<html>corrected story v2</html>"))
    published = testbed.publish(owner, validity=3600.0)  # v2 goes live
    return owner, v1, published


class TestStaleReplay:
    def test_stale_version_within_validity_is_undetectable(
        self, testbed, stale_setup, deploy_malicious_for
    ):
        """Inside v1's validity window the replay is *by design*
        indistinguishable from slow propagation — freshness is exactly
        as strong as the owner's chosen interval."""
        owner, v1, published = stale_setup
        deploy_malicious_for(published, StaleReplayBehavior(v1))
        stack = testbed.client_stack("canardo.inria.fr")
        probe = run_attack_probe(stack.proxy, published.url("index.html"), None)
        assert probe.response.ok
        assert probe.response.content == b"<html>old story v1</html>"

    def test_stale_version_detected_after_expiry(
        self, testbed, stale_setup, deploy_malicious_for
    ):
        owner, v1, published = stale_setup
        deploy_malicious_for(published, StaleReplayBehavior(v1))
        testbed.clock.advance(301.0)  # v1's interval lapses; v2 still valid
        stack = testbed.client_stack("canardo.inria.fr", max_rebinds=0)
        probe = run_attack_probe(
            stack.proxy, published.url("index.html"), b"<html>corrected story v2</html>"
        )
        assert probe.outcome is AttackOutcome.DETECTED
        assert probe.failure_type == "FreshnessError"

    def test_stale_version_escaped_with_rebinds(
        self, testbed, stale_setup, deploy_malicious_for
    ):
        """Once v1 lapses, the replay costs one failover to the replica
        serving v2."""
        owner, v1, published = stale_setup
        deploy_malicious_for(published, StaleReplayBehavior(v1))
        testbed.clock.advance(301.0)
        stack, ring = escaping_stack(testbed)
        probe = run_attack_probe(
            stack.proxy, published.url("index.html"), b"<html>corrected story v2</html>"
        )
        assert_escaped(probe, ring, "FreshnessError")

    def test_genuine_replica_still_fresh_after_v1_expiry(
        self, testbed, stale_setup
    ):
        _, _, published = stale_setup
        testbed.clock.advance(301.0)
        stack = testbed.client_stack("sporty.cs.vu.nl")
        probe = run_attack_probe(
            stack.proxy, published.url("index.html"), b"<html>corrected story v2</html>"
        )
        assert probe.outcome is AttackOutcome.SERVED_GENUINE


@pytest.fixture
def deploy_malicious_for(testbed):
    """Like deploy_malicious but for an explicitly provided document."""
    from repro.attacks.malicious_server import MaliciousReplica
    from repro.net.address import Endpoint

    def deploy(published, behavior, host="canardo.inria.fr", site="root/europe/inria"):
        replica = MaliciousReplica(
            host=host, document=published.document, behavior=behavior
        )
        testbed.network.register(
            Endpoint(host, "objectserver"), replica.rpc_server().handle_frame
        )
        testbed.location_service.tree.insert(
            published.owner.oid.hex, site, replica.contact_address()
        )
        return replica

    return deploy
