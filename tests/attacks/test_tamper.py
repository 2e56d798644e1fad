"""Authenticity (§3.2.1): a tampering replica must be detected.

"No attacker or malicious server should be able to pass off one of
their own documents as being part of the object."
"""

from __future__ import annotations

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_server import HonestBehavior, TamperBehavior
from tests.attacks.conftest import ELEMENTS, assert_escaped, escaping_stack


class TestTamperDetection:
    def test_tampered_element_detected(self, deploy_malicious, rejecting_stack, victim):
        deploy_malicious(TamperBehavior("index.html", payload=b"<script>evil</script>"))
        probe = run_attack_probe(
            rejecting_stack.proxy, victim.url("index.html"), ELEMENTS["index.html"]
        )
        assert probe.outcome is AttackOutcome.DETECTED
        assert probe.failure_type == "AuthenticityError"
        assert b"Security Check Failed" in probe.response.content

    def test_tampered_element_escaped_with_rebinds(self, deploy_malicious, testbed, victim):
        """With rebinds the caught tamper costs one failover to the
        genuine VU replica, not the document."""
        deploy_malicious(TamperBehavior("index.html", payload=b"<script>evil</script>"))
        stack, ring = escaping_stack(testbed)
        probe = run_attack_probe(stack.proxy, victim.url("index.html"), ELEMENTS["index.html"])
        assert_escaped(probe, ring, "AuthenticityError")

    def test_untampered_element_from_same_replica_ok(
        self, deploy_malicious, paris_stack, victim
    ):
        """The attack targets one element; the other still verifies —
        detection is per element, not per replica."""
        deploy_malicious(TamperBehavior("index.html"))
        probe = run_attack_probe(
            paris_stack.proxy,
            victim.url("retraction.html"),
            ELEMENTS["retraction.html"],
        )
        assert probe.outcome is AttackOutcome.SERVED_GENUINE

    def test_honest_replica_control(self, deploy_malicious, paris_stack, victim):
        """Control: the honest behaviour on the same machinery serves
        genuine content (the detection is not a false positive)."""
        deploy_malicious(HonestBehavior())
        probe = run_attack_probe(
            paris_stack.proxy, victim.url("index.html"), ELEMENTS["index.html"]
        )
        assert probe.outcome is AttackOutcome.SERVED_GENUINE

    def test_client_far_from_attacker_unaffected(
        self, deploy_malicious, testbed, victim
    ):
        """The malicious replica is registered at the Paris site; an
        Amsterdam client's expanding ring finds the genuine VU replica
        first and never touches the attacker."""
        replica = deploy_malicious(TamperBehavior("index.html"))
        amsterdam = testbed.client_stack("sporty.cs.vu.nl")
        probe = run_attack_probe(
            amsterdam.proxy, victim.url("index.html"), ELEMENTS["index.html"]
        )
        assert probe.outcome is AttackOutcome.SERVED_GENUINE
        assert replica.requests_served == 0
