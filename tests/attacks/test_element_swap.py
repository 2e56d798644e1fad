"""Consistency (§3.2.1): answering a request with a *different* genuine,
fresh element must be detected.

"No attacker or malicious server should be able to replace the requested
document with another fresh document part of the same object."
"""

from __future__ import annotations

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_server import (
    ElementSwapBehavior,
    ElementSwapRenamedBehavior,
)
from tests.attacks.conftest import ELEMENTS, assert_escaped, escaping_stack


class TestElementSwap:
    def test_naive_swap_detected_by_name_check(
        self, deploy_malicious, rejecting_stack, victim
    ):
        """Serving retraction.html verbatim for index.html trips the
        consistency (name) check."""
        deploy_malicious(ElementSwapBehavior("index.html", "retraction.html"))
        probe = run_attack_probe(
            rejecting_stack.proxy, victim.url("index.html"), ELEMENTS["index.html"]
        )
        assert probe.outcome is AttackOutcome.DETECTED
        assert probe.failure_type == "ConsistencyError"

    def test_naive_swap_escaped_with_rebinds(self, deploy_malicious, testbed, victim):
        deploy_malicious(ElementSwapBehavior("index.html", "retraction.html"))
        stack, ring = escaping_stack(testbed)
        probe = run_attack_probe(stack.proxy, victim.url("index.html"), ELEMENTS["index.html"])
        assert_escaped(probe, ring, "ConsistencyError")

    def test_renamed_swap_detected_by_hash_check(
        self, deploy_malicious, rejecting_stack, victim
    ):
        """A smarter attacker relabels the swapped element with the
        requested name — the name check passes, but the per-element hash
        in the certificate catches it. The checks are independently
        load-bearing."""
        deploy_malicious(ElementSwapRenamedBehavior("index.html", "retraction.html"))
        probe = run_attack_probe(
            rejecting_stack.proxy, victim.url("index.html"), ELEMENTS["index.html"]
        )
        assert probe.outcome is AttackOutcome.DETECTED
        assert probe.failure_type == "AuthenticityError"

    def test_renamed_swap_escaped_with_rebinds(self, deploy_malicious, testbed, victim):
        deploy_malicious(ElementSwapRenamedBehavior("index.html", "retraction.html"))
        stack, ring = escaping_stack(testbed)
        probe = run_attack_probe(stack.proxy, victim.url("index.html"), ELEMENTS["index.html"])
        assert_escaped(probe, ring, "AuthenticityError")

    def test_swap_target_itself_still_served(
        self, deploy_malicious, paris_stack, victim
    ):
        deploy_malicious(ElementSwapBehavior("index.html", "retraction.html"))
        probe = run_attack_probe(
            paris_stack.proxy,
            victim.url("retraction.html"),
            ELEMENTS["retraction.html"],
        )
        assert probe.outcome is AttackOutcome.SERVED_GENUINE
