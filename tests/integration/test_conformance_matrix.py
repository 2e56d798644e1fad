"""Adversarial conformance matrix: every tamper mode × cache state.

Each scenario violates one security property through a different attack
vector (MITM transport, malicious replica behaviour, lying location
service) and must be rejected by exactly the expected
:class:`~repro.errors.SecurityError` subclass — with **zero** attacker
bytes reaching the caller — both on a cold stack and with a warm
:class:`~repro.crypto.verifycache.VerificationCache` (the fast path
must never convert a cached verdict into a bypass).

The tracing layer is the second witness: the ``check.*`` span of the
responsible security check must close with error status and the same
exception type, proving the rejection happened at the check the paper's
§3.2.1 taxonomy assigns to that attack. A certificate whose ``"suite"``
tag names another hash never reaches a check: it is malformed, and
``session.establish`` closes with the error.

Every cell runs twice: on the paper's Fig. 3 walk (one call per key,
certificate and element) and on the deployable stack's one
``globedoc.bind`` exchange, which must not change a single verdict.

The matrix itself lives in :mod:`repro.attacks.scenarios` so
``test_pipeline_conformance.py`` can replay the identical scenarios with
the pipeline enabled; this module is the pytest harness over it, and the
only judge of the sequential matrix.
"""

from __future__ import annotations

import pytest

from repro.attacks.scenarios import SCENARIOS, Scenario, run_scenario
from tests.conftest import fast_keys


def assert_rejected(result: dict, scenario: Scenario, warm: bool) -> None:
    assert result["detected"], (
        f"{scenario.id}/{'warm' if warm else 'cold'}: expected detection"
    )
    assert result["failure_type"] == scenario.expected_error
    # Zero unverified bytes: the caller sees only the failure page.
    assert not result["unverified_bytes_leaked"]
    assert result["span_ok"], (
        f"{scenario.id}: no error span named {scenario.expected_span!r} "
        f"closing with {scenario.expected_error}"
    )
    assert result["ok"]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.id)
class TestConformanceMatrix:
    def test_rejected_by_expected_check(self, scenario: Scenario, warm: bool):
        assert_rejected(run_scenario(scenario, warm, key_factory=fast_keys), scenario, warm)

    def test_rejected_by_the_same_check_through_one_bind(
        self, scenario: Scenario, warm: bool, one_bind
    ):
        """The deployable stack reads key, certificate and element in
        one ``globedoc.bind``: the same check rejects the same lie, with
        the same error, and no byte of the bundle is served."""
        assert_rejected(run_scenario(scenario, warm, key_factory=fast_keys), scenario, warm)
        assert one_bind
