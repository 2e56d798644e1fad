"""The conformance matrix under the concurrent access pipeline.

The batched pipeline prefetches RPC responses, reuses verification
verdicts across a batch, and coalesces identical requests — three fast
paths, three new chances to serve unverified bytes. This suite replays
the *identical* adversarial matrix with the pipeline enabled and
demands the identical outcome: every tamper mode rejected by the exact
expected :class:`~repro.errors.SecurityError` subclass, zero attacker
bytes delivered, the responsible ``check.*`` span closing with that
error — cold and with a warm :class:`VerificationCache`, on the Fig. 3
walk and on the one ``globedoc.bind`` exchange.

Prefetched bytes are parked *unverified* and replayed through the full
sequential check pipeline, so detection must be byte-for-byte identical
to the sequential path; these tests are the proof.
"""

from __future__ import annotations

import pytest

from repro.attacks.scenarios import SCENARIOS, Scenario, run_scenario
from repro.proxy.pipeline import PipelineConfig
from tests.conftest import fast_keys
from tests.integration.test_conformance_matrix import assert_rejected


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.id)
class TestPipelinedConformanceMatrix:
    def test_rejected_by_expected_check(self, scenario: Scenario, warm: bool):
        result = run_scenario(
            scenario, warm, key_factory=fast_keys, pipeline=PipelineConfig()
        )
        assert result["pipelined"]
        assert_rejected(result, scenario, warm)

    def test_rejected_by_the_same_check_through_one_bind(
        self, scenario: Scenario, warm: bool, one_bind
    ):
        """The fetch wave prefetches one ``globedoc.bind`` per object:
        the parked bundle fails the same check, with the same error."""
        result = run_scenario(
            scenario, warm, key_factory=fast_keys, pipeline=PipelineConfig()
        )
        assert result["pipelined"]
        assert_rejected(result, scenario, warm)
        assert one_bind


def test_pipeline_batch_rejects_only_tampered_element():
    """A batch mixing honest and tampered objects: the honest URLs are
    served verified, the tampered one is rejected — per-element checks
    survive batching."""
    batch_with_one_tampered_element()


def test_pipeline_batch_rejects_only_the_tampered_element_of_a_bind(one_bind):
    """The same batch when the tampered element came inside the bind
    that carried the key and the certificate: the rejection drops the
    binding, so the other element's access binds again, and is served."""
    batch_with_one_tampered_element()
    assert one_bind == ["index.html", "retraction.html"]


def batch_with_one_tampered_element() -> None:
    from repro.attacks.malicious_server import TamperBehavior
    from repro.attacks.scenarios import ELEMENTS, EVIL_MARKER, build_world

    world = build_world(key_factory=fast_keys, pipeline=PipelineConfig())
    world.deploy_replica(TamperBehavior(target="index.html", payload=EVIL_MARKER))

    index_url = world.published.url("index.html")
    retraction_url = world.published.url("retraction.html")
    responses = world.stack.proxy.handle_many([index_url, retraction_url])

    tampered, honest = responses
    assert tampered.status == 403 and tampered.security_failure
    assert EVIL_MARKER not in tampered.content
    assert honest.status == 200
    assert honest.content == ELEMENTS["retraction.html"]
