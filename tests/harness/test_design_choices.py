"""Design-choice comparisons (``harness/design_choices.py``): each must
reproduce its design claim. The committed design-choices table, Table 1,
Fig. 4–7 and the load study are the blocks a run prints. The replication-strategy claim is the flash-crowd study's
(``tests/harness/test_loadsim.py``)."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.harness.__main__ import main
from repro.harness.design_choices import (
    compare_cert_caching,
    compare_cert_schemes,
    compare_content_cache,
    compare_freshness_granularity,
    compare_location_lookup,
    compare_server_signing,
    compare_ssl_reuse,
    measure_crypto_ops,
    render_design_choices,
    run_design_choices,
)

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


class TestCryptoOps:
    @pytest.fixture(scope="class")
    def costs(self):
        return measure_crypto_ops()

    def test_verify_much_cheaper_than_decrypt(self, costs):
        """§4: signature verification is 'much faster than the public key
        encrypt/decrypt operations required by SSL'."""
        assert costs.rsa_decrypt > 3 * costs.verify
        assert costs.decrypt_over_verify > 3

    def test_sign_costlier_than_verify(self, costs):
        assert costs.sign > costs.verify


class TestCertSchemes:
    @pytest.fixture(scope="class")
    def costs(self):
        return compare_cert_schemes(element_count=32, element_size=2048)

    def test_merkle_proof_smaller_than_cert(self, costs):
        """r-OSFS's efficiency claim: per-fetch proof is O(log n) hashes,
        far below shipping the whole certificate table."""
        assert costs.merkle_proof_bytes < costs.globedoc_cert_bytes / 4

    def test_both_sign_costs_same_order(self, costs):
        """Both schemes hash all elements + one signature: within 10x."""
        ratio = costs.globedoc_sign_seconds / costs.merkle_build_sign_seconds
        assert 0.1 < ratio < 10.0


class TestLocationLookup:
    def test_local_replica_found_in_one_visit(self):
        costs = compare_location_lookup(fanout=4, depth=3, replicas=8)
        assert costs.ring_local_visits == 1.0

    def test_ring_beats_flat_for_local(self):
        costs = compare_location_lookup(fanout=4, depth=3, replicas=8)
        assert costs.ring_local_visits < costs.flat_visits

    def test_tree_stores_more_records(self):
        """The space/time trade: the tree keeps O(depth) records per
        replica, the flat directory one."""
        costs = compare_location_lookup()
        assert costs.tree_records > costs.flat_records

    def test_local_lookup_cost_flat_as_replicas_grow(self):
        """The property that makes the tree suitable for massive
        replication: a lookup at a replica site stays at one visit."""
        visits = [
            compare_location_lookup(fanout=4, depth=3, replicas=n).ring_local_visits
            for n in (2, 8, 32)
        ]
        assert visits[0] == visits[-1] == 1.0


class TestCertCaching:
    def test_caching_speeds_up_multielement_objects(self):
        costs = compare_cert_caching(client_label="Paris", repeats=2)
        assert costs.speedup > 1.3
        assert costs.cached_seconds < costs.uncached_seconds


class TestFreshnessGranularity:
    def test_single_interval_revalidates_cold_content_at_the_hot_rate(self):
        """§5: per-element expiration dates are not possible with r-OSFS."""
        costs = compare_freshness_granularity(
            hot_interval=60.0, cold_validity=3600.0, horizon=3600.0
        )
        assert costs.revalidation_ratio >= 10


class TestContentCache:
    def test_repeat_access_served_from_the_verified_cache(self):
        costs = compare_content_cache()
        assert costs.with_cache_seconds < costs.without_seconds / 10
        assert costs.hit_rate > 0.5


class TestSslReuse:
    def test_handshakes_dominate_the_ssl_series(self):
        costs = compare_ssl_reuse()
        assert costs.persistent_seconds < costs.per_request_seconds
        # the Fig. 6 ordering
        assert costs.globedoc_seconds < costs.per_request_seconds


class TestServerSigning:
    def test_gemini_signs_every_response_globedoc_replica_none(self):
        """§5: Gemini caches sign at serve time; a GlobeDoc replica
        holds no key — the owner signed offline."""
        counts = compare_server_signing(files=8)
        assert counts.responses == 8
        assert counts.gemini_signs >= counts.responses
        assert counts.globedoc_serving_signs == 0
        assert counts.globedoc_publish_signs >= 1


def committed_output(*sections: str) -> str:
    """The fenced ``text`` blocks of the EXPERIMENTS.md sections whose
    headings start with *sections*, in that order, as the CLI prints
    them: each artifact followed by one blank line."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    by_heading = {part.split("\n", 1)[0]: part for part in text.split("\n## ")}
    blocks = []
    for prefix in sections:
        (section,) = [body for head, body in by_heading.items() if head.startswith(prefix)]
        found = re.findall(r"```text\n(.*?)\n```", section, re.DOTALL)
        assert found, f"no committed block under {prefix!r}"
        blocks += found
    return "".join(block + "\n\n" for block in blocks)


#: The EXPERIMENTS.md sections ``python -m repro.harness all`` fills.
FIGURE_SECTIONS = ("Table 1", "Figure 4", "Figures 5–7")


def test_committed_table_is_the_run():
    """EXPERIMENTS.md § Ablations commits the table as one fenced block;
    nothing in it is timed, so a run must print it byte for byte."""
    assert committed_output("Ablations") == render_design_choices(run_design_choices()) + "\n\n"


def test_committed_figures_are_the_run(capsys):
    """Table 1 and Fig. 4–7 are committed as ``all --repeats 1`` prints them."""
    assert main(["all", "--repeats", "1"]) == 0
    assert capsys.readouterr().out == committed_output(*FIGURE_SECTIONS)


def test_committed_load_study_is_the_run(capsys):
    assert main(["loadtest"]) == 0
    assert capsys.readouterr().out == committed_output("Load study")
