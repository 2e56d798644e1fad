"""Design-choice comparisons (``harness/design_choices.py``): each must
reproduce its design claim."""

from __future__ import annotations

import pytest

from repro.harness.design_choices import (
    compare_cert_caching,
    compare_cert_schemes,
    compare_content_cache,
    compare_freshness_granularity,
    compare_location_lookup,
    compare_replication_strategies,
    compare_server_signing,
    compare_ssl_reuse,
    measure_crypto_ops,
)


class TestCryptoOps:
    def test_verify_much_cheaper_than_decrypt(self):
        """§4: signature verification is 'much faster than the public key
        encrypt/decrypt operations required by SSL'."""
        costs = measure_crypto_ops(iterations=15)
        assert costs.rsa_decrypt > 3 * costs.verify
        assert costs.decrypt_over_verify > 3

    def test_sign_costlier_than_verify(self):
        costs = measure_crypto_ops(iterations=15)
        assert costs.sign > costs.verify

    def test_invalid_iterations(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            measure_crypto_ops(iterations=0)


class TestCertSchemes:
    @pytest.fixture(scope="class")
    def costs(self):
        return compare_cert_schemes(element_count=32, element_size=2048, repeats=2)

    def test_freshness_granularity(self, costs):
        """The qualitative difference §5 emphasises."""
        assert costs.globedoc_per_element_freshness
        assert not costs.merkle_per_element_freshness

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


class TestReplicationStrategies:
    def test_hotspot_beats_no_replication_on_a_flash_crowd(self):
        """§2 (ref [13]): the dynamic strategy cuts crowd latency and
        places replicas only when needed."""
        by_name = {r.strategy: r for r in compare_replication_strategies()}
        hotspot = by_name["hotspot"]
        assert hotspot.mean_latency < by_name["no-replication"].mean_latency / 2
        assert 0 < hotspot.placements <= 3


class TestFreshnessGranularity:
    def test_single_interval_revalidates_cold_content_at_the_hot_rate(self):
        """§5: per-element expiration dates are not possible with r-OSFS."""
        costs = compare_freshness_granularity(
            elements=20, hot_interval=60.0, cold_validity=3600.0, horizon=3600.0
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
