"""Design-choice comparisons (``harness/design_choices.py``): each must
reproduce its design claim."""

from __future__ import annotations

import pytest

from repro.harness.design_choices import (
    compare_cert_caching,
    compare_cert_schemes,
    compare_location_lookup,
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


class TestCertCaching:
    def test_caching_speeds_up_multielement_objects(self):
        costs = compare_cert_caching(client_label="Paris", repeats=2)
        assert costs.speedup > 1.3
        assert costs.cached_seconds < costs.uncached_seconds
