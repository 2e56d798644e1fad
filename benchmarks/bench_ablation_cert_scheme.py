"""Ablation — flat integrity certificate vs r-OSFS Merkle tree (§5).

GlobeDoc signs a per-element table (per-element freshness, bigger
metadata); r-OSFS signs one Merkle root (tiny per-fetch proofs, one
global freshness interval).
"""

from __future__ import annotations

from repro.harness.design_choices import compare_cert_schemes
from repro.harness.report import render_table


def test_cert_scheme_costs(benchmark):
    costs = benchmark.pedantic(
        lambda: compare_cert_schemes(element_count=64, element_size=4096, repeats=3),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"Ablation — certificate scheme, {costs.element_count} elements")
    print(
        render_table(
            ["Metric", "GlobeDoc cert", "r-OSFS Merkle"],
            [
                [
                    "full sign",
                    f"{costs.globedoc_sign_seconds*1e3:.2f} ms",
                    f"{costs.merkle_build_sign_seconds*1e3:.2f} ms",
                ],
                [
                    "1-element update",
                    f"{costs.globedoc_update_one_seconds*1e3:.2f} ms",
                    f"{costs.merkle_update_one_seconds*1e3:.2f} ms",
                ],
                [
                    "per-fetch metadata",
                    f"{costs.globedoc_cert_bytes} B (once/binding)",
                    f"{costs.merkle_proof_bytes} B (per element)",
                ],
                [
                    "per-element freshness",
                    str(costs.globedoc_per_element_freshness),
                    str(costs.merkle_per_element_freshness),
                ],
            ],
        )
    )
    assert costs.merkle_proof_bytes < costs.globedoc_cert_bytes
    assert costs.globedoc_per_element_freshness and not costs.merkle_per_element_freshness
