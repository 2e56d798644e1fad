"""Ablation — per-element freshness vs one global interval (§5).

"The GlobeDoc security architecture uses per page-element expiration
dates, which allow owners to set per page-element freshness constraints
(which is not possible with r-OSFS)." With one hot element and many
cold ones, r-OSFS clients must re-validate *everything* at the hot rate.
"""

from __future__ import annotations

from repro.harness.design_choices import compare_freshness_granularity
from repro.harness.report import render_table


def test_freshness_granularity(benchmark):
    costs = benchmark.pedantic(
        lambda: compare_freshness_granularity(
            elements=20, hot_interval=60.0, cold_validity=3600.0, horizon=3600.0
        ),
        rounds=3,
        iterations=1,
    )
    print()
    print(
        f"Ablation — freshness granularity ({costs.elements} elements, "
        f"1 hot @ 60 s, cold valid 3600 s, 1 h horizon)"
    )
    print(
        render_table(
            ["Metric", "GlobeDoc (per-element)", "r-OSFS (global)"],
            [
                [
                    "cold-element re-validations / h",
                    str(costs.globedoc_cold_revalidations),
                    str(costs.rosfs_cold_revalidations),
                ],
                [
                    "client refresh traffic / h",
                    f"{costs.globedoc_refresh_bytes/1024:.0f} KB",
                    f"{costs.rosfs_refresh_bytes/1024:.0f} KB",
                ],
                ["owner signings / h", str(costs.owner_signs), str(costs.owner_signs)],
            ],
        )
    )
    print(f"re-validation ratio: {costs.revalidation_ratio:.0f}x")
    assert costs.revalidation_ratio >= 10
