"""Ablation — expanding-ring location lookup vs flat directory (§2.1.2).

The design claim: lookups for nearby replicas touch O(1) nodes while a
flat directory scales with the replica list, at the cost of O(depth)
records per replica in the tree.
"""

from __future__ import annotations

from repro.harness.design_choices import compare_location_lookup
from repro.harness.report import render_table


def test_location_lookup_costs(benchmark):
    costs = benchmark.pedantic(
        lambda: compare_location_lookup(fanout=4, depth=3, replicas=8),
        rounds=3,
        iterations=1,
    )
    print()
    print(f"Ablation — location lookup, {costs.sites} sites, {costs.replicas} replicas")
    print(
        render_table(
            ["Metric", "Expanding ring", "Flat directory"],
            [
                ["lookup @ replica site", f"{costs.ring_local_visits:.0f} visits", f"{costs.flat_visits:.0f} visits"],
                ["lookup far away", f"{costs.ring_remote_visits:.0f} visits", f"{costs.flat_visits:.0f} visits"],
                ["records stored", str(costs.tree_records), str(costs.flat_records)],
            ],
        )
    )
    assert costs.ring_local_visits < costs.flat_visits


def test_lookup_scaling_with_replicas(benchmark):
    """Local-ring lookup cost stays flat as the replica count grows —
    the property that makes the tree suitable for massive replication."""

    def sweep():
        return [
            compare_location_lookup(fanout=4, depth=3, replicas=n).ring_local_visits
            for n in (2, 8, 32)
        ]

    visits = benchmark.pedantic(sweep, rounds=2, iterations=1)
    print()
    print("Local lookup visits for 2/8/32 replicas:", visits)
    assert visits[0] == visits[-1] == 1.0
