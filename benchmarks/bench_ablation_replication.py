"""Ablation — per-document replication strategies (§2, ref [13]).

Replays a flash-crowd trace under every catalogue strategy. The claim:
the dynamic hotspot strategy slashes client latency during the crowd at
a bounded replica-seconds cost, while static choices either pay WAN
latency for every crowd request (no-replication) or replica costs
everywhere forever (static-everywhere).
"""

from __future__ import annotations

from repro.harness.design_choices import compare_replication_strategies
from repro.harness.report import render_table


def test_strategy_comparison(benchmark):
    results = benchmark.pedantic(
        compare_replication_strategies, rounds=1, iterations=1
    )
    print()
    print("Ablation — replication strategies on a flash-crowd trace")
    print(
        render_table(
            ["Strategy", "Mean latency", "Total latency", "Replica-seconds", "Placements"],
            [
                [
                    r.strategy,
                    f"{r.mean_latency*1e3:.1f} ms",
                    f"{r.total_latency:.1f} s",
                    f"{r.replica_seconds:.0f}",
                    str(r.placements),
                ]
                for r in results
            ],
        )
    )
    by_name = {r.strategy: r for r in results}
    # Hotspot beats no-replication on latency during the crowd.
    assert by_name["hotspot"].mean_latency < by_name["no-replication"].mean_latency / 2
    # And places replicas only when needed.
    assert 0 < by_name["hotspot"].placements <= 3
