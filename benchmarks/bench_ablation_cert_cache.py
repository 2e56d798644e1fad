"""Ablation — integrity-certificate caching in the proxy (§4).

Fig. 4 attributes the small-object overhead to the ~2 KB key+certificate
prefetch. Caching the verified binding amortises it across a
multi-element object; this bench measures the 11-element object with the
binding cached vs re-established per element.
"""

from __future__ import annotations

from repro.harness.design_choices import compare_cert_caching
from repro.harness.report import render_table


def test_cert_cache_speedup(benchmark):
    costs = benchmark.pedantic(
        lambda: compare_cert_caching(client_label="Paris", repeats=3),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"Ablation — binding cache, {costs.object_label}, {costs.client} client")
    print(
        render_table(
            ["Mode", "Whole-object retrieval"],
            [
                ["binding cached (default)", f"{costs.cached_seconds*1e3:.1f} ms"],
                ["key+cert per element", f"{costs.uncached_seconds*1e3:.1f} ms"],
            ],
        )
    )
    print(f"speedup from caching: {costs.speedup:.2f}x")
    assert costs.speedup > 1.3
