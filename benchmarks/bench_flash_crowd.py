"""Load study — the §1 flash-crowd motivation, measured end to end.

Not a numbered figure in the paper, but the quantitative form of its
opening argument: a single hosting server cannot cope with a flash
crowd, and per-document dynamic replication onto (untrusted, verified)
hosts absorbs it. Runs the same crowd trace through the full stack with
and without the hotspot policy in the loop.
"""

from __future__ import annotations

from repro.harness.loadsim import CROWD_SITE, render_crowd_study, run_crowd_study


def test_flash_crowd_relief(benchmark):
    static, dynamic = benchmark.pedantic(run_crowd_study, rounds=1, iterations=1)
    print()
    print(render_crowd_study(static, dynamic))
    peak_static = static.latency_summary(site=CROWD_SITE, start=45.0, end=60.0).mean
    peak_dynamic = dynamic.latency_summary(site=CROWD_SITE, start=45.0, end=60.0).mean
    print(f"crowd-peak relief: {peak_static/peak_dynamic:.0f}x")
    assert peak_dynamic < peak_static / 2
    assert static.failures == dynamic.failures == 0  # verified throughout
