"""The security-pipeline bench, on the session's shared run.

The fast path's two contracts (a warm certificate verification at least
``WARM_SPEEDUP_TARGET`` times faster than a cold one; the fast path
never slower than the uncached baseline), and what the concurrency
section counts but does not gate: every access of either mode served,
with the owner's bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.kernel import write_envelope
from repro.harness.security_bench import TARGET, WARM_SPEEDUP_TARGET, criteria


@pytest.fixture(scope="module")
def report(bench_report):
    return bench_report("bench-security")


@pytest.fixture(scope="module")
def gates(report):
    return {c.name: c for c in criteria(report)}


def test_report_structure(report):
    assert set(report) == {"pipeline", "concurrency"}
    assert set(report["pipeline"]) >= {"baseline", "fastpath", "warm", "accesses"}
    assert set(report["concurrency"]) >= {
        "sequential", "pipelined", "throughput_multiple", "unverified_responses",
    }


def test_warm_verification_meets_speedup_target(gates):
    warm = gates["warm_speedup"]
    assert warm.threshold == WARM_SPEEDUP_TARGET
    assert warm.ok and warm.value >= WARM_SPEEDUP_TARGET, warm.message


def test_fastpath_never_slower_than_baseline(gates):
    fastpath = gates["fastpath_not_slower"]
    assert fastpath.ok, (
        f"fast-path run slower than uncached baseline: "
        f"{fastpath.value:.2f} ms vs {fastpath.threshold:.2f} ms per access"
    )


def test_fastpath_counters_flow_into_report(report):
    pipeline = report["pipeline"]
    # Baseline has no verification cache: no hits.
    assert pipeline["baseline"]["verify_hits"] == 0
    # Fast path: the first access misses, the rest hit.
    fast = pipeline["fastpath"]
    assert fast["verify_misses"] >= 1
    assert fast["verify_hits"] >= pipeline["accesses"] - 1


def test_report_round_trips_as_json(report, gates, tmp_path):
    out = tmp_path / "bench.json"
    write_envelope(out, TARGET, report, list(gates.values()), 0)
    loaded = json.loads(out.read_text())
    assert loaded["body"]["pipeline"]["warm"]["speedup"] == pytest.approx(
        gates["warm_speedup"].value
    )
    assert loaded["criteria"][0]["name"] == "warm_speedup"


def test_concurrency_serves_only_owner_bytes(report):
    for mode in ("sequential", "pipelined"):
        counted = report["concurrency"][mode]
        assert counted["failures"] == counted["unverified_responses"] == 0, mode
        assert counted["accesses"] > 0, mode


def test_pipelining_moves_calls_off_the_serving_path(report):
    sequential = report["concurrency"]["sequential"]
    pipelined = report["concurrency"]["pipelined"]
    assert pipelined["rpc_call_share"] < sequential["rpc_call_share"]
    assert pipelined["elapsed_s"] < sequential["elapsed_s"]
