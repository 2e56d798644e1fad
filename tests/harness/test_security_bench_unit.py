"""Unit tests for security_bench internals — no real benchmarking.

The smoke test (test_security_bench.py) runs the bench for real; these
tests pin down the pieces that can silently rot without tripping it:
the per-run summarizer and the pass/fail criteria gate.
"""

from __future__ import annotations

import pytest

from repro.harness.kernel import problems
from repro.harness.security_bench import (
    CONCURRENCY_TARGET,
    WARM_SPEEDUP_TARGET,
    _summarize_run,
    criteria,
)


def make_row(total=10.0, security=4.0):
    return {
        "total_ms": total,
        "security_ms": security,
        "verify_certificate_ms": security / 2,
        "verify_public_key_ms": security / 4,
    }


def make_counters(hits=0.0, misses=1.0):
    return {"verify_hits": hits, "verify_misses": misses}


class TestSummarizeRun:
    def test_means_and_sums(self):
        rows = [make_row(total=10.0, security=4.0), make_row(total=6.0, security=2.0)]
        summary = _summarize_run(rows, make_counters(hits=1.0, misses=1.0))
        assert summary["accesses"] == 2
        assert summary["total_ms_mean"] == pytest.approx(8.0)
        assert summary["security_ms_mean"] == pytest.approx(3.0)
        assert summary["verify_certificate_ms_mean"] == pytest.approx(1.5)
        assert summary["verify_public_key_ms_mean"] == pytest.approx(0.75)
        # Counters are the run's totals, carried through untouched.
        assert summary["verify_hits"] == 1.0
        assert summary["verify_misses"] == 1.0

    def test_single_row(self):
        summary = _summarize_run([make_row(total=3.0)], make_counters())
        assert summary["accesses"] == 1
        assert summary["total_ms_mean"] == pytest.approx(3.0)


def make_pipeline(warm_speedup=20.0, fastpath_total=5.0, baseline_total=9.0):
    return {
        "client": "canardo.inria.fr",
        "accesses": 10,
        "baseline": {"total_ms_mean": baseline_total},
        "fastpath": {"total_ms_mean": fastpath_total},
        "warm": {
            "cold_verify_certificate_ms": 2.0,
            "warm_verify_certificate_ms": 2.0 / warm_speedup,
            "speedup": warm_speedup,
        },
    }


def make_report(multiple=6.0, pipelined_share=0.0, **pipeline_kwargs):
    mode = {"waves": 4, "accesses_per_s": 20.0, "accesses": 84, "rpc_call_share": 0.9}
    return {
        "pipeline": make_pipeline(**pipeline_kwargs),
        "concurrency": {
            "objects": 3,
            "elements_per_object": 6,
            "element_bytes": 8192,
            "hot_duplicates": 3,
            "sequential": dict(mode),
            "pipelined": dict(
                mode, accesses_per_s=20.0 * multiple, rpc_call_share=pipelined_share
            ),
            "throughput_multiple": multiple,
            "unverified_responses": 0,
            "failures": 0,
        },
    }


def gates(**kwargs):
    return {c.name: c for c in criteria(make_report(**kwargs))}


class TestEvaluateCriteria:
    def test_passing_pipeline(self):
        assert problems(criteria(make_report())) == []
        assert gates()["warm_speedup"].threshold == WARM_SPEEDUP_TARGET
        assert gates()["concurrency_multiple"].threshold == CONCURRENCY_TARGET

    def test_slow_warm_path_fails_speedup_gate(self):
        report = make_report(warm_speedup=WARM_SPEEDUP_TARGET - 0.1)
        assert problems(criteria(report)) == [
            "warm verification speedup 4.9x below target 5x"
        ]

    def test_speedup_exactly_at_target_passes(self):
        assert gates(warm_speedup=WARM_SPEEDUP_TARGET)["warm_speedup"].ok

    def test_fastpath_slower_than_baseline_fails(self):
        found = gates(fastpath_total=9.5, baseline_total=9.0)["fastpath_not_slower"]
        assert not found.ok
        assert (found.value, found.threshold) == (9.5, 9.0)
        assert found.message == "fast-path run slower than baseline"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"multiple": 1.9},
                "pipeline throughput multiple 1.90x below target 2.0x",
            ),
        ],
    )
    def test_pipeline_gates_fail_with_their_messages(self, kwargs, message):
        assert problems(criteria(make_report(**kwargs))) == [message]

    def test_call_share_not_shrinking_flagged(self):
        found = gates(pipelined_share=0.9)["pipelined_call_share"]
        assert not found.ok
        assert found.message == (
            "pipelined rpc.call share of proxy.handle did not shrink: "
            "0.900 vs sequential 0.900"
        )
        assert problems(criteria(make_report(pipelined_share=0.9))) == [found.message]

