"""The harness kernel: gate evaluator, envelope, registry — and the
pinned gate table that keeps a refactor from loosening a gate silently."""

from __future__ import annotations

import json

import pytest

from repro.harness.kernel import (
    REGISTRY,
    REPO_ROOT,
    BenchTarget,
    Criterion,
    gate,
    problems,
    run_target,
    write_envelope,
)


class TestGate:
    @pytest.mark.parametrize(
        "value, op, threshold, ok",
        [
            (5.0, ">=", 5.0, True),
            (4.9, ">=", 5.0, False),
            (2.5, "<=", 2.5, True),
            (2.6, "<=", 2.5, False),
            (1, ">", 1, False),
            (2, ">", 1, True),
            (0.1, "<", 0.2, True),
            (0.2, "<", 0.2, False),
            ("RevokedKeyError", "==", "RevokedKeyError", True),
            ([], "==", [], True),
            (["stuck"], "==", [], False),
        ],
    )
    def test_operators(self, value, op, threshold, ok):
        criterion = gate("g", value, op, threshold, "broke")
        assert criterion == Criterion("g", ok, value, threshold, "broke")

    def test_unknown_operator_rejected(self):
        with pytest.raises(KeyError):
            gate("g", 1, "!=", 2, "broke")

    def test_problems_are_the_failed_messages_in_order(self):
        criteria = [
            gate("a", 1, "==", 1, "a broke"),
            gate("b", 1, "==", 2, "b broke"),
            gate("c", 3, "<", 2, "c broke"),
        ]
        assert problems(criteria) == ["b broke", "c broke"]


def _toy_target(ok: bool) -> BenchTarget:
    return BenchTarget(
        "toy",
        "BENCH_toy.json",
        run=lambda quick, seed: {"quick": quick, "seed": seed},
        criteria=lambda report: [gate("toy_gate", ok, "==", True, "toy gate red")],
    )


class TestRunTarget:
    def test_green_run_writes_envelope_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        assert run_target(_toy_target(True), True, 7, out) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[1].split() == [
            "bench", "mode", "criterion", "value", "threshold", "verdict",
        ]
        assert table[3].split() == ["toy", "quick", "toy_gate", "True", "True", "PASS"]
        assert table[4] == "1 reports, 1 criteria, 0 failing"
        assert not any("FAIL" in line for line in table)
        envelope = json.loads(out.read_text())
        assert list(envelope) == ["name", "seed", "quick", "env", "criteria", "body"]
        assert (envelope["name"], envelope["seed"], envelope["quick"]) == ("toy", 7, True)
        assert envelope["body"] == {"quick": True, "seed": 7}
        assert envelope["criteria"] == [
            {"name": "toy_gate", "ok": True, "value": True, "threshold": True,
             "message": "toy gate red"}
        ]

    def test_red_run_still_writes_and_exits_one(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        assert run_target(_toy_target(False), False, 0, out) == 1
        table = capsys.readouterr().out.splitlines()
        assert table[3].split() == [
            "toy", "full", "toy_gate", "False", "True", "FAIL:", "toy", "gate", "red",
        ]
        assert table[4] == "1 reports, 1 criteria, 1 failing"
        assert table[5:] == ["FAIL: toy gate red"]
        assert json.loads(out.read_text())["criteria"][0]["ok"] is False

    def test_dataclass_reports_are_written_through_to_dict(self, tmp_path):
        class Report:
            def to_dict(self):
                return {"shape": "dataclass"}

        target = _toy_target(True)
        envelope = write_envelope(tmp_path / "r.json", target, Report(), [], False, 0)
        assert envelope["body"] == {"shape": "dataclass"}


class TestRegistry:
    def test_targets_in_ci_order(self):
        assert list(REGISTRY) == [
            "bench-security", "chaos", "revocation", "monitor", "profile",
        ]

    def test_names_and_report_files_are_distinct(self):
        for name, target in REGISTRY.items():
            assert target.name == name
            assert target.report_name.startswith("BENCH_")
        assert len({t.report_name for t in REGISTRY.values()}) == len(REGISTRY)

    def test_repo_root_is_the_checkout(self):
        assert (REPO_ROOT / "src" / "repro" / "harness" / "kernel.py").exists()


#: A threshold measured by the same run (an attempted count, the
#: sequential mode's figure, the baseline's mean): the gate compares two
#: measurements, so only its presence is pinned.
RELATIVE = object()

#: Every gate of every registered bench in ``--quick`` mode, with its
#: threshold. Adding, dropping, renaming or loosening a gate must show
#: up as an edit here.
PINNED_GATES = {
    "bench-security": {
        "warm_speedup": 5.0,  # WARM_SPEEDUP_TARGET
        "fastpath_not_slower": RELATIVE,
        "concurrency_multiple": 2.0,  # CONCURRENCY_TARGET
        "zero_unverified_bytes": 0,
        # No conformance_sequential / conformance_pipelined gate: the
        # SCENARIOS x cold/warm matrix is decided cell by cell in tier-1,
        # tests/integration/test_conformance_matrix.py (sequential) and
        # tests/integration/test_pipeline_conformance.py (pipelined).
    },
    "chaos": {
        **{
            f"unverified_bytes[{flavour},drop={drop}]": 0
            for flavour in ("resilient", "baseline")
            for drop in (0.0, 0.1, 0.2, 0.3)
        },
        # availability >= 0.99 at drop <= 0.2 (0.3 is exempt)
        "availability[drop=0.0]": 0.99,
        "availability[drop=0.1]": 0.99,
        "availability[drop=0.2]": 0.99,
        "resilient_ok_over_baseline": RELATIVE,
    },
    "revocation": {
        **{
            f"{gate_name}[{index}:{host}]": threshold
            for index, (host, staleness) in enumerate(
                [
                    ("sporty.cs.vu.nl", 20.0),
                    ("canardo.inria.fr", 30.0),
                    ("ensamble02.cornell.edu", 40.0),
                ]
            )
            for gate_name, threshold in {
                "contained": True,
                "containment_seconds": staleness + 5.0,  # + CONTAINMENT_SLACK
                "rejection_error": "RevokedKeyError",
                "post_containment_ok": 0,
                "other_failures": 0,
            }.items()
        },
        "schedule_ok[baseline]": RELATIVE,
        "schedule_ok[feed-enabled]": RELATIVE,
        "feed_refreshes": 2,
        "overhead_ratio": 2.5,
    },
    # No "recovery" bench (20 gates) and no "convergence" bench (8): each
    # was a yes/no on a deterministic run, which a bench does not gate
    # (the rule is in repro.harness.kernel). The tier-1 assertion that
    # makes each gate's own comparison, under tests/:
    #
    # integration/test_crash_recovery.py::TestTestbedRestart::
    # test_restarted_testbed_serves_identical_bytes (compacted logs,
    # three restarts, the second over a torn tail), per restart:
    #   replica.recovered           recovered_replicas == documents
    #   replica.reverified          reverified_replicas == recovered_replicas
    #   replica.naming_records      naming recovered_records >= documents
    #   replica.location_addresses  location recovered_addresses >= documents
    #   replica.accesses_ok         every element's response.ok
    #   replica.content_intact      ... and content == what was published
    #   replica.post_restart_publish  a new publish fetched back
    #   torn.bytes_dropped          torn_bytes_dropped == 108 on the torn restart
    #   torn.recovered, torn.accesses_ok  the same counts on that restart
    # the per-store halves: server/test_persistence.py::TestRecovery
    # (::test_recovery_survives_compaction), ::TestFailClosed::
    # test_torn_server_journal_recovers_prefix, storage/test_torn_writes.py,
    # naming/ and location/test_persistence.py (recovered_* counts).
    #
    # ...::TestTestbedRestart::test_restarted_client_rejects_revoked_
    # before_any_rpc:
    #   revocation.feed_head              feed.head == head before the kill
    #   revocation.cursor_statements      statements_recovered == 1
    #   revocation.staleness_reset        checker.staleness is None
    #   revocation.rejected_from_disk     status == 403
    #   revocation.rejection_error        security_failure == "RevokedKeyError"
    #   revocation.refreshes_at_rejection refreshes == 0
    #   revocation.clean_access_after_sync  the clean OID's response.ok
    #   revocation.head_after_sync        checker.head == feed.head
    # the per-store halves: revocation/test_persistence.py::TestCheckerCursor
    # (no RPC with the feed down, no vouching without a sync, resuming from
    # the persisted head), server/test_persistence.py::TestRecovery::
    # test_revocation_feed_survives_restart.
    #   revocation.regression_detected  revocation/test_persistence.py::
    #     TestHeadRegression::test_refresh_fails_closed_on_regressed_head
    #   tamper.failed_closed  server/test_persistence.py::TestFailClosed::
    #     test_tampered_content_refused
    #
    # versioning/test_convergence.py::test_partitioned_writers_converge_
    # after_one_gossip_round (generated writers x rounds x seed):
    #   partitioned.byte_identical    one digest over servers and readers
    #   partitioned.deltas            each server serves writers * rounds deltas
    #   partitioned.gossip_exchanged  pulled + pushed > 0
    # versioning/test_store.py::TestDurability::test_restart_recovers_and_
    # reverifies (journal and compacted rewrite):
    #   recovery.recovered_deltas, recovery.reverified_deltas,
    #   recovery.digest_intact, recovery.frontier_cert
    # ...::TestDurability::test_crc_valid_tamper_fails_closed:
    #   recovery.tamper_failed_closed
    #
    # (The former convergence bench's adversarial.* gates:
    # tests/attacks/test_versioning_attacks.py decides every
    # VERSIONING_SCENARIOS cell; its merge.samples: perf/'s
    # versioning.merge_us_per_delta.)
    "monitor": {
        **{
            f"reached[{rule}.{transition}]": True
            for rule in (
                "replica_circuit_open", "revocation_staleness_high",
                "revocation_rejections",
            )
            for transition in ("fired_at", "resolved_at")
        },
        "timeline_in_order": True,
        # CACHE_TTL 8 / QUARANTINE 20 / STALENESS_WARN 45 / MAX_STALENESS/2 30
        # / REJECTION_WINDOW 30, each + 3 scrape intervals of 5 s.
        "latency[circuit_fire_after_kill]": 23.0,
        "latency[circuit_resolve_after_restore]": 35.0,
        "latency[staleness_fire_after_feed_kill]": 60.0,
        "latency[staleness_resolve_after_restore]": 45.0,
        "latency[rejections_fire_after_publish]": 45.0,
        "latency[rejections_resolve_after_abandon]": 45.0,
        **{
            f"latency_nonnegative[{key}]": 0
            for key in (
                "circuit_fire_after_kill", "circuit_resolve_after_restore",
                "staleness_fire_after_feed_kill", "staleness_resolve_after_restore",
                "rejections_fire_after_publish", "rejections_resolve_after_abandon",
            )
        },
        "consistency_drift": 0.01,  # CONSISTENCY_TOLERANCE
        "idle_text_identical": True,
        "idle_json_identical": True,
        "final_firing": [],
        "rejected": 0,
        "other_failures": 0,
        "scrapes": 10,
    },
    "profile": {
        "reads_ok": RELATIVE,
        "recovery_requests_ok": RELATIVE,
        "converged": True,
        "gossip_exchanged": 0,
        "stitch_rate": 1.0,
        "orphan_spans": 0,
        "skewed_spans": 0,
        "spans_dropped": 0,
        "duplicate_refs": 0,
        "cross_process_spans": 0,
        "cross_process_traces": 0,
        "bad_roots": [],
        **{
            f"spans[{name}]": 0
            for name in (
                "proxy.handle", "session.establish", "session.fetch",
                "bind.resolve", "bind.locate", "check.public_key",
                "check.certificate", "check.consistency", "check.element_hash",
                "check.freshness", "cache.get", "cache.put", "rpc.call",
                "server.handle", "gossip.run", "versioning.put_delta",
                "storage.journal", "revocation.refresh",
            )
        },
        "traces_profiled": 0,
        "rootless_traces": 0,
        "attribution_error": 0.01,  # ATTRIBUTION_TOLERANCE
        **{
            f"category[{category}]": True
            for category in ("cache", "crypto", "merge", "proxy", "rpc", "storage")
        },
        "hottest": 5,
        "fast_burn_lifecycle": True,
        "latency_objective_reported": True,
        # The gates folded in from the former trace bench.
        "rejection[check.element_hash]": True,
        "rejection[check.consistency]": True,
        "rejection[check.freshness]": True,
        "pipeline_ok[sequential]": RELATIVE,
        "pipeline_ok[pipelined]": RELATIVE,
        "pipelined_attempt_share": RELATIVE,
        "pipelined_elapsed_s": RELATIVE,
        "pipelined_spans[pipeline.schedule]": 0,
        "pipelined_spans[pipeline.prefetch]": 0,
        "pipelined_spans[pipeline.batch_verify]": 0,
    },
}


def test_every_registered_bench_is_pinned():
    assert set(PINNED_GATES) == set(REGISTRY)


@pytest.mark.parametrize("name", list(PINNED_GATES))
def test_registry_declares_exactly_the_pinned_gates(name, quick_report):
    criteria = REGISTRY[name].criteria(quick_report(name))
    declared = {c.name: c.threshold for c in criteria}
    assert len(declared) == len(criteria), "duplicate criterion names"
    pinned = PINNED_GATES[name]
    assert set(declared) == set(pinned)
    for gate_name, threshold in pinned.items():
        if threshold is not RELATIVE:
            assert declared[gate_name] == threshold, gate_name
            assert type(declared[gate_name]) is type(threshold), gate_name
