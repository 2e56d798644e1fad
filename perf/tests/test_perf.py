"""Self-tests of the benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest perf/tests -q

Everything runs in ``--quick`` mode: tiny op counts, two rounds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess

import pytest

from perf import compare, layers, run
from perf.keypool import KeyPool
from perf.ladder import run_ladder
from perf.runner import WORK_ROOT, run_round
from perf.spans import END, START, SpanRecorder
from perf.workloads import WORKLOADS, rounds_in

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


@pytest.fixture(scope="module")
def pool() -> KeyPool:
    return KeyPool()


@pytest.fixture
def shared_pool(pool, monkeypatch):
    """Let in-process CLI runs reuse the parsed keys (~2 s per parse)."""
    monkeypatch.setattr("perf.keypool.KeyPool", lambda: pool)


def _run_cli(tmp_path, *flags):
    out = tmp_path / "result.json"
    assert run.main(["--quick", "--out", str(out), *flags]) == 0
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_names_workloads_and_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for workload in CONTRACT["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert "setup_s" in names
    assert set(compare.COUNT_METRICS) <= set(names)


def test_quick_suite_emits_every_end_to_end_metric(tmp_path, shared_pool):
    report = _run_cli(tmp_path)
    assert report["correct"] and report["failed"] == 0
    assert {"python", "cryptography", "openssl", "nproc", "cpu_model", "git_sha",
            "spin_ms_before", "spin_ms_after", "noisy"} <= set(report["env"])
    assert set(report["workloads"]) == set(WORKLOADS)
    for body in report["workloads"].values():
        assert body["tamper_probe_rejected"] and body["failed"] == 0
        for metric in CONTRACT["end_to_end"]:
            entry = body["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert set(entry) == {"value", "unit", "rounds"}
            assert len(entry["rounds"]) == body["rounds"]
            # fastest repetition: never worse than the best whole round
            if metric["name"] == "peak_rss_mb":
                assert entry["value"] == max(entry["rounds"])
            elif metric["better"] == "lower":
                assert 0 < entry["value"] <= min(entry["rounds"])
            else:
                assert entry["value"] >= max(entry["rounds"])
    # the peak is read per round, not once per process: the bulk catalogue
    # and the TCP child show, though cold_bind's rounds came first
    rss = {name: body["end_to_end"]["peak_rss_mb"]["value"]
           for name, body in report["workloads"].items()}
    assert rss["warm_bulk"] > rss["cold_bind"] and rss["tcp_page"] > rss["cold_bind"]
    assert rss["cached_zipf"] < rss["warm_bulk"]


def test_quick_trace_cli_emits_every_per_layer_metric(tmp_path, shared_pool):
    report = _run_cli(tmp_path, "--trace", "--workload", "warm_bulk")
    body = report["workloads"]["warm_bulk"]
    assert report["correct"] and body["first_op_spans"][0]["name"] == "op"
    for metric in CONTRACT["per_layer"]:
        entry = body["per_layer"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] >= 0


_TRACES = {}


def _trace(pool, name, seed, repeat=0, detail=False):
    """Per-layer metrics (or the detail record) of one quick trace pass,
    memoized per test run; the ladder runs once, as in the CLI."""
    if "ladder" not in _TRACES:
        _TRACES["ladder"] = run_ladder(pool, seed, WORK_ROOT, quick=True)
    key = (name, seed, repeat)
    if key not in _TRACES:
        _TRACES[key] = layers.trace_workload(
            WORKLOADS[name], pool, seed, _TRACES["ladder"], quick=True
        )
    return _TRACES[key][1 if detail else 0]


def test_round_count_depends_on_the_arguments_only():
    assert rounds_in(0.1) == 5
    assert rounds_in(10) == 8
    assert rounds_in(60) == 48


def test_every_round_of_the_trace_pass_is_counted(pool):
    # untraced + traced (+ obs-enabled on cold_bind, + sequential on tcp_page)
    quick_ops = {name: workload.ops[1] for name, workload in WORKLOADS.items()}
    assert _trace(pool, "cold_bind", 11, detail=True)["attempted"] == 3 * quick_ops["cold_bind"]
    assert _trace(pool, "tcp_page", 11, detail=True)["attempted"] == 3 * quick_ops["tcp_page"]
    assert _trace(pool, "warm_bulk", 11, detail=True)["attempted"] == 2 * quick_ops["warm_bulk"]


def test_layers_read_zero_exactly_where_a_workload_bypasses_them(pool):
    per_layer = {name: _trace(pool, name, 11) for name in WORKLOADS}
    names = {m["name"] for m in CONTRACT["per_layer"]}
    for name, metrics in per_layer.items():
        assert names <= set(metrics), name
        assert metrics["obs.bench_trace_overhead_ratio"] > 0
        assert 0 < metrics["trace.root_self_ratio"] < 1
    assert per_layer["cold_bind"]["crypto.rsa_verify_calls_per_op"] == 4
    assert per_layer["warm_bulk"]["crypto.rsa_verify_calls_per_op"] == 0
    assert per_layer["cached_zipf"]["proxy.check_revocation_us"] > 0
    assert per_layer["cold_bind"]["proxy.check_revocation_us"] == 0
    assert per_layer["tcp_page"]["net.call_many_self_ms_per_op"] > 0
    assert per_layer["tcp_page"]["proxy.pipeline_speedup"] > 0
    assert per_layer["cold_bind"]["proxy.pipeline_speedup"] == 0
    assert per_layer["versioned_rw"]["storage.appends_per_write"] == 1
    assert per_layer["cold_bind"]["storage.appends_per_write"] == 0
    assert per_layer["cold_bind"]["obs.enabled_overhead_ratio"] > 0
    assert per_layer["versioned_rw"]["versioning.read_ms_p50"] > 0


@pytest.mark.parametrize("name", ["cached_zipf", "tcp_page", "versioned_rw"])
def test_counts_repeat_exactly_per_seed(pool, name):
    first, second = _trace(pool, name, 11), _trace(pool, name, 11, repeat=1)
    for metric in compare.COUNT_METRICS:
        assert first[metric] == second[metric], metric


def test_seed_changes_the_trace_not_the_path(pool):
    one, other = _trace(pool, "cached_zipf", 11), _trace(pool, "cached_zipf", 12)
    assert one["proxy.contentcache_hit_ratio"] != other["proxy.contentcache_hit_ratio"]
    cold_one, cold_other = _trace(pool, "cold_bind", 11), _trace(pool, "cold_bind", 12)
    for metric in compare.COUNT_METRICS:
        assert cold_one[metric] == cold_other[metric], metric


def test_span_self_times_sum_to_op_wall_time(pool):
    spans = SpanRecorder()
    result = run_round(WORKLOADS["cold_bind"], pool, 5, quick=True, spans=spans)
    table = result.table
    assert result.correct and table.count("op") == result.attempted
    close = 0
    for index, wall_ns in enumerate(result.durations_ns):
        records = table.per_op(index)
        root = records[0]
        assert root[0] == "op"
        attributed = sum(table.self_ns(record) for record in records)
        assert attributed == root[END] - root[START]  # single thread: exact
        close += abs(attributed - wall_ns) <= 0.05 * wall_ns
    # The runner's own clock reads sit outside the root span; a stray
    # preemption between the two may break 5 % on the odd op.
    assert close >= 0.9 * result.attempted


def _set(values, failed=0):
    """A ``perf.spread --out`` file: one result line per run."""
    lines = [
        {"failed": failed, "metrics": {"op_ms_p50": {"value": value, "unit": "ms"}}}
        for value in values
    ]
    return {"runs": {"cold_bind": lines}}


STEADY = [1.0, 1.01, 0.99, 1.0, 1.0]


@pytest.mark.parametrize(
    "base,change,verdict,code",
    [
        (_set(STEADY), _set([1.05] * 5), "within-bound", 0),
        (_set(STEADY), _set([1.5] * 5), "worse", 1),
        (_set(STEADY), _set([0.7] * 5), "better", 0),
        (_set([0.6, 0.8, 1.0, 1.3, 1.6]), _set([1.1] * 5), "unresolved", 0),
        (_set(STEADY), _set(STEADY, failed=1), "within-bound", 1),
        (_set([1.0]), _set([1.5]), "worse", 1),  # a lone pair has no spread
    ],
)
def test_compare_verdicts(tmp_path, capsys, base, change, verdict, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(change))
    assert compare.main([str(a), str(b)]) == code
    assert f"op_ms_p50      {verdict}" in capsys.readouterr().out


def test_driver_command_prints_the_contract_line():
    command = CONTRACT["command"] + [
        "--workload", "warm_bulk", "--seed", "2", "--seconds", "1", "--trace", "0",
        "--quick",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())


def test_driver_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    command = CONTRACT["command"] + [
        "--workload", "cold_bind", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
