"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

``python -m perf.compare A B`` — each of A (the parent) and B (the
change) is a result file written by ``perf.run --out``, a raw file
written by ``perf.spread --out``, or a directory of such files (one set
of runs). Medians and spread are both taken over each side's runs; a
side with fewer than four runs has no spread, and a verdict from a
single pair of runs is only as good as the machine was quiet
(``perf.spread`` writes sets of ten). One row per (workload, end-to-end
metric):

* **worse** — B's median is worse than A's by more than the metric's bound;
* **unresolved** — the run-to-run spread of either side is wider than
  the bound, so the pair cannot be told apart (unless every B run beats
  every A run, which still counts as better);
* **better** — B improved by more than the spread (and by more than 1 %);
* **within-bound** — anything else.

Per-layer count metrics present on both sides are listed as identical or
changed. Exits 1 when any row is worse or either side had failed ops.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that are exact counts (identical across same-seed
#: runs). Byte counts are not in the list: signed timestamps are floats
#: whose encoded length varies by a digit or two from run to run.
COUNT_METRICS = (
    "crypto.rsa_verify_calls_per_op",
    "crypto.verifycache_hit_ratio",
    "net.rpc_calls_per_op",
    "proxy.contentcache_hit_ratio",
    "proxy.contentcache_evictions_per_op",
    "proxy.pipeline_prefetch_hit_ratio",
    "storage.appends_per_write",
)

#: Changes smaller than this share are never called better.
RESOLUTION = 0.01

#: workload → metric → samples
Samples = Dict[str, Dict[str, List[float]]]


class ResultSet:
    """Metric samples of one side: one value per run."""

    def __init__(self, path: str) -> None:
        self.runs: Samples = {}
        self.per_layer: Samples = {}
        self.failed = 0
        files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
        if not files:
            raise SystemExit(f"no result files under {path!r}")
        for name in files:
            with open(name, encoding="utf-8") as handle:
                self._add(json.load(handle))

    def _add(self, doc: dict) -> None:
        if "runs" in doc:  # perf.spread raw file: driver result lines per workload
            for workload, lines in doc["runs"].items():
                for line in lines:
                    self.failed += line["failed"]
                    for metric, entry in line["metrics"].items():
                        self._sample(self.runs, workload, metric, entry["value"])
            return
        self.failed += doc.get("failed", 0)
        for workload, body in doc["workloads"].items():
            for metric, entry in body.get("end_to_end", {}).items():
                self._sample(self.runs, workload, metric, entry["value"])
            for metric, entry in body.get("per_layer", {}).items():
                self._sample(self.per_layer, workload, metric, entry["value"])

    @staticmethod
    def _sample(into: Samples, workload: str, metric: str, value: float) -> None:
        into.setdefault(workload, {}).setdefault(metric, []).append(value)


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 if < 4 values)."""
    if len(values) < 4 or not statistics.median(values):
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def judge(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float, float]:
    """(verdict, worsening as a share of A's median, spread)."""
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new - base) / base if base else 0.0
    noise = max(spread(a), spread(b))
    if noise > bound:
        wins = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if wins else "unresolved"), worsening, noise
    if worsening > bound:
        return "worse", worsening, noise
    if worsening < -max(noise, RESOLUTION):
        return "better", worsening, noise
    return "within-bound", worsening, noise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf.compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent results (file or directory)")
    parser.add_argument("b", help="change results (file or directory)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    left, right = ResultSet(args.a), ResultSet(args.b)
    tally: Dict[str, int] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in left.runs or workload not in right.runs:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in left.runs[workload] or name not in right.runs[workload]:
                continue
            verdict, worsening, noise = judge(
                left.runs[workload][name], right.runs[workload][name],
                metric["better"], metric["bound"],
            )
            tally[verdict] = tally.get(verdict, 0) + 1
            lone = min(len(left.runs[workload][name]), len(right.runs[workload][name])) < 4
            shown = "n/a" if lone else f"{noise:.1%}"
            print(
                f"{workload:<13} {name:<14} {verdict:<12} "
                f"A {statistics.median(left.runs[workload][name]):>12.4f}  "
                f"B {statistics.median(right.runs[workload][name]):>12.4f} {metric['unit']:<5} "
                f"worse by {worsening:+7.1%}  spread {shown:>6}  bound {metric['bound']:.0%}"
            )
        for name in COUNT_METRICS:
            a = left.per_layer.get(workload, {}).get(name)
            b = right.per_layer.get(workload, {}).get(name)
            if a and b:
                same = "identical" if a[-1] == b[-1] else "changed"
                tally[same] = tally.get(same, 0) + 1
                print(f"{workload:<13} {name:<42} {same:<10} A {a[-1]:.6f}  B {b[-1]:.6f}")
    failed = left.failed + right.failed
    print(
        "summary: "
        + ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items()))
        + f"; failed ops A {left.failed} B {right.failed}"
    )
    return 1 if tally.get("worse") or failed else 0


if __name__ == "__main__":
    sys.exit(main())
