"""Repeat the driver's runs and report each end-to-end metric's spread.

``python -m perf.spread [--seeds N] [--out FILE]`` runs
``BENCHMARK.json``'s command once per seed (1..N) on each workload (the
acceptance protocol: ten runs, ten seeds), then prints, per workload and
metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound. The raw
result lines, with the per-round values behind each, go to ``--out`` so
the bounds can be re-derived later.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from perf.compare import ROOT, spread

WORK_ROOT = os.path.join(ROOT, ".bench_work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf.spread", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the raw result lines here (JSON)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    runs = {name: [] for name in names}
    os.makedirs(WORK_ROOT, exist_ok=True)
    report_path = os.path.join(WORK_ROOT, f"spread-{os.getpid()}.json")
    for name in names:
        for seed in range(1, args.seeds + 1):
            command = contract["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
                "--out", report_path,
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
            result.update(
                seed=seed,
                noisy=report["env"]["noisy"],
                wall_s=report["env"]["wall_s"],
                rounds={
                    metric: entry["rounds"]
                    for metric, entry in report["workloads"][name]["end_to_end"].items()
                },
            )
            runs[name].append(result)
            print(
                f"{name} seed {seed}: failed {result['failed']}/{result['attempted']}, "
                f"{result['wall_s']:.1f} s",
                flush=True,
            )
    os.remove(report_path)
    worst = 0.0
    for name in names:
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs[name]]
            share = spread(values)
            if metric != "setup_s":
                worst = max(worst, share / bound)
            print(
                f"{name:<13} {metric:<14} median {statistics.median(values):>12.4f}"
                f"  spread {share:6.1%}  bound {bound:.0%}"
            )
    print(f"largest spread/bound (setup_s excepted): {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
