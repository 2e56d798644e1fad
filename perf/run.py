"""Command line of the wall-clock access benchmark.

Two ways in, one implementation::

    # the whole suite: every workload, rounds interleaved, full report
    PYTHONPATH=src python -m perf.run [--seed N] [--quick] [--trace] [--out FILE]

    # one workload, one pass (what BENCHMARK.json's driver runs)
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Every metric is printed by name with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
The exit code is non-zero when any operation failed, returned wrong
bytes, or a tamper probe was not rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length per workload, sets the round count (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the per-layer pass (spans + micro-ladder) instead of the end-to-end pass",
    )
    parser.add_argument("--quick", action="store_true", help="tiny op counts (self-tests)")
    parser.add_argument("--out", help="write the full result (env, per-round values) here")
    return parser.parse_args(argv)


def _say(line: str) -> None:
    print(line, flush=True)


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        _say(f"{workload:<13} {name:<42} {entry['value']:>14.4f} {entry['unit']}")


def main(argv=None) -> int:
    invoked = perf_counter()
    args = _parse(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        contract = json.load(handle)
    # Imported here: everything below needs src/ on the path, and a
    # checkout without the program must fail before measuring anything.
    from perf import env, layers, runner
    from perf.keypool import KeyPool
    from perf.ladder import run_ladder
    from perf.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        _say(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    selected = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    per_layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    end_to_end_names = [m["name"] for m in contract["end_to_end"]]

    pool = KeyPool()
    started = perf_counter()
    for workload in selected:
        pool.preload(workload.key_indices())
    key_load_s = perf_counter() - started
    spin_before = env.spin_ms()
    report = {
        "schema": 1,
        "seed": args.seed,
        "quick": args.quick,
        "trace": bool(args.trace),
        "seconds": seconds,
        "env": env.fingerprint(ROOT),
        "workloads": {},
    }
    attempted = failed = 0
    correct = True
    if args.trace:
        ladder = run_ladder(pool, args.seed, runner.WORK_ROOT, quick=args.quick)
        for workload in selected:
            values, detail = layers.trace_workload(
                workload, pool, args.seed, ladder, args.quick
            )
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in per_layer_units.items()
            }
            _print_metrics(workload.name, metrics)
            report["workloads"][workload.name] = {
                "why": workload.why, "per_layer": metrics, **detail,
            }
            attempted += detail["attempted"]
            failed += detail["failed"]
            correct = correct and detail["correct"]
    else:
        all_rounds = runner.measure(
            selected, pool, args.seed, seconds, quick=args.quick, progress=_say
        )
        for workload in selected:
            rounds = all_rounds[workload.name]
            # Everything measured is reported; the result line below
            # carries exactly the contract's (bounded) metrics.
            metrics = runner.end_to_end(rounds)
            _print_metrics(workload.name, metrics)
            report["workloads"][workload.name] = {
                "why": workload.why,
                "rounds": len(rounds),
                "ops_per_round": rounds[0].attempted,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "tamper_probe_rejected": all(r.probe_rejected for r in rounds),
                "correct": all(r.correct for r in rounds),
                "counters": [r.counters for r in rounds],
                "warmup_s": [r.warmup_s for r in rounds],
                "end_to_end": metrics,
            }
            attempted += sum(r.attempted for r in rounds)
            failed += sum(r.failed for r in rounds)
            correct = correct and all(r.correct for r in rounds)
    spin_after = env.spin_ms()
    report["env"].update(
        key_load_s=key_load_s,
        spin_ms_before=spin_before,
        spin_ms_after=spin_after,
        noisy=env.is_noisy(spin_before, spin_after),
        wall_s=perf_counter() - invoked,
    )
    report.update(correct=correct, attempted=attempted, failed=failed)
    if report["env"]["noisy"]:
        _say(f"noisy: spin calibration drifted {spin_before:.3f} -> {spin_after:.3f} ms")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    # The result line. With one workload its metrics are the contract's;
    # for the whole suite they are namespaced by workload.
    section = "per_layer" if args.trace else "end_to_end"
    wanted = per_layer_units if args.trace else end_to_end_names
    line_metrics = {}
    for name, body in report["workloads"].items():
        for metric in wanted:
            entry = body[section][metric]
            key = metric if args.workload else f"{name}/{metric}"
            line_metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    _say(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": line_metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
