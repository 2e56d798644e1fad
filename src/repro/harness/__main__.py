"""CLI: regenerate the paper's tables and figures, run the gated benches.

Usage::

    python -m repro.harness table1
    python -m repro.harness fig4 [--repeats N]
    python -m repro.harness fig5|fig6|fig7 [--repeats N]
    python -m repro.harness all
    python -m repro.harness design-choices
    python -m repro.harness loadtest
    python -m repro.harness <bench> [--seed N] [--out PATH]
    python -m repro.harness benches [--seed N] [--out DIR]
    python -m repro.harness bench-report

``<bench>`` is any target in :data:`repro.harness.kernel.REGISTRY`:
bench-security, chaos, revocation, profile. ``benches`` runs
them all in that order and exits non-zero if any gate fails.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.harness.design_choices import render_design_choices, run_design_choices
from repro.harness.fig4 import run_fig4
from repro.harness.fig567 import FIGURE_OF_CLIENT, run_fig567_for_client
from repro.harness.kernel import REGISTRY, REPO_ROOT, run_target
from repro.harness.loadsim import render_crowd_study, run_crowd_study
from repro.harness.report import (
    aggregate_bench_reports,
    render_bench_summary,
    render_fig4,
    render_fig567,
    render_table,
)
from repro.harness.table1 import TABLE1_COLUMNS, table1_rows

_CLIENT_OF_FIGURE = {f"fig{num}": client for client, num in FIGURE_OF_CLIENT.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures; run the gated benches.",
    )
    parser.add_argument(
        "target",
        choices=[
            "table1", "fig4", "fig5", "fig6", "fig7", "all", "design-choices",
            "loadtest", *REGISTRY, "benches", "bench-report",
        ],
        help="which artifact to regenerate or bench to run",
    )
    parser.add_argument("--repeats", type=int, default=3, help="samples per point")
    parser.add_argument("--seed", type=int, default=0, help="content seed")
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="gated benches: where to write the JSON report, a directory for "
        "`benches` (default: BENCH_*.json in the repo root)",
    )
    args = parser.parse_args(argv)

    if args.target in REGISTRY:
        return run_target(REGISTRY[args.target], args.seed, args.out)
    if args.target == "benches":
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        code = 0
        for target in REGISTRY.values():
            out = args.out / target.report_name if args.out is not None else None
            code |= run_target(target, args.seed, out)
            print()
        return code

    targets = (
        ["table1", "fig4", "fig5", "fig6", "fig7"] if args.target == "all" else [args.target]
    )
    for target in targets:
        if target == "table1":
            print("Table 1 — Experimental setting")
            print(render_table(TABLE1_COLUMNS, table1_rows()))
        elif target == "fig4":
            rows = run_fig4(repeats=args.repeats, seed=args.seed)
            print(render_fig4(rows))
        elif target == "design-choices":
            print(render_design_choices(run_design_choices()))
        elif target == "loadtest":
            (static, _), (dynamic, _) = run_crowd_study()
            print(render_crowd_study(static, dynamic))
        elif target == "bench-report":
            print(render_bench_summary(aggregate_bench_reports(REPO_ROOT)))
        else:
            client = _CLIENT_OF_FIGURE[target]
            rows = run_fig567_for_client(client, repeats=args.repeats, seed=args.seed)
            print(render_fig567(rows, client))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
