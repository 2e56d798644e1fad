"""Plain-text rendering of experiment results (the bench/CLI output)."""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence

from repro.harness.fig4 import Fig4Row, rows_as_series
from repro.harness.fig567 import Fig567Row
from repro.util.sizes import format_size

__all__ = [
    "render_table",
    "render_fig4",
    "render_fig567",
    "aggregate_bench_reports",
    "render_bench_summary",
]


def render_table(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A fixed-width text table."""
    widths = [len(str(c)) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    header = "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_fig4(rows: List[Fig4Row]) -> str:
    """Figure 4 as a size × client table of overhead percentages."""
    series = rows_as_series(rows)
    clients = list(series)
    sizes = sorted({row.size_bytes for row in rows})
    table_rows = []
    for size in sizes:
        cells = [format_size(size)]
        for client in clients:
            match = next((r for r in series[client] if r.size_bytes == size), None)
            cells.append(f"{match.overhead_percent:.1f}%" if match else "-")
        table_rows.append(cells)
    title = "Figure 4 — Security overhead (percentage of total access time)"
    return title + "\n" + render_table(["Data size"] + clients, table_rows)


def render_fig567(rows: List[Fig567Row], client: str) -> str:
    """One of Figures 5–7 as an object × scheme table of seconds."""
    mine = [r for r in rows if r.client == client]
    objects = sorted({r.object_label for r in mine}, key=lambda label: next(
        r.total_bytes for r in mine if r.object_label == label
    ))
    schemes = sorted({r.scheme for r in mine})
    table_rows = []
    for obj in objects:
        cells = [obj]
        for scheme in schemes:
            match = next(
                (r for r in mine if r.object_label == obj and r.scheme == scheme), None
            )
            cells.append(f"{match.seconds*1000:.1f} ms" if match else "-")
        table_rows.append(cells)
    figure = mine[0].figure if mine else 0
    title = f"Figure {figure} — Performance comparison, {client} client"
    return title + "\n" + render_table(["Object"] + schemes, table_rows)


def aggregate_bench_reports(root: pathlib.Path) -> Dict[str, dict]:
    """Every ``BENCH_*.json`` under *root*, parsed, keyed by bench name.

    Discovery is by glob, not by a hard-coded list, so a new bench target
    that writes its ``BENCH_<name>.json`` shows up here (and in the
    ``bench-report`` CLI target) with no further wiring. Unparseable
    files surface as an ``{"error": ...}`` entry rather than vanishing —
    a corrupt report should fail loudly at aggregation time.
    """
    reports: Dict[str, dict] = {}
    # glob order is filesystem-dependent; sort by name so the aggregate
    # report (and anything diffing it) is stable across machines.
    for path in sorted(root.glob("BENCH_*.json"), key=lambda p: p.name):
        name = path.stem[len("BENCH_"):]
        try:
            reports[name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            reports[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return reports


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def render_bench_summary(reports: Dict[str, dict]) -> str:
    """One table over every collected bench report: a row per criterion
    of each report's envelope (see :func:`repro.harness.kernel.write_envelope`),
    so a new bench shows up here with no further wiring."""
    if not reports:
        return "no BENCH_*.json reports found (run the bench targets first)"
    rows = []
    failing = 0
    for name, report in sorted(reports.items()):
        if "error" in report:
            rows.append([name, "unreadable", report["error"], "-", "FAIL"])
            failing += 1
            continue
        criteria = report.get("criteria")
        if not isinstance(criteria, list):
            rows.append([name, "no criteria envelope", "-", "-", "FAIL"])
            failing += 1
            continue
        for criterion in criteria:
            ok = bool(criterion.get("ok"))
            failing += not ok
            rows.append(
                [
                    name,
                    str(criterion.get("name", "?")),
                    _cell(criterion.get("value")),
                    _cell(criterion.get("threshold")),
                    "PASS" if ok else f"FAIL: {criterion.get('message', '')}",
                ]
            )
    table = render_table(["bench", "criterion", "value", "threshold", "verdict"], rows)
    return (
        f"Collected bench reports\n{table}\n"
        f"{len(reports)} reports, {len(rows)} criteria, {failing} failing"
    )
