"""Report rendering."""

from __future__ import annotations

import json

from repro.harness.fig4 import Fig4Row
from repro.harness.fig567 import Fig567Row
from repro.harness.report import render_fig4, render_fig567, render_table


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["A", "Blong"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)


def fig4_row(client, size, pct):
    return Fig4Row(
        client=client,
        size_bytes=size,
        overhead_percent=pct,
        security_seconds=0.01,
        total_seconds=0.05,
        repeats=1,
    )


class TestRenderFig4:
    def test_contains_series(self):
        rows = [
            fig4_row("Amsterdam", 1024, 25.0),
            fig4_row("Paris", 1024, 24.0),
            fig4_row("Amsterdam", 1024 * 1024, 10.0),
            fig4_row("Paris", 1024 * 1024, 5.0),
        ]
        out = render_fig4(rows)
        assert "Figure 4" in out
        assert "Amsterdam" in out and "Paris" in out
        assert "1KB" in out and "1MB" in out
        assert "25.0%" in out


class TestRenderFig567:
    def test_one_client_table(self):
        rows = [
            Fig567Row(
                client="Paris",
                object_label="obj (15KB)",
                total_bytes=15 * 1024,
                scheme=scheme,
                seconds=0.1,
                repeats=1,
            )
            for scheme in ("globedoc", "http", "ssl")
        ]
        out = render_fig567(rows, "Paris")
        assert "Figure 6" in out
        assert "globedoc" in out and "http" in out and "ssl" in out
        assert "100.0 ms" in out


class TestBenchAggregation:
    """Report discovery is by glob: any BENCH_*.json shows up, corrupt
    ones loudly."""

    def test_discovers_and_keys_by_name(self, tmp_path):
        from repro.harness.report import aggregate_bench_reports

        (tmp_path / "BENCH_revocation.json").write_text('{"proxies": 3}')
        (tmp_path / "BENCH_chaos.json").write_text('{"points": []}')
        (tmp_path / "unrelated.json").write_text("{}")
        reports = aggregate_bench_reports(tmp_path)
        assert sorted(reports) == ["chaos", "revocation"]
        assert reports["revocation"] == {"proxies": 3}

    def test_corrupt_report_surfaces_as_error(self, tmp_path):
        from repro.harness.report import aggregate_bench_reports

        (tmp_path / "BENCH_broken.json").write_text("{not json")
        reports = aggregate_bench_reports(tmp_path)
        assert "JSONDecodeError" in reports["broken"]["error"]

    def test_empty_directory(self, tmp_path):
        from repro.harness.report import (
            aggregate_bench_reports,
            render_bench_summary,
        )

        reports = aggregate_bench_reports(tmp_path)
        assert reports == {}
        assert "no BENCH_" in render_bench_summary(reports)

    def test_summary_renders_status_per_bench(self, tmp_path):
        from repro.harness.report import (
            aggregate_bench_reports,
            render_bench_summary,
        )

        (tmp_path / "BENCH_revocation.json").write_text(
            json.dumps(
                {
                    "name": "revocation",
                    "criteria": [
                        {"name": "overhead_ratio", "ok": True, "value": 1.4771234,
                         "threshold": 2.5, "message": "ratio too high"},
                    ],
                }
            )
        )
        (tmp_path / "BENCH_legacy.json").write_text('{"containment": []}')
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        out = render_bench_summary(aggregate_bench_reports(tmp_path))
        assert "revocation" in out and "overhead_ratio" in out
        assert "1.477" in out and "2.5" in out and "PASS" in out
        assert "legacy" in out and "no criteria envelope" in out
        assert "broken" in out and "unreadable" in out
        assert "3 reports, 3 criteria, 2 failing" in out


class TestConvergenceSection:
    """The rows of ``profile`` — the bench that still runs the former
    convergence bench's partition/heal workload — in the
    ``bench-report`` table."""

    def section(self, report) -> str:
        from repro.harness.profile_bench import TARGET, criteria
        from repro.harness.report import render_bench_summary

        return render_bench_summary(
            {
                "profile": {
                    "name": TARGET.name,
                    "criteria": [vars(c) for c in criteria(report)],
                }
            }
        )

    def test_absent_report_renders_nothing(self):
        from repro.harness.report import render_bench_summary

        assert "profile" not in render_bench_summary({})
        out = render_bench_summary({"profile": {"error": "x"}})
        assert "unreadable" in out and "PASS" not in out

    def test_full_report_digest(self, bench_report):
        out = self.section(bench_report("profile"))
        assert "stitch_rate" in out and "attribution_error" in out
        assert "FAIL" not in out and "2 criteria, 0 failing" in out

    def test_partial_report_tolerated(self):
        from repro.harness.report import render_bench_summary

        out = render_bench_summary({"profile": {"workload": {"reads": 6}}})
        assert "no criteria envelope" in out
        out = render_bench_summary({"profile": {"criteria": [{"name": "x"}]}})
        assert "FAIL" in out
