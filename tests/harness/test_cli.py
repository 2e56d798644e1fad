"""The ``python -m repro.harness`` command-line interface."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.harness.__main__ import main
from repro.harness.kernel import REGISTRY, BenchTarget, gate

ENVELOPE_KEYS = {"name", "seed", "env", "criteria", "body"}


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "ginger.cs.vu.nl" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Amsterdam" in out and "Paris" in out and "Ithaca" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "globedoc" in out and "ssl" in out

    def test_design_choices(self, capsys):
        assert main(["design-choices"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("Design choices")
        assert lines[1].split() == ["Comparison", "Claim", "Measured"]
        assert len(lines[3:]) == 9  # title, header, rule, then one row each
        assert lines[3].startswith("crypto ops")
        assert lines[-1].startswith("SSL connection reuse")

    def test_loadtest(self, capsys):
        assert main(["loadtest"]) == 0
        out = capsys.readouterr().out
        assert "single server" in out and "hotspot replication" in out
        assert "pre-crowd (0-30 s)" in out and "crowd peak (45-60 s)" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_trace_target_is_gone(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_options_are_repeats_seed_and_out(self, capsys):
        """Every bench is one run per seed; there is no smaller mode to
        ask for, and argparse rejects any option not listed here."""
        with pytest.raises(SystemExit):
            main(["--help"])
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--repeats", "--seed", "--out"}

    def test_seed_changes_nothing_structural(self, capsys):
        assert main(["fig4", "--repeats", "1", "--seed", "7"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_run_passes_gates(self, name, bench_report, capsys, tmp_path, monkeypatch):
        """Every registered bench through the CLI: exit 0, the success
        line, and a five-key envelope whose criteria all hold. The run
        itself is the session's shared bench report."""
        target, report = REGISTRY[name], bench_report(name)
        shared = dataclasses.replace(target, run=lambda seed: report)
        monkeypatch.setitem(REGISTRY, name, shared)
        out_path = tmp_path / target.report_name
        assert main([name, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert f"{name} gates passed" in out and "FAIL" not in out
        assert f"{len(target.criteria(report))} criteria, 0 failing" in out
        envelope = json.loads(out_path.read_text())
        assert set(envelope) == ENVELOPE_KEYS
        assert envelope["name"] == name
        assert envelope["seed"] == 0
        assert set(envelope["env"]) == {"python", "platform", "cryptography"}
        assert envelope["criteria"] and all(c["ok"] for c in envelope["criteria"])

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_gate_failure_exits_nonzero(
        self, name, bench_report, capsys, tmp_path, monkeypatch
    ):
        """A red gate must fail the process (that is what CI keys on),
        print its ``FAIL:`` line, and still leave the report behind."""
        target, report = REGISTRY[name], bench_report(name)
        first, *rest = target.criteria(report)
        broken = dataclasses.replace(
            target,
            run=lambda seed: report,
            criteria=lambda report: [dataclasses.replace(first, ok=False), *rest],
        )
        monkeypatch.setitem(REGISTRY, name, broken)
        out_path = tmp_path / target.report_name
        assert main([name, "--out", str(out_path)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL: {first.message}" in out
        assert "gates passed" not in out
        envelope = json.loads(out_path.read_text())
        assert [c["ok"] for c in envelope["criteria"]].count(False) == 1

    def test_benches_runs_registry_in_order_and_fails_if_any_gate_does(
        self, capsys, tmp_path, monkeypatch
    ):
        ran = []

        def fake(name: str, ok: bool) -> BenchTarget:
            return BenchTarget(
                name,
                f"BENCH_{name}.json",
                run=lambda seed: ran.append((name, seed)) or {"n": name},
                criteria=lambda report: [gate("fine", ok, "==", True, f"{name} red")],
            )

        fakes = (fake("first", True), fake("second", False), fake("third", True))
        monkeypatch.setattr(
            "repro.harness.__main__.REGISTRY", {target.name: target for target in fakes}
        )
        out_dir = tmp_path / "reports"
        assert main(["benches", "--seed", "5", "--out", str(out_dir)]) == 1
        assert ran == [("first", 5), ("second", 5), ("third", 5)]
        assert "FAIL: second red" in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "BENCH_first.json", "BENCH_second.json", "BENCH_third.json",
        ]

    def test_bench_report_tabulates_the_committed_reports(self, capsys):
        assert main(["bench-report"]) == 0
        out = capsys.readouterr().out
        assert "Collected bench reports" in out
        assert "trace_profile" not in out
        assert " 0 failing" in out


class TestSameSeedSameOutput:
    """Simulated compute is modelled, not timed: two fresh interpreters
    (each with its own string-hash seed) print the same figure, byte for
    byte, whatever else the machine is doing."""

    @staticmethod
    def run(*args: str) -> str:
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "repro.harness", *args],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        return result.stdout

    @pytest.mark.parametrize("figure", ["fig4", "fig6"])
    def test_fresh_interpreters_print_identical_figures(self, figure):
        first = self.run(figure, "--repeats", "1")
        assert first == self.run(figure, "--repeats", "1")
