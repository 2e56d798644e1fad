"""Harness kernel: the bench registry, the gate evaluator, the report envelope.

Every gated bench is one :class:`BenchTarget` — a name, a report file, and
two functions: ``run(quick, seed)`` produces the bench's report and
``criteria(report)`` declares its gates as a list of :class:`Criterion`
(built with :func:`gate`). Everything else is shared and lives here once:
:func:`run_target` runs a bench, writes the envelope (also on failure),
prints the criteria table ``bench-report`` prints plus the ``FAIL:``
lines and returns the exit code; :func:`write_envelope` is the only
report writer; :data:`REGISTRY` is what the CLI, CI (``benches``) and
``bench-report`` iterate.

A new bench is a module with a ``TARGET`` plus one line in
:data:`_BENCH_MODULES`. A bench measures, a test decides: a gate belongs
here only if it thresholds a number the run *measures* (a speed-up, a
throughput multiple, availability per drop rate, containment seconds,
alert latency, attribution error). A yes/no on a deterministic run is a
tier-1 assertion — ``tests/harness/test_kernel.py::PINNED_GATES`` names,
for every gate retired under this rule, the test that decides it.
"""

from __future__ import annotations

import importlib
import json
import operator
import pathlib
import platform
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import cryptography

from repro.harness.report import render_bench_summary

__all__ = [
    "REPO_ROOT",
    "Criterion",
    "BenchTarget",
    "REGISTRY",
    "gate",
    "problems",
    "write_envelope",
    "run_target",
]

#: The repository checkout: reports are written here by default.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: Bench modules in registry order (the order ``benches`` runs them).
_BENCH_MODULES = (
    "security_bench",
    "chaos",
    "revocation_bench",
    "monitor",
    "profile_bench",
)

_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Criterion:
    """One evaluated gate. ``message`` is the ``FAIL:`` line printed
    (and the problem reported) when ``ok`` is false."""

    name: str
    ok: bool
    value: object
    threshold: object
    message: str


def gate(name: str, value, op: str, threshold, message: str) -> Criterion:
    """Evaluate ``value <op> threshold`` into a :class:`Criterion`."""
    return Criterion(name, bool(_OPS[op](value, threshold)), value, threshold, message)


def problems(criteria: List[Criterion]) -> List[str]:
    """The message of every failed criterion (empty = all gates pass)."""
    return [c.message for c in criteria if not c.ok]


@dataclass(frozen=True)
class BenchTarget:
    """One gated bench, as the CLI and CI see it."""

    name: str  #: CLI target name
    report_name: str  #: ``BENCH_*.json`` file name under the repo root
    run: Callable[[bool, int], object]  #: ``run(quick, seed)`` -> report
    criteria: Callable[[object], List[Criterion]]


def __getattr__(name: str):
    # REGISTRY is built on first access: the bench modules import this
    # module for Criterion/gate, so importing them at load time would be
    # circular whenever a bench module is imported first.
    if name != "REGISTRY":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    targets = (
        importlib.import_module(f"repro.harness.{module}").TARGET
        for module in _BENCH_MODULES
    )
    registry: Dict[str, BenchTarget] = {target.name: target for target in targets}
    globals()["REGISTRY"] = registry
    return registry


def write_envelope(
    path: pathlib.Path,
    target: BenchTarget,
    report,
    criteria: List[Criterion],
    quick: bool,
    seed: int,
) -> dict:
    """Write (and return) the one report shape every bench shares."""
    envelope = {
        "name": target.name,
        "seed": seed,
        "quick": quick,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cryptography": cryptography.__version__,
        },
        "criteria": [asdict(c) for c in criteria],
        "body": report if isinstance(report, dict) else report.to_dict(),
    }
    path.write_text(json.dumps(envelope, indent=2) + "\n")
    return envelope


def run_target(
    target: BenchTarget, quick: bool, seed: int, out: Optional[pathlib.Path] = None
) -> int:
    """Run one bench end to end; the process exit code (0 = gates green).

    The report is written before the gates are judged, so a red run
    still leaves its evidence behind.
    """
    report = target.run(quick, seed)
    criteria = target.criteria(report)
    path = out if out is not None else REPO_ROOT / target.report_name
    envelope = write_envelope(path, target, report, criteria, quick, seed)
    print(render_bench_summary({target.name: envelope}))
    failed = problems(criteria)
    for problem in failed:
        print(f"FAIL: {problem}")
    if failed:
        return 1
    print(f"\nall {len(criteria)} {target.name} gates passed; report written to {path}")
    return 0
