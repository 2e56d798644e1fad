"""The ``metrics`` keyword census. The stack keeps no metrics store:
timings are spans (DESIGN §4d). A ``metrics`` parameter in
``src/repro`` exists only because ``perf/world.py`` still passes
``metrics=`` to that constructor (ROADMAP 1(a) drops them), and its
body never reads it."""

from __future__ import annotations

import ast
import pathlib
from typing import Dict

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
WORLD = ROOT.parents[1] / "perf" / "world.py"
KEYWORDS = {"metrics", "metrics_client"}

#: The seven constructors ``perf/world.py`` passes ``metrics=`` to.
ACCEPTED = {
    "RpcClient",
    "PrefetchingRpcClient",
    "AccessScheduler",
    "ObjectServer",
    "SecurityChecker",
    "RevocationChecker",
    "GlobeDocProxy",
}


def census(source: str) -> Dict[str, bool]:
    """``"Qual.name(keyword)"`` -> whether the body reads it, for every
    function of *source* that takes a metrics keyword."""
    found: Dict[str, bool] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                for keyword in sorted(params & KEYWORDS):
                    found[f"{prefix}{child.name}({keyword})"] = any(
                        isinstance(name, ast.Name) and name.id == keyword
                        for statement in child.body
                        for name in ast.walk(statement)
                    )
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_every_metrics_keyword_is_one_perf_passes_and_none_is_read():
    sources = list(ROOT.rglob("*.py"))
    assert len(sources) > 100  # the walk really covered the package
    found: Dict[str, bool] = {}
    for path in sources:
        found.update(census(path.read_text(encoding="utf-8")))
    assert found == {f"{name}.__init__(metrics)": False for name in ACCEPTED}


def test_the_accepted_seven_are_what_perf_passes():
    calls = [
        node
        for node in ast.walk(ast.parse(WORLD.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and any(k.arg == "metrics" for k in node.keywords)
    ]
    assert {getattr(call.func, "id", None) for call in calls} == ACCEPTED


@pytest.mark.parametrize(
    "source, found",
    [
        ("class A:\n    def __init__(self, metrics=None):\n        pass", {"A.__init__(metrics)": False}),
        ("def f(*, metrics=None):\n    return metrics", {"f(metrics)": True}),
        ("def f(metrics_client=''):\n    g(x=metrics_client)", {"f(metrics_client)": True}),
        ("def f(tracer=None):\n    '''metrics'''", {}),
    ],
)
def test_census_sees_every_parameter_and_read(source, found):
    assert census(source) == found
