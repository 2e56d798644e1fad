"""Every module of ``src/repro`` is run by something that is not a test:
the harness CLI, a bench, the composition root, a ``perf/`` workload or an
example. A module only tests import is a capability nothing measures; it
goes, or it is named here with the reason it stays."""

import ast
import pathlib

import repro
from repro.harness import kernel

SRC = pathlib.Path(repro.__file__).parent.parent
REPO = SRC.parent
UNREACHED = {
    # The reference suite the conformance tests compare the attack
    # matrix against.
    "repro.attacks.scenarios",
}


def module_file(name: str):
    """``repro.pkg`` → ``pkg/__init__.py``; ``repro.pkg.mod`` → ``mod.py``."""
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports(path: pathlib.Path) -> set:
    """Every ``repro`` module *path* names in an import, nested ones too.
    ``from repro.pkg import x`` names ``repro.pkg`` and, when ``x`` is a
    module, ``repro.pkg.x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in found if name.split(".")[0] == "repro" and module_file(name)}


def reached() -> set:
    entries = [
        SRC / "repro" / "harness" / "__main__.py",
        SRC / "repro" / "deployment.py",
        *(module_file(f"repro.harness.{m}") for m in kernel._BENCH_MODULES),
        *sorted((REPO / "perf").glob("*.py")),
        *sorted((REPO / "examples").glob("*.py")),
    ]
    seen = {module_name(p) for p in entries if SRC in p.parents}
    todo = list(entries)
    while todo:
        for name in imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(module_file(name))
    return seen


def test_only_the_declared_modules_are_unreached():
    modules = {
        module_name(p) for p in (SRC / "repro").rglob("*.py") if p.name != "__init__.py"
    }
    assert len(modules) > 90  # the walk really covered the package
    assert modules - reached() == UNREACHED
