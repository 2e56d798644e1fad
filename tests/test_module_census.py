"""Every module of ``src/repro`` is run by something that is not a test:
the harness CLI, a bench, the composition root, a ``perf/`` workload or an
example. A module only tests import is a capability nothing measures; it
goes, or it is named here with the reason it stays.

The same holds inside a module. Every ``@rpc_method`` op has a sender
outside the tests, and every counter ``src/repro`` bumps is read outside
them; a counter only a test reads is named in ``WRITE_ONLY`` with the
reason it stays."""

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
#: Counters ``src/repro`` bumps that nothing outside the tests reads,
#: each with the reason it stays.
WRITE_ONLY = {
    **dict.fromkeys(
        (
            "recovered", "recovered_records", "recovered_addresses",
            "recovered_deltas", "recovered_grants", "reverified_deltas",
            "statements_recovered",
        ),
        "a recovery count that tests/harness/test_kernel.py::PINNED_GATES "
        "maps a retired gate onto",
    ),
    **dict.fromkeys(
        ("total_failures", "total_successes"),
        "the retry-parity oracle: handle_many's per-address health records "
        "equal handle's",
    ),
    **dict.fromkeys(
        ("intercepted", "lie_count", "requests_served"),
        "evidence that an attack fired, so a rejection test is not vacuous",
    ),
    **dict.fromkeys(
        ("seen", "unclosed_total"),
        "sink accounting: spans a sink took in, and spans never closed",
    ),
}


def non_test_files():
    """The package plus what runs it: ``perf/`` and the examples (not
    ``perf/tests``)."""
    return [
        *sorted((SRC / "repro").rglob("*.py")),
        *sorted((REPO / "perf").glob("*.py")),
        *sorted((REPO / "examples").glob("*.py")),
    ]


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def rpc_decorators(tree: ast.AST):
    """Each ``@rpc_method("op")`` call in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Call)
                    and getattr(decorator.func, "id", None) == "rpc_method"
                ):
                    yield decorator


def rpc_ops() -> set:
    """Every op name ``src/repro`` serves."""
    return {
        decorator.args[0].value
        for path in (SRC / "repro").rglob("*.py")
        for decorator in rpc_decorators(parse(path))
    }


def sent_strings() -> set:
    """Every string constant outside the tests, ``@rpc_method``
    arguments excepted (an op's own decorator is not a sender)."""
    found = set()
    for path in non_test_files():
        tree = parse(path)
        served = {id(arg) for d in rpc_decorators(tree) for arg in d.args}
        found.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in served
        )
    return found


def bumped_attributes() -> set:
    """Every attribute ``src/repro`` bumps with an augmented assignment."""
    return {
        node.target.attr
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)
    }


def _serialized_fields(tree: ast.Module) -> set:
    """The fields of *tree*'s dataclasses when the module serializes
    with ``asdict``: a report field is read by the report it lands in."""
    if not any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
        for node in ast.walk(tree)
    ):
        return set()
    return {
        stmt.target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def read_attributes() -> set:
    """Every attribute loaded outside the tests, plus serialized report
    fields."""
    found = set()
    for path in non_test_files():
        tree = parse(path)
        found |= _serialized_fields(tree)
        found.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return found


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
    for node in ast.walk(parse(path)):
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


def test_every_op_has_a_sender_outside_the_tests():
    """An op is sent by name, or, for a replica op, by the method suffix
    ``ProxyLR`` prefixes with ``globedoc.``."""
    ops = rpc_ops()
    assert len(ops) > 20  # the walk really found the RPC surface
    sent = sent_strings()
    unsent = {
        op
        for op in ops
        if op not in sent
        and not (op.startswith("globedoc.") and op.split(".", 1)[1] in sent)
    }
    assert unsent == set()


def test_every_counter_is_read_outside_the_tests():
    """Attributes match by name, so a name read anywhere covers every
    counter of that name."""
    bumped = bumped_attributes()
    assert len(bumped) > 20  # the walk really found the counters
    assert bumped - read_attributes() == set(WRITE_ONLY)
