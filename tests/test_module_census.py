"""Every module of ``src/repro`` is run by something that is not a test:
the harness CLI, a bench, the composition root, a ``perf/`` workload or an
example. A module only tests import is a capability nothing measures; it
goes, or it is named here with the reason it stays.

The same holds inside a module. Every ``@rpc_method`` op has a sender
outside the tests, and every counter ``src/repro`` bumps is read outside
them; a counter only a test reads is named in ``WRITE_ONLY`` with the
reason it stays. A counter is a (defining class, attribute) pair, so a
same-named attribute of another class does not cover it."""

import ast
import functools
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
#: Counters ``src/repro`` bumps that nothing outside the tests reads, as
#: (defining class, attribute), each with the reason it stays.
WRITE_ONLY = {
    **dict.fromkeys(
        (
            ("RevocationFeed", "recovered"),
            ("DurableNamingStore", "recovered_records"),
            ("DurableLocationStore", "recovered_addresses"),
            ("VersionedObjectStore", "recovered_deltas"),
            ("VersionedObjectStore", "recovered_grants"),
            ("VersionedObjectStore", "reverified_deltas"),
            ("RevocationCheckerStats", "statements_recovered"),
        ),
        "a recovery count that tests/harness/test_kernel.py::PINNED_GATES "
        "maps a retired gate onto",
    ),
    **dict.fromkeys(
        (("HealthRecord", "total_failures"), ("HealthRecord", "total_successes")),
        "the retry-parity oracle: handle_many's per-address health records "
        "equal handle's",
    ),
    **dict.fromkeys(
        (
            ("MitmTransport", "intercepted"),
            ("LyingLocationService", "lie_count"),
            ("MaliciousReplica", "requests_served"),
        ),
        "evidence that an attack fired, so a rejection test is not vacuous",
    ),
    **dict.fromkeys(
        (("RingBufferSink", "seen"), ("SpanStats", "unclosed_total")),
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


@functools.lru_cache(maxsize=None)
def parse(path: pathlib.Path) -> ast.Module:
    """*path*'s syntax tree, parsed once per session (callers only read it)."""
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


def scoped(tree: ast.AST):
    """Each node of *tree* with the name of the innermost class it is
    written in (``None`` outside every class)."""
    todo = [(tree, None)]
    while todo:
        node, cls = todo.pop()
        yield node, cls
        inner = node.name if isinstance(node, ast.ClassDef) else cls
        todo.extend((child, inner) for child in ast.iter_child_nodes(node))


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def declared_attributes() -> dict:
    """Attribute → the ``(module, class)`` pairs that declare it: by an
    annotation in the class body (a dataclass field) or by assigning
    ``self.<attribute>`` in a method."""
    declared = {}
    for path in (SRC / "repro").rglob("*.py"):
        module = module_name(path)
        for node, cls in scoped(parse(path)):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        declared.setdefault(stmt.target.id, set()).add((module, node.name))
            elif (
                cls is not None
                and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and _is_self(node.value)
            ):
                declared.setdefault(node.attr, set()).add((module, cls))
    return declared


def bumped_counters() -> set:
    """Every counter ``src/repro`` bumps with an augmented assignment, as
    (defining class, attribute). ``self.x += …`` defines ``x`` on the
    class it is written in; ``other.x += …`` on the one class declaring
    ``x`` in the bump's own module, or else in the package. A bump no
    single class declares is keyed ``(None, x)``: it needs a name in
    ``WRITE_ONLY``."""
    declared = declared_attributes()
    found = set()
    for path in (SRC / "repro").rglob("*.py"):
        module = module_name(path)
        for node, cls in scoped(parse(path)):
            if not (isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)):
                continue
            target = node.target
            if _is_self(target.value) and cls is not None:
                found.add((cls, target.attr))
                continue
            owners = declared.get(target.attr, set())
            local = {c for m, c in owners if m == module}
            candidates = local or {c for _, c in owners}
            found.add((candidates.pop() if len(candidates) == 1 else None, target.attr))
    return found


def _serialized_fields(tree: ast.Module) -> set:
    """The (class, field) pairs of *tree*'s dataclasses when the module
    serializes with ``asdict``: a report field is read by the report it
    lands in."""
    if not any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
        for node in ast.walk(tree)
    ):
        return set()
    return {
        (node.name, stmt.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _source_of(name: str):
    """The file of a ``repro`` or ``perf`` module, or ``None``."""
    if name.split(".")[0] == "perf":
        path = REPO.joinpath(*name.split(".")).with_suffix(".py")
        return path if path.is_file() else None
    return module_file(name)


@functools.lru_cache(maxsize=None)
def _imported_sources(path: pathlib.Path) -> tuple:
    """(name, file) of each ``repro``/``perf`` module *path* imports."""
    return tuple(
        (name, _source_of(name)) for name in imported_names(path) if _source_of(name)
    )


def reachable(path: pathlib.Path) -> set:
    """*path*'s module and every ``repro``/``perf`` module it imports,
    directly or through the modules it imports."""
    found, todo = set(), [path]
    while todo:
        for name, source in _imported_sources(todo.pop()):
            if name not in found:
                found.add(name)
                todo.append(source)
    if SRC in path.parents:
        found.add(module_name(path))
    return found


def read_counters(counters: set) -> set:
    """The *counters* read outside the tests: ``C.x`` is read by a load of
    ``.x`` in a module that reaches ``C``'s module through its imports
    (objects arrive through what the composition root builds, so a reader
    need not spell ``C``), or by serializing a dataclass field."""
    homes = {}
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef):
                homes.setdefault(node.name, set()).add(module_name(path))
    found = set()
    for path in non_test_files():
        tree = parse(path)
        found |= _serialized_fields(tree)
        loads = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        modules = reachable(path)
        found.update(
            (cls, attr)
            for cls, attr in counters
            if attr in loads and homes.get(cls, set()) & modules
        )
    return found & counters


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


def imported_names(path: pathlib.Path) -> set:
    """Every name *path* imports, nested imports too. ``from pkg import
    x`` names ``pkg`` and ``pkg.x`` (a module only when ``x`` is one)."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def imports(path: pathlib.Path) -> set:
    """Every ``repro`` module *path* names in an import, nested ones too."""
    return {
        name
        for name in imported_names(path)
        if name.split(".")[0] == "repro" and module_file(name)
    }


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
    """A counter is read by a module that can hold its class, not by any
    same-named attribute: ``SslServer.request_count`` is not read by
    ``GlobeDocProxy.request_count``'s reader."""
    bumped = bumped_counters()
    assert len(bumped) > 20  # the walk really found the counters
    assert ("VerifyCacheStats", "hits") in bumped  # and resolved ``self.stats.hits``
    assert bumped - read_counters(bumped) == set(WRITE_ONLY)
