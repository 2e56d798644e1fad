"""The thread census: the client runs on the thread that calls it.

A pipelined batch is waves of ``call_many`` issued and replayed on the
calling thread, so the only threads in ``src/repro`` are the TCP
server's. Every module that imports ``threading`` is named here with
what it keeps; the locks stay because a ``TcpEndpointServer`` handler
thread, or a caller's own threads, may reach the object holding them.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: Module → {"Class.attribute": the ``threading`` object it holds}.
KEPT = {
    "crypto/verifycache.py": {"VerificationCache._lock": "RLock"},
    "net/rpc.py": {"_AnswerMemo._lock": "Lock"},  # kept answers, per server
    "net/tcpnet.py": {
        "TcpEndpointServer._lock": "Lock",  # the service table handlers read
        "TcpEndpointServer._thread": "Thread",  # the accept loop
        "TcpTransport._lock": "Lock",  # the connection pools
    },
    "obs/sinks.py": {"RingBufferSink._lock": "Lock"},
    "obs/span.py": {"Tracer._local": "local"},  # one span stack per thread
    "proxy/contentcache.py": {"ContentCache._lock": "RLock"},
    "proxy/pipeline.py": {"PrefetchingRpcClient._lock": "RLock"},
}


def census(source: str) -> Dict[str, str]:
    """``"Class.attribute"`` → ``threading`` name, for every class
    attribute of *source* assigned a ``threading.<name>(...)`` object
    (in a method body or as a dataclass field's default factory)."""
    found: Dict[str, str] = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            attribute = getattr(target, "attr", getattr(target, "id", None))
            for ref in ast.walk(value):
                if (
                    isinstance(ref, ast.Attribute)
                    and isinstance(ref.value, ast.Name)
                    and ref.value.id == "threading"
                ):
                    found[f"{cls.name}.{attribute}"] = ref.attr
    return found


def imports_threading(tree: ast.AST) -> bool:
    return any(
        (isinstance(node, ast.Import) and any(a.name == "threading" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "threading")
        for node in ast.walk(tree)
    )


def thread_constructions(tree: ast.AST) -> int:
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Thread"
        for node in ast.walk(tree)
    )


def sources():
    paths = sorted(ROOT.rglob("*.py"))
    assert len(paths) > 100  # the walk really covered the package
    for path in paths:
        text = path.read_text(encoding="utf-8")
        yield path.relative_to(ROOT).as_posix(), text, ast.parse(text)


def test_every_threading_module_is_named_with_what_it_keeps():
    found = {
        module: census(text) for module, text, tree in sources() if imports_threading(tree)
    }
    assert found == KEPT


def test_only_the_tcp_server_constructs_a_thread():
    constructs = {
        module for module, _, tree in sources() if thread_constructions(tree)
    }
    assert constructs == {"net/tcpnet.py"}


@pytest.mark.parametrize(
    "source, found, threads",
    [
        ("class A:\n    def __init__(self):\n        self._lock = threading.Lock()",
         {"A._lock": "Lock"}, 0),
        ("@dataclass\nclass B:\n    _l: threading.Lock = field(default_factory=threading.RLock)",
         {"B._l": "RLock"}, 0),
        ("class C:\n    def go(self):\n        self.t = threading.Thread(target=f)",
         {"C.t": "Thread"}, 1),
        ("def f():\n    Thread(target=g).start()", {}, 1),
        ("class D:\n    x: Optional[threading.Thread] = None", {}, 0),
    ],
)
def test_census_reads_what_it_should(source, found, threads):
    assert census(source) == found
    assert thread_constructions(ast.parse(source)) == threads
