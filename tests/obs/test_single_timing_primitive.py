"""Spans are the only timing primitive on the access path.

Three guards: the derived Fig. 4 view conserves the time of a real
access (what the profile bench's span/metrics consistency gate used to
stand in for), no second timing mechanism can grow back unnoticed —
nothing public under the access path takes a ``timer`` — and nothing
under ``src/repro`` reads a ``time``-module clock except ``RealClock``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro
import repro.net
import repro.proxy
import repro.proxy.metrics
import repro.versioning.client
from repro.harness.experiment import Testbed
from repro.obs import RingBufferSink, Tracer
from repro.proxy.contentcache import ContentCache
from repro.proxy.metrics import AccessMetrics

HOST = "canardo.inria.fr"


@pytest.fixture(scope="module")
def world():
    testbed = Testbed()
    owner = testbed.document_owner(
        "vu.nl/conserved", {"index.html": b"<html>" + b"x" * 20_000 + b"</html>"}
    )
    return testbed, testbed.publish(owner)


def traced_stack(testbed, with_cache: bool, walk: bool = True):
    ring = RingBufferSink()
    tracer = Tracer(clock=testbed.clock, sinks=(ring,))
    cache = (
        ContentCache(clock=testbed.network.host(HOST), tracer=tracer)
        if with_cache
        else None
    )
    testbed.fig3_walk = walk
    try:
        return testbed.client_stack(HOST, content_cache=cache, tracer=tracer), ring
    finally:
        testbed.fig3_walk = True


class TestConservation:
    @pytest.mark.parametrize(
        "with_cache, walk",
        [(False, True), (True, True), (False, False)],
        ids=["no-cache", "cache", "one-bind"],
    )
    def test_derived_total_equals_the_root_span(self, world, with_cache, walk):
        """Under a SimClock time only advances inside network transfers
        and compute regions, every one of which sits under a span the
        phase table names — so nothing is lost and nothing counted twice.
        That holds for a cold access bundled in one ``globedoc.bind`` too."""
        testbed, published = world
        stack, ring = traced_stack(testbed, with_cache, walk)
        for access in ("cold", "warm"):  # warm: a cache hit when caching
            ring.clear()
            assert stack.proxy.handle(published.url("index.html")).ok
            (root,) = ring.named("proxy.handle")
            metrics = AccessMetrics.from_spans(ring.spans)
            assert root.duration > 0
            assert metrics.total == pytest.approx(root.duration, rel=0.01), access
            if access == "cold":
                assert (metrics.phase_time("bind_replica") > 0) == (not walk)
        hit = with_cache
        assert (metrics.phase_time("get_page_element") == 0.0) == hit

    def test_rejected_access_is_still_fully_decomposed(self, world):
        testbed, published = world
        stack, ring = traced_stack(testbed, with_cache=False)
        replica = testbed.object_server.replica_for_oid(published.oid_hex)
        elements = replica.lr.state.elements
        genuine = elements["index.html"]
        elements["index.html"] = genuine.with_content(b"tampered")
        try:
            response = stack.proxy.handle(published.url("index.html"))
        finally:
            elements["index.html"] = genuine
        assert response.status == 403
        (root,) = ring.named("proxy.handle")
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.phase_time("verify_element_hash") > 0  # the rejecting check
        assert metrics.total == pytest.approx(root.duration, rel=0.01)

    def test_measured_access_adds_the_client_charge_as_a_span(self, world):
        testbed, published = world
        stack, ring = traced_stack(testbed, with_cache=False)
        stack.proxy.handle(published.url("index.html"))  # stale spans to discard
        before = testbed.clock.now()
        response, metrics = testbed.measured_access(
            stack.proxy, published.url("index.html"), ring
        )
        assert response.ok
        assert [span.name for span in ring.spans if span.parent_id is None] == [
            "client_processing", "proxy.handle",
        ]
        assert metrics.phases[0] == (
            "client_processing", pytest.approx(testbed.topology.client_overhead),
        )
        assert metrics.total == pytest.approx(testbed.clock.now() - before, rel=0.01)


def public_callables(module):
    """(qualified name, callable) for a module's public functions and
    the public methods of its public classes, defined in that module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def access_path_modules():
    for package in (repro.proxy, repro.net):
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            yield importlib.import_module(info.name)
    yield repro.versioning.client


#: The ``time`` module's clocks; ``time.sleep`` reads none.
CLOCKS = {"time", "perf_counter", "monotonic", "process_time"}
CLOCKS |= {name + "_ns" for name in CLOCKS}


def clock_reads(source: str) -> list:
    """Line numbers of calls to a ``time``-module clock in *source*, made
    through the module (``time.perf_counter()``, under any alias) or
    through a name imported from it (``from time import monotonic``)."""
    tree = ast.parse(source)
    modules, direct = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "time"}
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            direct |= {a.asname or a.name for a in node.names if a.name in CLOCKS}

    def is_clock(fn: ast.expr) -> bool:
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            return fn.value.id in modules and fn.attr in CLOCKS
        return isinstance(fn, ast.Name) and fn.id in direct

    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and is_clock(n.func)]


class TestNoSecondMechanism:
    def test_no_wall_clock_read_outside_the_clock_module(self):
        """Sim time is the cost table's; a wall-clock read anywhere else
        in the library would make a figure differ run to run."""
        root = pathlib.Path(repro.__file__).parent
        reads = {
            path.relative_to(root).as_posix(): clock_reads(path.read_text(encoding="utf-8"))
            for path in root.rglob("*.py")
        }
        assert len(reads) > 100  # the walk really covered the package
        assert reads.pop("sim/clock.py")  # RealClock.now, the one allowed read
        assert {path: lines for path, lines in reads.items() if lines} == {}

    @pytest.mark.parametrize(
        "source, lines",
        [
            ("import time\ntime.perf_counter()", [2]),
            ("import time as t\nt.monotonic_ns()", [2]),
            ("from time import process_time\nprocess_time()", [2]),
            ("from time import time as now\nnow()", [2]),
            ('"""Advances monotonically."""\nimport time\ntime.sleep(0)', []),
        ],
    )
    def test_guard_sees_every_spelling_and_only_clocks(self, source, lines):
        assert clock_reads(source) == lines

    def test_no_public_callable_takes_a_timer(self):
        checked = 0
        offenders = []
        for module in access_path_modules():
            for qualname, fn in public_callables(module):
                checked += 1
                if "timer" in inspect.signature(fn).parameters:
                    offenders.append(qualname)
        assert checked > 100  # the walk really covered the access path
        assert offenders == []

    def test_metrics_module_exports_only_the_derived_view(self):
        assert sorted(repro.proxy.metrics.__all__) == [
            "AccessMetrics", "SECURITY_PHASES", "SPAN_PHASES",
        ]
