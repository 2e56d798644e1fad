"""The registry holds exactly the five series (DESIGN §4f) an alert rule
or SLO reads: a series nobody reads counts an event twice, and a rule over
a series nobody emits reads 0 and never fires."""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent
SERIES = {
    "replica_circuit_state",
    "revocation_view_staleness_seconds",
    "revocation_rejections_total",
    "proxy_requests_total",
    "proxy_access_seconds",
}
READERS = {"ThresholdRule", "RateRule", "LatencyObjective", "AvailabilityObjective"}


def names(paths, pick) -> set:
    return {
        arg.value
        for path in paths
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call, ast.Call)
        for arg in pick(call)
        if isinstance(arg, ast.Constant)
    }


def declared(call) -> list:
    """The name passed to a ``.counter``/``.gauge``/``.histogram`` call."""
    factory = getattr(call.func, "attr", None) in {"counter", "gauge", "histogram"}
    return call.args[:1] if factory else []


def read(call) -> list:
    """The ``metric=`` given to a rule or an objective."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    return [k.value for k in call.keywords if k.arg == "metric"] if name in READERS else []


def test_every_emitted_series_is_read_and_every_read_series_emitted():
    emitters = [p for p in ROOT.rglob("*.py") if p.relative_to(ROOT).parts[0] != "obs"]
    assert len(emitters) > 100  # the walk really covered the package
    assert names(emitters, declared) == SERIES
    assert names((ROOT / "harness").rglob("*.py"), read) == SERIES
