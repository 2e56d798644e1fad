"""Process-wide labeled metrics: the standing view of system health.

The spans of :mod:`repro.obs.span` decompose *one* access (and
:class:`~repro.proxy.metrics.AccessMetrics` is a view of them). A
:class:`MetricsRegistry` is the other leg of the observability stack:
continuously aggregated counters, gauges, and fixed-bucket histograms
that the alert engine (:mod:`repro.obs.alerts`) and the SLO plane
(:mod:`repro.obs.slo`) read on a fixed sim-clock cadence. A series
exists only if a rule or an objective reads it: the stack emits five
(DESIGN §4f), and ``tests/obs/test_series_census.py`` holds the set.

Three instrument kinds, deliberately Prometheus-shaped:

* :class:`Counter` — monotone accumulation (``inc``);
* :class:`Gauge` — a settable level (``set``/``inc``/``dec``);
* :class:`Histogram` — fixed upper-bound buckets plus exact sum/count
  (``observe``), so latency distributions survive aggregation.

Instruments are *labeled*: ``registry.counter(name, labelnames=("op",))``
returns a parent whose ``labels(op="globedoc.get")`` hands out a cached
child series — the hot path after the first call is one dict lookup.

Derived values (circuit-breaker states, feed staleness) are refreshed
by *collectors*: callbacks registered with
:meth:`MetricsRegistry.register_collector` and run by
:meth:`MetricsRegistry.collect` before every evaluation, so pull-style
gauges stay current without per-operation bookkeeping.

Disabled cost: every instrumented component defaults to
:data:`NOOP_METRICS`, whose instruments are one shared allocation-free
object (``labels()`` returns itself, ``inc``/``set``/``observe`` are
no-ops) — mirroring :data:`~repro.obs.span.NOOP_TRACER`. Code that
must read a clock to observe a latency guards on
``metrics.enabled`` (a plain attribute) so the disabled path performs
no clock reads.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.clock import Clock, RealClock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopInstrument",
    "NoopMetricsRegistry",
    "NOOP_METRICS",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram upper bounds (seconds), tuned for the simulated
#: WAN's access latencies: sub-millisecond cache hits up to multi-second
#: retry storms. ``+Inf`` is always implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_key(labelnames: Tuple[str, ...], kv: Mapping[str, Any]) -> Tuple[str, ...]:
    if set(kv) != set(labelnames):
        raise ValueError(
            f"labels {sorted(kv)} do not match declared labelnames "
            f"{sorted(labelnames)}"
        )
    return tuple(str(kv[name]) for name in labelnames)


class _Instrument:
    """Common parent: name, help text, label declaration, child cache.

    An unlabeled instrument is its own single series; a labeled one
    hands out child series through :meth:`labels`.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **kv: Any):
        """The child series for this label combination (cached)."""
        if not self.labelnames:
            if kv:
                raise ValueError(f"metric {self.name!r} declares no labels")
            return self._children[()]
        key = _label_key(self.labelnames, kv)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Every (label-values, child) pair, sorted by label values."""
        return sorted(self._children.items(), key=lambda item: item[0])

    def _default(self):
        """The single child of an unlabeled instrument."""
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled; call .labels(...) first"
            )
        return self._children[()]


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Counter(_Instrument):
    """A monotonically increasing count (events, bytes, rejections)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(child.value for child in self._children.values())


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Instrument):
    """A level that can go up and down (states, lags, ratios)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def total(self) -> float:
        return sum(child.value for child in self._children.values())

    def max(self) -> float:
        """Largest value over every series (0.0 when none exist)."""
        return max((c.value for c in self._children.values()), default=0.0)


class _HistogramChild:
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper-bound, cumulative-count) pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class Histogram(_Instrument):
    """Fixed-bucket distribution with exact sum and count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        super().__init__(name, help=help, labelnames=labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def sum(self) -> float:
        return self._default().sum

    @property
    def count(self) -> int:
        return self._default().count

    def total_sum(self) -> float:
        """Summed ``sum`` over every labeled series."""
        return sum(child.sum for child in self._children.values())

    def total_count(self) -> int:
        return sum(child.count for child in self._children.values())


_KIND_OF = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """The process-wide instrument registry.

    One registry per monitored deployment (a testbed run, a harness
    target); components receive it at construction and create their
    instruments through the typed factories below. Re-requesting an
    existing name returns the same instrument — provided the kind and
    labelnames agree — so shared instruments (every client stack's
    ``proxy_requests_total``) aggregate naturally.

    ``clock`` is the time source components use for latency
    observations; inject the experiment's
    :class:`~repro.sim.clock.SimClock` so measured durations are
    simulated seconds.
    """

    #: Real registries report True; the NOOP registry False. Instrument
    #: code uses this single attribute to skip clock reads when disabled.
    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else RealClock()
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        instrument = cls(name, help=help, labelnames=labelnames, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    @property
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # ------------------------------------------------------------------
    # Collectors (pull-style gauges)
    # ------------------------------------------------------------------

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run by :meth:`collect` before every
        scrape; collectors refresh derived gauges (hit ratios, circuit
        states, staleness) from component state."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector()

    # ------------------------------------------------------------------
    # Aggregate accessors (the alert engine's read surface)
    # ------------------------------------------------------------------

    def total(self, name: str) -> float:
        """Counter/gauge value (histogram: sum) summed over all series
        of *name*; 0.0 for an unknown metric."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            return instrument.total_sum()
        return instrument.total()  # type: ignore[union-attr]

    def series_values(
        self, name: str, label_prefixes: Optional[Mapping[str, str]] = None
    ) -> List[float]:
        """Every series value of a counter/gauge (histogram: sums),
        optionally restricted to series whose label values start with
        the given prefixes (e.g. ``{"address": "globedoc/replica"}``)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return []
        out: List[float] = []
        for label_values, child in instrument.series():
            labels = dict(zip(instrument.labelnames, label_values))
            if label_prefixes and not all(
                str(labels.get(key, "")).startswith(prefix)
                for key, prefix in label_prefixes.items()
            ):
                continue
            out.append(
                child.sum if isinstance(instrument, Histogram) else child.value
            )
        return out


class NoopInstrument:
    """The do-nothing instrument every kind collapses to when disabled."""

    __slots__ = ()

    def labels(self, **kv: Any) -> "NoopInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


_NOOP_INSTRUMENT = NoopInstrument()


class NoopMetricsRegistry:
    """A registry whose instruments cost (almost) nothing.

    Mirrors :class:`~repro.obs.span.NoopTracer`: instrumented
    constructors default to :data:`NOOP_METRICS`, so with no registry
    installed the instrumentation adds one no-op method call per event —
    no allocation, no clock reads (latency code guards on ``enabled``).
    Collectors are silently dropped: there is nothing to scrape.
    """

    __slots__ = ()

    enabled = False
    clock: Clock = RealClock()

    def counter(self, name: str, help: str = "", labelnames=()) -> NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames=()) -> NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=None
    ) -> NoopInstrument:
        return _NOOP_INSTRUMENT

    def register_collector(self, collector: Callable[[], None]) -> None:
        pass

    def collect(self) -> None:
        pass


#: The shared disabled registry; ``metrics or NOOP_METRICS`` is the
#: idiom every instrumented constructor uses.
NOOP_METRICS = NoopMetricsRegistry()
