"""Service-level objectives and burn-rate alerting.

An SLO turns a metrics stream into a yes/no promise — "99% of accesses
complete within 250 ms", "99.9% of accesses succeed" — and an *error
budget* (the tolerated bad fraction, ``1 - target``). This module
layers both on the existing observability plane:

* objectives read the :class:`~repro.obs.metrics.MetricsRegistry`
  directly — :class:`LatencyObjective` counts good events from a
  histogram's cumulative buckets (the threshold must sit on a bucket
  bound; anything else would silently measure a different promise),
  :class:`AvailabilityObjective` from a counter's labeled series;
* :class:`BurnRateRule` is an :class:`~repro.obs.alerts.AlertRule`
  measuring how fast the error budget burns over a trailing window
  (``bad_fraction / budget``; 1.0 = exactly on budget), so it plugs
  into the PR 5 :class:`~repro.obs.alerts.AlertEngine` lifecycle
  (pending → firing → resolved) unchanged;
* :class:`SloPlane` bundles the conventional fast/slow window pair per
  objective — the fast rule catches a cliff in minutes, the slow rule
  catches a simmer the fast window forgives — and renders per-objective
  compliance verdicts for the harness report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "SloObjective",
    "LatencyObjective",
    "AvailabilityObjective",
    "BurnRateRule",
    "BurnWindow",
    "SloPlane",
]


class SloObjective:
    """One promise over the registry: a target fraction of good events.

    Subclasses implement :meth:`counts` returning cumulative
    ``(good, total)`` event counts; everything else (budget, compliance,
    burn rates) derives from those two monotone numbers.
    """

    def __init__(self, name: str, target: float) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target}")
        self.name = name
        self.target = target

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction, ``1 - target``."""
        return 1.0 - self.target

    def counts(self, registry: MetricsRegistry) -> Tuple[float, float]:
        raise NotImplementedError  # pragma: no cover - abstract

    def compliance(self, registry: MetricsRegistry) -> float:
        """Lifetime good fraction (1.0 with no events: no traffic is
        not a breach)."""
        good, total = self.counts(registry)
        return (good / total) if total else 1.0

    def verdict(self, registry: MetricsRegistry) -> dict:
        good, total = self.counts(registry)
        compliance = (good / total) if total else 1.0
        return {
            "objective": self.name,
            "target": self.target,
            "events": total,
            "good": good,
            "compliance": compliance,
            "met": compliance >= self.target,
        }


class LatencyObjective(SloObjective):
    """"*target* of events complete within *threshold_s*" over one
    histogram metric.

    The threshold must exactly match one of the histogram's bucket
    bounds — cumulative bucket counts are only available at bounds, and
    rounding to a neighbouring bucket would quietly redefine the SLO.
    The check happens at evaluation time (the metric may not exist yet
    at construction); a missing metric reads as zero traffic.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        threshold_s: float,
        target: float,
    ) -> None:
        super().__init__(name, target)
        self.metric = metric
        self.threshold_s = float(threshold_s)

    def counts(self, registry: MetricsRegistry) -> Tuple[float, float]:
        instrument = registry.get(self.metric)
        if instrument is None:
            return (0.0, 0.0)
        if not isinstance(instrument, Histogram):
            raise ValueError(
                f"latency objective {self.name!r} needs a histogram, "
                f"{self.metric!r} is a {type(instrument).__name__}"
            )
        if self.threshold_s not in instrument.bounds:
            raise ValueError(
                f"latency objective {self.name!r}: threshold {self.threshold_s}s "
                f"is not a bucket bound of {self.metric!r} (bounds: "
                f"{list(instrument.bounds)})"
            )
        good = 0.0
        total = 0.0
        for _labels, child in instrument.series():
            for bound, cumulative in child.cumulative_buckets():
                if bound == self.threshold_s:
                    good += cumulative
                    break
            total += child.count
        return (good, total)


class AvailabilityObjective(SloObjective):
    """"*target* of events are good" over one labeled counter.

    Good events are the series whose labels start with ``good_labels``
    (e.g. ``{"outcome": "ok"}`` on ``proxy_requests_total``); the total
    is every series.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        good_labels: Mapping[str, str],
        target: float,
    ) -> None:
        super().__init__(name, target)
        if not good_labels:
            raise ValueError(f"availability objective {name!r} needs good_labels")
        self.metric = metric
        self.good_labels = dict(good_labels)

    def counts(self, registry: MetricsRegistry) -> Tuple[float, float]:
        total = sum(registry.series_values(self.metric))
        good = sum(registry.series_values(self.metric, self.good_labels))
        return (good, total)


class BurnRateRule(AlertRule):
    """Error-budget burn rate of one objective over a trailing window.

    The value is ``bad_fraction(window) / error_budget``: 1.0 means the
    service is consuming budget exactly as fast as the SLO tolerates;
    14.4 (the classic fast-burn bound) means a 30-day budget would be
    gone in two days. Sampled like :class:`~repro.obs.alerts.RateRule`
    — each evaluation appends ``(now, good, total)`` and the oldest
    sample still inside the window anchors the deltas. A window with no
    new events burns nothing.
    """

    def __init__(
        self,
        name: str,
        objective: SloObjective,
        window_seconds: float,
        threshold: float,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.objective = objective
        self.window_seconds = window_seconds
        self.threshold = threshold
        self._samples: Deque[Tuple[float, float, float]] = deque()

    def value(self, registry: MetricsRegistry, now: float) -> float:
        good, total = self.objective.counts(registry)
        self._samples.append((now, good, total))
        horizon = now - self.window_seconds
        while len(self._samples) >= 2 and self._samples[1][0] <= horizon:
            self._samples.popleft()
        anchor_time, anchor_good, anchor_total = self._samples[0]
        if anchor_time > horizon and len(self._samples) == 1:
            return 0.0  # first-ever sample: no window to measure yet
        d_total = total - anchor_total
        d_good = good - anchor_good
        if d_total <= 0:
            return 0.0
        bad_fraction = (d_total - d_good) / d_total
        return bad_fraction / self.objective.error_budget

    def breached(self, value: float) -> bool:
        return value > self.threshold


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate alert window: how far back, how hot."""

    window_seconds: float
    threshold: float
    severity: str = "warning"


@dataclass
class _Tracked:
    objective: SloObjective
    rules: List[BurnRateRule] = field(default_factory=list)


class SloPlane:
    """The set of objectives guarding one registry, wired to one engine.

    :meth:`add` registers an objective plus its fast/slow burn-rate
    rules (``None`` for a window it does without) on the engine (rule names ``<objective>:fast_burn`` /
    ``<objective>:slow_burn``); the engine's normal ``evaluate()``
    cadence then drives the alert lifecycle. :meth:`report` renders
    the per-objective verdicts with each rule's current state.
    """

    def __init__(self, registry: MetricsRegistry, engine: AlertEngine) -> None:
        self.registry = registry
        self.engine = engine
        self._tracked: Dict[str, _Tracked] = {}

    def add(
        self,
        objective: SloObjective,
        fast: Optional[BurnWindow],
        slow: Optional[BurnWindow],
    ) -> SloObjective:
        if objective.name in self._tracked:
            raise ValueError(f"objective {objective.name!r} already registered")
        tracked = _Tracked(objective=objective)
        for suffix, window in (("fast_burn", fast), ("slow_burn", slow)):
            if window is None:
                continue
            rule = BurnRateRule(
                name=f"{objective.name}:{suffix}",
                objective=objective,
                window_seconds=window.window_seconds,
                threshold=window.threshold,
                severity=window.severity,
            )
            self.engine.add_rule(rule)
            tracked.rules.append(rule)
        self._tracked[objective.name] = tracked
        return objective

    @property
    def objectives(self) -> List[SloObjective]:
        return [t.objective for t in self._tracked.values()]

    def verdicts(self) -> List[dict]:
        """Per-objective compliance + live burn-alert states."""
        out = []
        for tracked in self._tracked.values():
            verdict = tracked.objective.verdict(self.registry)
            verdict["alerts"] = {
                rule.name: self.engine.state_of(rule.name) for rule in tracked.rules
            }
            out.append(verdict)
        return out

    def report(self) -> dict:
        verdicts = self.verdicts()
        return {
            "objectives": verdicts,
            "all_met": all(v["met"] for v in verdicts),
            "alert_timeline": [
                e.to_dict()
                for e in self.engine.timeline
                if any(
                    e.rule.startswith(name + ":") for name in self._tracked
                )
            ],
        }
