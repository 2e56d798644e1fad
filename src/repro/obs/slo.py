"""Service-level objectives and burn-rate alerting.

An SLO turns a stream of accesses into a yes/no promise — "99% of
accesses complete within 250 ms", "99.9% of accesses succeed" — and an
*error budget* (the tolerated bad fraction, ``1 - target``). This module
layers both on the existing observability plane:

* objectives are span sinks over the proxy's ``proxy.handle`` root
  span, one per GlobeDoc access: :class:`LatencyObjective` counts an
  access good when its span lasted at most the threshold,
  :class:`AvailabilityObjective` when its ``status`` attribute is 200.
  Add an objective to the tracer(s) of the proxies it judges;
* :class:`BurnRateRule` is an :class:`~repro.obs.alerts.AlertRule`
  measuring how fast the error budget burns over a trailing window
  (``bad_fraction / budget``; 1.0 = exactly on budget), so it plugs
  into the :class:`~repro.obs.alerts.AlertEngine` lifecycle
  (pending → firing → resolved) unchanged;
* :class:`SloPlane` bundles the conventional fast/slow window pair per
  objective — the fast rule catches a cliff in minutes, the slow rule
  catches a simmer the fast window forgives — and renders per-objective
  compliance verdicts for the harness report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.alerts import AlertEngine, AlertRule, TrailingWindow
from repro.obs.span import Span

__all__ = [
    "SloObjective",
    "LatencyObjective",
    "AvailabilityObjective",
    "BurnRateRule",
    "BurnWindow",
    "SloPlane",
]

#: The span an objective counts: the proxy's root span of one GlobeDoc
#: access (plain-HTTP passthrough and unparseable URLs open none).
ACCESS_SPAN = "proxy.handle"


class SloObjective:
    """One promise over the proxy's accesses: a target fraction of good
    ``proxy.handle`` spans.

    A span sink: every closed access span counts once, and subclasses
    implement :meth:`is_good`. Budget, compliance and burn rates all
    derive from the two monotone counts.
    """

    def __init__(self, name: str, target: float) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target}")
        self.name = name
        self.target = target
        self.good = 0.0
        self.total = 0.0

    def on_span(self, span: Span) -> None:
        if span.name == ACCESS_SPAN:
            self.total += 1.0
            if self.is_good(span):
                self.good += 1.0

    def is_good(self, span: Span) -> bool:
        raise NotImplementedError  # pragma: no cover - abstract

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction, ``1 - target``."""
        return 1.0 - self.target

    def counts(self) -> Tuple[float, float]:
        """Cumulative ``(good, total)`` access counts."""
        return (self.good, self.total)

    def compliance(self) -> float:
        """Lifetime good fraction (1.0 with no events: no traffic is
        not a breach)."""
        return (self.good / self.total) if self.total else 1.0

    def verdict(self) -> dict:
        compliance = self.compliance()
        return {
            "objective": self.name,
            "target": self.target,
            "events": self.total,
            "good": self.good,
            "compliance": compliance,
            "met": compliance >= self.target,
        }


class LatencyObjective(SloObjective):
    """"*target* of accesses complete within *threshold_s*" (inclusive)."""

    def __init__(self, name: str, threshold_s: float, target: float) -> None:
        super().__init__(name, target)
        self.threshold_s = float(threshold_s)

    def is_good(self, span: Span) -> bool:
        return span.duration <= self.threshold_s


class AvailabilityObjective(SloObjective):
    """"*target* of accesses are served": good when the access span's
    ``status`` attribute is 200 (a 403 rejection or a 404 is bad)."""

    def is_good(self, span: Span) -> bool:
        return span.attributes.get("status") == 200


class BurnRateRule(AlertRule):
    """Error-budget burn rate of one objective over a trailing window.

    The value is ``bad_fraction(window) / error_budget``: 1.0 means the
    service is consuming budget exactly as fast as the SLO tolerates;
    14.4 (the classic fast-burn bound) means a 30-day budget would be
    gone in two days. Sampled through the same
    :class:`~repro.obs.alerts.TrailingWindow` as
    :class:`~repro.obs.alerts.RateRule`: each evaluation reads
    ``(good, total)`` and the window's anchor sample gives the deltas.
    A window with no new events burns nothing.
    """

    def __init__(
        self,
        name: str,
        objective: SloObjective,
        window_seconds: float,
        threshold: float,
        **kwargs,
    ) -> None:
        super().__init__(name, objective.counts, **kwargs)
        self.window = TrailingWindow(window_seconds)
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.objective = objective
        self.threshold = threshold

    def value(self, sample: Tuple[float, float], now: float) -> float:
        anchor = self.window.anchor(now, sample)
        if anchor is None:
            return 0.0  # first-ever sample: no window to measure yet
        d_good = sample[0] - anchor[0]
        d_total = sample[1] - anchor[1]
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
    """A set of objectives wired to one alert engine.

    :meth:`add` registers an objective plus its fast/slow burn-rate
    rules (``None`` for a window it does without) on the engine (rule names ``<objective>:fast_burn`` /
    ``<objective>:slow_burn``); the engine's normal ``evaluate()``
    cadence then drives the alert lifecycle. :meth:`report` renders
    the per-objective verdicts with each rule's current state.
    """

    def __init__(self, engine: AlertEngine) -> None:
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
            verdict = tracked.objective.verdict()
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
