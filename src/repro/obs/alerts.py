"""SLO alerting over the metrics registry.

An operator of untrusted-replica hosting needs to see an SLO breach —
revocation containment drifting toward its staleness bound, a replica
circuit stuck open — *before* clients fail closed. The
:class:`AlertEngine` is that layer: a set of declarative rules
evaluated against a :class:`~repro.obs.metrics.MetricsRegistry` on the
scrape cadence, each alert walking the classic lifecycle

    inactive → **pending** → **firing** → **resolved** → inactive

where a breach records *pending* and *firing* at the same instant (no
rule holds a breach before firing) and every transition lands in an
append-only, clock-stamped timeline the monitor harness asserts on and
``BENCH_monitor_plane.json`` records.

Two rule shapes cover the SLOs this repo cares about:

* :class:`ThresholdRule` — the max over the current series of one
  gauge or counter compared against a bound. Example:
  ``max(replica_circuit_state) >= 2`` ("some replica's breaker is
  open"), ``max(revocation_view_staleness_seconds) > 45`` ("fail-closed
  imminent").
* :class:`RateRule` — the *increase* of a (summed) counter over a
  trailing window. Example: ``increase(revocation_rejections_total,
  30 s) > 0`` ("clients are being served revocations right now").

Evaluation is **clock-charged**: each :meth:`AlertEngine.evaluate`
advances the injected :class:`~repro.sim.clock.SimClock` by
``evaluation_cost`` seconds per rule, so the monitor plane's own CPU is
accounted in simulated time like every other modelled cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import Clock

__all__ = [
    "AlertEvent",
    "AlertRule",
    "ThresholdRule",
    "RateRule",
    "AlertEngine",
    "STATE_INACTIVE",
    "STATE_PENDING",
    "STATE_FIRING",
    "STATE_RESOLVED",
]

STATE_INACTIVE = "inactive"
STATE_PENDING = "pending"
STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"

_COMPARATORS = {
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
}


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition, clock-stamped."""

    rule: str
    state: str
    at: float
    value: float
    severity: str = "warning"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "state": self.state,
            "at": self.at,
            "value": self.value,
            "severity": self.severity,
        }


class AlertRule:
    """Base rule: a named condition over the registry.

    Subclasses implement :meth:`value`; the engine handles the state
    machine.
    """

    def __init__(self, name: str, severity: str = "warning") -> None:
        self.name = name
        self.severity = severity

    def value(self, registry: MetricsRegistry, now: float) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def breached(self, value: float) -> bool:
        raise NotImplementedError  # pragma: no cover - abstract


class ThresholdRule(AlertRule):
    """Max-vs-bound on the current value of one metric (0 with no series).

    ``label_prefixes`` restricts which series participate by label-value
    prefix — e.g. ``{"address": "globedoc/replica"}`` watches replica
    circuit breakers while ignoring service endpoints tracked by the
    same health tracker.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        threshold: float,
        op: str = ">",
        label_prefixes: Optional[Mapping[str, str]] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {op!r}")
        self.metric = metric
        self.threshold = threshold
        self.op = op
        self.label_prefixes = dict(label_prefixes) if label_prefixes else None

    def value(self, registry: MetricsRegistry, now: float) -> float:
        return max(registry.series_values(self.metric, self.label_prefixes), default=0.0)

    def breached(self, value: float) -> bool:
        return _COMPARATORS[self.op](value, self.threshold)


class RateRule(AlertRule):
    """Increase of a summed counter over a trailing window, breached
    when it exceeds *threshold*.

    Each evaluation samples the counter's total; the rule's value is
    ``total(now) - total(now - window)`` (linear sample retention, no
    interpolation: the oldest sample still inside the window anchors
    the increase). A counter that never moves yields 0.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        threshold: float,
        window_seconds: float,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.metric = metric
        self.threshold = threshold
        self.window_seconds = window_seconds
        self._samples: Deque[Tuple[float, float]] = deque()

    def value(self, registry: MetricsRegistry, now: float) -> float:
        total = sum(registry.series_values(self.metric))
        self._samples.append((now, total))
        horizon = now - self.window_seconds
        # Keep one sample at-or-before the horizon as the anchor.
        while len(self._samples) >= 2 and self._samples[1][0] <= horizon:
            self._samples.popleft()
        anchor_time, anchor_total = self._samples[0]
        if anchor_time > horizon and len(self._samples) == 1:
            return 0.0  # first-ever sample: no increase measurable yet
        return total - anchor_total

    def breached(self, value: float) -> bool:
        return value > self.threshold


class AlertEngine:
    """Evaluates rules against one registry on the scrape cadence.

    The engine never polls on its own: the harness (or an operator
    loop) calls :meth:`evaluate` each scrape tick. ``evaluation_cost``
    seconds per rule are charged to the clock on every evaluation when
    the clock is advanceable (a SimClock) — the monitoring plane is not
    free, and simulated experiments should account for it.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Clock,
        evaluation_cost: float = 0.0,
    ) -> None:
        if evaluation_cost < 0:
            raise ValueError(
                f"evaluation_cost must be non-negative, got {evaluation_cost}"
            )
        self.registry = registry
        self.clock = clock
        self.evaluation_cost = evaluation_cost
        self._rules: List[AlertRule] = []
        self._states: Dict[str, str] = {}
        #: Append-only transition log (the alert timeline).
        self.timeline: List[AlertEvent] = []
        self.evaluations = 0

    # ------------------------------------------------------------------

    def add_rule(self, rule: AlertRule) -> AlertRule:
        if any(r.name == rule.name for r in self._rules):
            raise ValueError(f"alert rule {rule.name!r} already registered")
        self._rules.append(rule)
        self._states[rule.name] = STATE_INACTIVE
        return rule

    @property
    def rules(self) -> List[AlertRule]:
        return list(self._rules)

    def state_of(self, rule_name: str) -> str:
        return self._states[rule_name]

    def firing(self) -> List[str]:
        """Names of currently firing rules, registration order."""
        return [r.name for r in self._rules if self._states[r.name] == STATE_FIRING]

    # ------------------------------------------------------------------

    def evaluate(self) -> List[AlertEvent]:
        """One evaluation pass; returns the transitions it produced.

        Runs the registry's collectors first so derived gauges are
        current, charges the evaluation cost to the clock, then steps
        each rule's state machine.
        """
        self.registry.collect()
        cost = self.evaluation_cost * len(self._rules)
        advance = getattr(self.clock, "advance", None)
        if cost > 0 and advance is not None:
            advance(cost)
        now = self.clock.now()
        self.evaluations += 1
        transitions: List[AlertEvent] = []
        for rule in self._rules:
            state = self._states[rule.name]
            value = rule.value(self.registry, now)
            breached = rule.breached(value)
            if state != STATE_FIRING:
                if breached:
                    transitions.append(self._emit(rule, STATE_PENDING, now, value))
                    self._states[rule.name] = STATE_FIRING
                    transitions.append(self._emit(rule, STATE_FIRING, now, value))
                elif state == STATE_RESOLVED:
                    self._states[rule.name] = STATE_INACTIVE
            elif not breached:
                self._states[rule.name] = STATE_RESOLVED
                transitions.append(self._emit(rule, STATE_RESOLVED, now, value))
        self.timeline.extend(transitions)
        return transitions

    def _emit(self, rule: AlertRule, state: str, now: float, value: float) -> AlertEvent:
        return AlertEvent(
            rule=rule.name, state=state, at=now, value=value, severity=rule.severity
        )

    # ------------------------------------------------------------------

    def timeline_dicts(self) -> List[dict]:
        return [event.to_dict() for event in self.timeline]

    def fire_resolve_times(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per rule: first fired-at / last resolved-at timestamps (None
        when the transition never happened)."""
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for rule in self._rules:
            fired = [e.at for e in self.timeline if e.rule == rule.name and e.state == STATE_FIRING]
            resolved = [e.at for e in self.timeline if e.rule == rule.name and e.state == STATE_RESOLVED]
            out[rule.name] = {
                "fired_at": fired[0] if fired else None,
                "resolved_at": resolved[-1] if resolved else None,
            }
        return out
