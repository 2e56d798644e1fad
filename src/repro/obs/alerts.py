"""SLO alerting over readings of the running stack.

An operator of untrusted-replica hosting needs to see an SLO breach —
revocation containment drifting toward its staleness bound, a replica
circuit stuck open — *before* clients fail closed. The
:class:`AlertEngine` is that layer: a set of declarative rules
evaluated on the scrape cadence, each alert walking the classic
lifecycle

    inactive → **pending** → **firing** → **resolved** → inactive

where a breach records *pending* and *firing* at the same instant (no
rule holds a breach before firing) and every transition lands in an
append-only, clock-stamped timeline the monitor harness asserts on and
``BENCH_monitor_plane.json`` records.

A rule reads what it measures: its ``read`` callable returns the
number from the component that already holds it (a health tracker's
breaker states, a revocation checker's ``staleness`` or
``stats.rejections``). There is no second store to keep in step with
the stack. Two rule shapes cover the SLOs this repo cares about:

* :class:`ThresholdRule` — the current reading against a bound
  ("some replica's breaker is open", "fail-closed imminent");
* :class:`RateRule` — the *increase* of a monotone reading over a
  trailing window ("clients are being served revocations right now").

Evaluation is **clock-charged**: each :meth:`AlertEngine.evaluate`
advances the injected :class:`~repro.sim.clock.SimClock` by
``evaluation_cost`` seconds per rule, so the monitor plane's own CPU is
accounted in simulated time like every other modelled cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.clock import Clock

__all__ = [
    "AlertEvent",
    "AlertRule",
    "ThresholdRule",
    "RateRule",
    "TrailingWindow",
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


class TrailingWindow:
    """Samples retained over a trailing window, for increase-style rules.

    Linear retention, no interpolation: the oldest sample still at or
    before the horizon anchors the window, and the rule measures the
    current sample against it.
    """

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {seconds}")
        self.seconds = seconds
        self._samples: Deque[Tuple[float, Any]] = deque()

    def anchor(self, now: float, sample: Any) -> Optional[Any]:
        """Record *sample* taken at *now*; return the window's anchor
        sample, or None for the first-ever sample (nothing to measure
        against yet)."""
        self._samples.append((now, sample))
        horizon = now - self.seconds
        while len(self._samples) >= 2 and self._samples[1][0] <= horizon:
            self._samples.popleft()
        return self._samples[0][1] if len(self._samples) >= 2 else None


class AlertRule:
    """Base rule: a named condition over what *read* returns.

    The engine calls ``read()`` for every rule before it charges the
    evaluation, then :meth:`value` and :meth:`breached` with the sample.
    """

    def __init__(
        self, name: str, read: Callable[[], Any], severity: str = "warning"
    ) -> None:
        self.name = name
        self.read = read
        self.severity = severity

    def value(self, sample: Any, now: float) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def breached(self, value: float) -> bool:
        raise NotImplementedError  # pragma: no cover - abstract


class ThresholdRule(AlertRule):
    """The current reading compared against a bound."""

    def __init__(
        self,
        name: str,
        read: Callable[[], float],
        threshold: float,
        op: str = ">",
        **kwargs,
    ) -> None:
        super().__init__(name, read, **kwargs)
        if op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {op!r}")
        self.threshold = threshold
        self.op = op

    def value(self, sample: float, now: float) -> float:
        return sample

    def breached(self, value: float) -> bool:
        return _COMPARATORS[self.op](value, self.threshold)


class RateRule(AlertRule):
    """Increase of a monotone reading over a trailing window, breached
    when it exceeds *threshold*. A reading that never moves yields 0."""

    def __init__(
        self,
        name: str,
        read: Callable[[], float],
        threshold: float,
        window_seconds: float,
        **kwargs,
    ) -> None:
        super().__init__(name, read, **kwargs)
        self.threshold = threshold
        self.window = TrailingWindow(window_seconds)

    def value(self, sample: float, now: float) -> float:
        anchor = self.window.anchor(now, sample)
        return 0.0 if anchor is None else sample - anchor

    def breached(self, value: float) -> bool:
        return value > self.threshold


class AlertEngine:
    """Evaluates rules on the scrape cadence.

    The engine never polls on its own: the harness (or an operator
    loop) calls :meth:`evaluate` each scrape tick. ``evaluation_cost``
    seconds per rule are charged to the clock on every evaluation when
    the clock is advanceable (a SimClock) — the monitoring plane is not
    free, and simulated experiments should account for it.
    """

    def __init__(self, clock: Clock, evaluation_cost: float = 0.0) -> None:
        if evaluation_cost < 0:
            raise ValueError(
                f"evaluation_cost must be non-negative, got {evaluation_cost}"
            )
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

        Reads every rule's input first, then charges the evaluation
        cost to the clock, then steps each rule's state machine: a
        reading taken after the charge would see the monitor's own cost
        (a staleness would grow by it).
        """
        samples = [rule.read() for rule in self._rules]
        cost = self.evaluation_cost * len(self._rules)
        advance = getattr(self.clock, "advance", None)
        if cost > 0 and advance is not None:
            advance(cost)
        now = self.clock.now()
        self.evaluations += 1
        transitions: List[AlertEvent] = []
        for rule, sample in zip(self._rules, samples):
            state = self._states[rule.name]
            value = rule.value(sample, now)
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
