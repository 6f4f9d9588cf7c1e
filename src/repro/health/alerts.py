"""The alert rules engine: declarative rules over live health signals.

An :class:`AlertRule` names a condition — either a detector signal
(``detector`` + optional ``kind``/``subject``) or a metric selector
(``metric`` + optional ``labels``) compared against a ``threshold`` —
and the :class:`AlertManager` runs the Prometheus-style state machine
over it::

    inactive --condition true--> pending --held for_seconds--> firing
       ^                            |                             |
       |                 condition false                 condition false
       +----------------------------+                             v
                                                              resolved

``pending`` debounces (a condition must hold ``for_seconds`` before
anyone is paged); ``firing``/``resolved`` transitions publish ``alert``
events on the SSE bus, update the status board's ``alerts`` block
(rendered by ``repro top``), bump the ``alerts_*`` metrics, and are
kept (bounded) in each alert's transition history so ``GET /alerts``
can show that a rule fired *and* recovered.

Rules load from a JSON spec (``repro run/sweep --alerts SPEC``); see
``examples/alerts.json`` and :func:`parse_alert_rules` for the format.

Two drivers evaluate the manager:

* :class:`HealthHook` — a :class:`~repro.engine.hooks.PhaseHook` for
  single-process runs, following ``ServeHook``'s hot-loop discipline
  (one deque-free counter bump per step; detectors, registry reads,
  and the state machine run at most once per ``publish_interval``);
* :class:`HealthMonitor` — a clock-throttled driver for contexts with
  no phase stream: ``repro sweep`` runs it on a background thread
  while the supervisor blocks.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.hooks import PHASES, PhaseHook
from repro.errors import ConfigurationError
from repro.health.detectors import (
    EventMonitor,
    HealthSignal,
    SaturationDetector,
    SpikeRateDetector,
)
from repro.health.resources import ResourceSampler

__all__ = [
    "ALERTS_SCHEMA",
    "Alert",
    "AlertManager",
    "AlertRule",
    "HealthHook",
    "HealthMonitor",
    "load_alert_rules",
    "parse_alert_rules",
]

ALERTS_SCHEMA = "repro-alerts/1"

#: Seconds between health evaluations (matches ServeHook's cadence).
DEFAULT_EVAL_INTERVAL = 0.25

#: Transition-history entries kept per alert.
HISTORY_LIMIT = 16

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting condition.

    Exactly one of ``detector`` / ``metric`` selects the source:

    * detector rules match :class:`HealthSignal` streams — optionally
      narrowed by ``kind`` (the classification) and ``subject``; with
      a ``threshold`` the matching signal's value is compared with
      ``op``, without one the signal's presence is the condition;
    * metric rules read one family from the run's
      :class:`~repro.telemetry.registry.MetricsRegistry` (children
      matched by the ``labels`` subset are summed; histograms
      contribute their observation count) and always compare
      ``op``/``threshold``.
    """

    name: str
    detector: str = ""
    kind: str = ""
    subject: str = ""
    metric: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    op: str = ">"
    threshold: Optional[float] = None
    for_seconds: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("alert rule needs a name")
        if bool(self.detector) == bool(self.metric):
            raise ConfigurationError(
                f"alert rule {self.name!r} must select exactly one of "
                f"'detector' or 'metric'"
            )
        if self.op not in _OPS:
            raise ConfigurationError(
                f"alert rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {sorted(_OPS)})"
            )
        if self.metric and self.threshold is None:
            raise ConfigurationError(
                f"alert rule {self.name!r}: metric rules need a threshold"
            )
        if self.for_seconds < 0:
            raise ConfigurationError(
                f"alert rule {self.name!r}: for_seconds must be >= 0"
            )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "op": self.op,
            "threshold": self.threshold,
            "for_seconds": self.for_seconds,
            "severity": self.severity,
        }
        if self.detector:
            out["detector"] = self.detector
            if self.kind:
                out["kind"] = self.kind
            if self.subject:
                out["subject"] = self.subject
        else:
            out["metric"] = self.metric
            if self.labels:
                out["labels"] = dict(self.labels)
        if self.description:
            out["description"] = self.description
        return out


def parse_alert_rules(document) -> List[AlertRule]:
    """Build rules from a parsed ``--alerts`` JSON document.

    Accepts either ``{"rules": [...]}`` (optionally carrying the
    ``repro-alerts/1`` schema stamp) or a bare rule list. Unknown keys
    are rejected — a typoed ``for_second`` must not silently disarm a
    rule someone is counting on.
    """
    if isinstance(document, dict):
        schema = document.get("schema")
        if schema is not None and schema != ALERTS_SCHEMA:
            raise ConfigurationError(
                f"unsupported alerts schema {schema!r} "
                f"(expected {ALERTS_SCHEMA!r})"
            )
        rules_raw = document.get("rules")
    else:
        rules_raw = document
    if not isinstance(rules_raw, list) or not rules_raw:
        raise ConfigurationError(
            "alerts spec must carry a non-empty 'rules' list"
        )
    known = {
        "name", "detector", "kind", "subject", "metric", "labels",
        "op", "threshold", "for_seconds", "severity", "description",
    }
    rules: List[AlertRule] = []
    for raw in rules_raw:
        if not isinstance(raw, dict):
            raise ConfigurationError(f"alert rule must be an object: {raw!r}")
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"alert rule {raw.get('name', '?')!r} has unknown "
                f"key(s): {sorted(unknown)}"
            )
        labels = raw.get("labels") or {}
        if not isinstance(labels, dict):
            raise ConfigurationError(
                f"alert rule {raw.get('name', '?')!r}: labels must be "
                f"an object"
            )
        threshold = raw.get("threshold")
        rules.append(
            AlertRule(
                name=str(raw.get("name", "")),
                detector=str(raw.get("detector", "")),
                kind=str(raw.get("kind", "")),
                subject=str(raw.get("subject", "")),
                metric=str(raw.get("metric", "")),
                labels=tuple(sorted(
                    (str(k), str(v)) for k, v in labels.items()
                )),
                op=str(raw.get("op", ">")),
                threshold=None if threshold is None else float(threshold),
                for_seconds=float(raw.get("for_seconds", 0.0)),
                severity=str(raw.get("severity", "warning")),
                description=str(raw.get("description", "")),
            )
        )
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate alert rule names in {names}")
    return rules


def load_alert_rules(path: str) -> List[AlertRule]:
    """Load and validate an ``--alerts`` JSON spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ConfigurationError(
            f"cannot read alerts spec {path!r}: {error}"
        ) from error
    except ValueError as error:
        raise ConfigurationError(
            f"alerts spec {path!r} is not valid JSON: {error}"
        ) from error
    return parse_alert_rules(document)


@dataclass
class Alert:
    """The live state of one rule against one subject."""

    rule: str
    subject: str
    severity: str
    state: str = "pending"
    value: float = 0.0
    message: str = ""
    #: Evaluation-clock timestamps of the lifecycle edges.
    since: float = 0.0
    fired_at: Optional[float] = None
    resolved_at: Optional[float] = None
    #: Bounded ``(state, at, value)`` transition history.
    history: List[dict] = field(default_factory=list)

    def push(self, state: str, at: float, value: float) -> None:
        self.state = state
        self.history.append({"state": state, "at": at, "value": value})
        del self.history[:-HISTORY_LIMIT]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "subject": self.subject,
            "severity": self.severity,
            "state": self.state,
            "value": self.value,
            "message": self.message,
            "since": self.since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "history": list(self.history),
        }


class AlertManager:
    """Runs every rule's state machine over each evaluation's inputs.

    Thread-safe: HTTP threads read :meth:`document` while the run
    evaluates, and the sweep path evaluates from a background thread.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule],
        status=None,
        bus=None,
        metrics=None,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate alert rule names: {names}")
        self.rules = tuple(rules)
        self.status = status
        self.bus = bus
        self.metrics = metrics
        self._lock = threading.Lock()
        self._alerts: Dict[Tuple[str, str], Alert] = {}
        self._fired_rules: List[str] = []

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self,
        now: float,
        signals: Sequence[HealthSignal] = (),
        metrics=None,
    ) -> None:
        """Advance every rule's state machine one evaluation.

        ``now`` is the caller's clock (monotonic in production, driven
        directly in tests); ``signals`` are the detectors' current
        findings; ``metrics`` is the registry metric rules read from.
        """
        transitions = []
        with self._lock:
            for rule in self.rules:
                conditions = list(self._conditions(rule, signals, metrics))
                for subject, value, message in conditions:
                    transitions += self._advance(
                        rule, subject, True, value, message, now
                    )
                # Any tracked alert of this rule whose condition did
                # not reappear this round is now false.
                active_subjects = {s for s, _v, _m in conditions}
                for (rule_name, subject), alert in list(self._alerts.items()):
                    if rule_name != rule.name:
                        continue
                    if subject in active_subjects:
                        continue
                    if alert.state in ("pending", "firing"):
                        transitions += self._advance(
                            rule, subject, False, alert.value, alert.message,
                            now,
                        )
        self._publish(transitions)

    def _conditions(self, rule, signals, metrics):
        """Yield ``(subject, value, message)`` for every true condition."""
        if rule.detector:
            for signal in signals:
                if signal.detector != rule.detector:
                    continue
                if rule.kind and signal.kind != rule.kind:
                    continue
                if rule.subject and signal.subject != rule.subject:
                    continue
                if rule.threshold is not None and not _OPS[rule.op](
                    signal.value, rule.threshold
                ):
                    continue
                yield signal.subject, signal.value, signal.message
            return
        if metrics is None:
            return
        value = metrics.value_of(rule.metric, dict(rule.labels))
        if value is None:
            return
        if _OPS[rule.op](value, rule.threshold):
            label_text = (
                "{" + ",".join(f"{k}={v}" for k, v in rule.labels) + "}"
                if rule.labels
                else ""
            )
            yield (
                rule.metric,
                value,
                f"{rule.metric}{label_text} = {value:g} "
                f"{rule.op} {rule.threshold:g}",
            )

    @staticmethod
    def _transition(alert) -> dict:
        # Snapshot at transition time: a for_seconds=0 rule moves
        # pending -> firing within one evaluate, and publishing the
        # live Alert later would report both edges as "firing".
        return {
            "rule": alert.rule,
            "subject": alert.subject,
            "state": alert.state,
            "severity": alert.severity,
            "value": alert.value,
            "message": alert.message,
        }

    def _advance(self, rule, subject, condition, value, message, now):
        """One state-machine step for (rule, subject); returns transitions."""
        key = (rule.name, subject)
        alert = self._alerts.get(key)
        transitions = []
        if condition:
            if alert is None or alert.state == "resolved":
                alert = Alert(
                    rule=rule.name, subject=subject,
                    severity=rule.severity, since=now,
                    value=value, message=message,
                )
                alert.push("pending", now, value)
                self._alerts[key] = alert
                transitions.append(self._transition(alert))
            alert.value = value
            alert.message = message
            if (
                alert.state == "pending"
                and now - alert.since >= rule.for_seconds
            ):
                alert.fired_at = now
                alert.push("firing", now, value)
                self._fired_rules.append(rule.name)
                transitions.append(self._transition(alert))
        elif alert is not None:
            if alert.state == "pending":
                # Never fired: the debounce did its job; forget it.
                del self._alerts[key]
            elif alert.state == "firing":
                alert.resolved_at = now
                alert.push("resolved", now, value)
                transitions.append(self._transition(alert))
        return transitions

    # -- publishing --------------------------------------------------------

    def _publish(self, transitions) -> None:
        for edge in transitions:
            if self.bus is not None:
                self.bus.publish("alert", dict(edge))
            if self.metrics is not None and edge["state"] == "firing":
                self.metrics.counter(
                    "alerts_fired_total",
                    "Alert rules that transitioned to firing.",
                    {"rule": edge["rule"]},
                ).inc()
        if self.metrics is not None:
            counts = self.counts()
            self.metrics.gauge(
                "alerts_firing", "Alert instances currently firing."
            ).set(counts["firing"])
            self.metrics.gauge(
                "alerts_pending", "Alert instances pending their duration."
            ).set(counts["pending"])
        if self.status is not None:
            self.status.update(alerts=self.status_block())

    # -- views -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts = {"pending": 0, "firing": 0, "resolved": 0}
        for alert in self._alerts.values():
            counts[alert.state] += 1
        return counts

    def status_block(self) -> dict:
        """The compact ``alerts`` block on ``/status`` / ``repro top``."""
        counts = self.counts()
        active = [
            f"[{a.severity}] {a.rule} ({a.subject}): {a.message}"
            for a in sorted(
                self._alerts.values(), key=lambda a: (a.rule, a.subject)
            )
            if a.state == "firing"
        ]
        return {
            "rules": len(self.rules),
            "pending": counts["pending"],
            "firing": counts["firing"],
            "resolved": counts["resolved"],
            "fired_total": len(self._fired_rules),
            "active": active[:8],
        }

    def document(self) -> dict:
        """The full ``GET /alerts`` document."""
        with self._lock:
            alerts = [
                self._alerts[key].to_dict() for key in sorted(self._alerts)
            ]
            return {
                "schema": ALERTS_SCHEMA,
                "rules": [rule.to_dict() for rule in self.rules],
                "counts": self.counts(),
                "fired_total": len(self._fired_rules),
                "alerts": alerts,
            }

    def summary(self) -> dict:
        """The compact summary stats-json and the ledger carry."""
        with self._lock:
            counts = self.counts()
            return {
                "rules": len(self.rules),
                "fired": sorted(set(self._fired_rules)),
                "fired_total": len(self._fired_rules),
                **counts,
            }


class HealthHook(PhaseHook):
    """Drives detectors + alert rules from a live simulator's run.

    Hot-loop discipline (the ServeHook contract): ``on_phase`` does one
    integer bump and one monotonic read per step, and bails unless the
    evaluation interval elapsed. The throttled evaluation reads the
    live spike recorder's per-population tallies (O(populations) int
    reads), the backend's reliability diagnostics, and the process
    resource sampler, then advances the alert state machines.
    """

    #: No per-population kernel spans needed: rates come from the
    #: spike recorder, not from timing.
    wants_population_spans = False

    def __init__(
        self,
        manager: AlertManager,
        simulator=None,
        metrics=None,
        publish_interval: float = DEFAULT_EVAL_INTERVAL,
        rate_detector: Optional[SpikeRateDetector] = None,
        saturation_detector: Optional[SaturationDetector] = None,
        event_monitor: Optional[EventMonitor] = None,
        resources: Optional[ResourceSampler] = None,
    ) -> None:
        self.manager = manager
        self.simulator = simulator
        self.metrics = metrics
        self.publish_interval = publish_interval
        self.rates = (
            rate_detector if rate_detector is not None else SpikeRateDetector()
        )
        self.saturation = (
            saturation_detector
            if saturation_detector is not None
            else SaturationDetector()
        )
        self.events = (
            event_monitor if event_monitor is not None else EventMonitor()
        )
        self.resources = (
            resources if resources is not None else ResourceSampler()
        )
        self._population_sizes: Dict[str, int] = {}
        self._spike_marks: Dict[str, int] = {}
        self._window_steps = 0
        self._last_eval = 0.0
        self._dt = 1e-4

    # -- PhaseHook callbacks ----------------------------------------------

    def on_run_start(self, network, n_steps: int) -> None:
        self._population_sizes = {
            name: population.n
            for name, population in network.populations.items()
        }
        self._spike_marks = {name: 0 for name in self._population_sizes}
        self._window_steps = 0
        self._last_eval = time.monotonic()
        if self.simulator is not None:
            self._dt = self.simulator.dt

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        if phase != PHASES[-1]:
            return
        self._window_steps += 1
        now = time.monotonic()
        if now - self._last_eval < self.publish_interval:
            return
        self._evaluate(now)

    def on_run_end(self, result) -> None:
        self._evaluate(time.monotonic(), result=result)
        result.alerts = self.manager.summary()

    # -- throttled evaluation ---------------------------------------------

    def _evaluate(self, now: float, result=None) -> None:
        window_steps = self._window_steps
        self._window_steps = 0
        self._last_eval = now
        self._observe_rates(window_steps)
        self._observe_reliability(result)
        if self.metrics is not None:
            self.resources.publish(self.metrics)
        signals = (
            self.rates.signals()
            + self.saturation.signals()
            + self.events.signals()
        )
        self.manager.evaluate(now, signals, metrics=self.metrics)

    def _observe_rates(self, window_steps: int) -> None:
        if window_steps <= 0 or self.simulator is None:
            return
        recorder = self.simulator.live_spikes
        if recorder is None:
            return
        window_seconds = window_steps * self._dt
        counts = recorder.counts()
        for name, n_neurons in self._population_sizes.items():
            total = counts.get(name, 0)
            delta = total - self._spike_marks.get(name, 0)
            self._spike_marks[name] = total
            if n_neurons <= 0:
                continue
            rate_hz = delta / (n_neurons * window_seconds)
            self.rates.observe(name, rate_hz)

    def _observe_reliability(self, result=None) -> None:
        if result is not None:
            diagnostics = result.diagnostics
            self.events.observe("hook-error", len(result.hook_errors))
        elif self.simulator is not None:
            diagnostics = self.simulator.collect_diagnostics()
        else:
            return
        for population, stats in diagnostics.saturation.items():
            self.saturation.observe(population, stats.total_clipped)
        self.events.observe("fallback", len(diagnostics.fallbacks))


class HealthMonitor:
    """Clock-throttled health driver for non-PhaseHook contexts.

    ``repro sweep`` has no phase stream in the parent process: its
    workers run in child processes and report into the shared metrics
    registry. The monitor evaluates the metric rules over that
    registry, ticking from a daemon thread (:meth:`start`) while the
    supervisor blocks, and ends with :meth:`finish`, which forces a
    final evaluation so no-longer-true conditions resolve before the
    summary is recorded.
    """

    def __init__(
        self,
        manager: AlertManager,
        resources: Optional[ResourceSampler] = None,
        metrics=None,
        interval: float = DEFAULT_EVAL_INTERVAL,
    ) -> None:
        self.manager = manager
        self.resources = (
            resources if resources is not None else ResourceSampler()
        )
        self.metrics = metrics
        self.interval = interval
        self._lock = threading.Lock()
        self._last_eval = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- evaluation --------------------------------------------------------

    def tick(self, force: bool = False) -> None:
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_eval < self.interval:
                return
            self._last_eval = now
        if self.metrics is not None:
            self.resources.publish(self.metrics)
        self.manager.evaluate(now, [], metrics=self.metrics)

    def finish(self) -> None:
        """Stop any background thread and run one final evaluation."""
        self.stop()
        self.tick(force=True)

    # -- background driving (repro sweep) ----------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                self.tick(force=True)

        self._thread = threading.Thread(
            target=loop, name="repro-health", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
