"""Streaming anomaly detectors over the live run's signal streams.

Each detector consumes one stream the simulation already produces —
per-population spike rates, fixed-point saturation tallies,
reliability events — and classifies the current state into zero or
more :class:`HealthSignal` records. Detectors hold only bounded state
(EWMA scalars, per-subject dicts), never raise on odd input, and do no
I/O: the alert rules engine (:mod:`repro.health.alerts`)
decides what a signal *means*; detectors only say what they *see*.

Observation is cheap (a few float updates per call) but still happens
at the throttled evaluation cadence, not in the hot loop — the
:class:`~repro.health.alerts.HealthHook` follows ``ServeHook``'s
discipline and only feeds detectors once per publish interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

__all__ = [
    "EventMonitor",
    "EwmaBaseline",
    "HealthSignal",
    "SaturationDetector",
    "SpikeRateDetector",
]


@dataclass(frozen=True)
class HealthSignal:
    """One detector's current finding about one subject."""

    #: Detector family, e.g. ``"spike-rate"`` — what rules select on.
    detector: str
    #: What the finding is about (population or event kind).
    subject: str
    #: Classification within the family (``silent``, ``exploding``,
    #: ``drifting``, ``saturation-growth``, ...).
    kind: str
    #: The observed value the classification was made on.
    value: float
    #: The threshold it was compared against (0.0 when not threshold-based).
    threshold: float
    #: Human-readable one-liner for /alerts, SSE, and ``repro top``.
    message: str

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "subject": self.subject,
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


class EwmaBaseline:
    """Exponentially-weighted mean/variance of a scalar stream.

    The standard streaming baseline: ``mean`` tracks the recent level,
    ``std`` the recent spread, and :meth:`zscore` measures how far a
    new observation sits from both. ``alpha`` is the usual smoothing
    factor (higher = faster to adapt, quicker to forgive anomalies).
    """

    def __init__(self, alpha: float = 0.2) -> None:
        self.alpha = alpha
        self.mean = 0.0
        self.variance = 0.0
        self.samples = 0

    def update(self, value: float) -> None:
        self.samples += 1
        if self.samples == 1:
            self.mean = value
            self.variance = 0.0
            return
        delta = value - self.mean
        self.mean += self.alpha * delta
        # Exponentially-weighted variance (West 1979 form).
        self.variance = (1.0 - self.alpha) * (
            self.variance + self.alpha * delta * delta
        )

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    def zscore(self, value: float) -> float:
        """Distance of ``value`` from the baseline, in baseline stds.

        A dead-flat baseline (std 0) uses a small floor proportional
        to the mean so a genuinely changed level still registers
        rather than dividing by zero.
        """
        floor = max(1e-9, 0.05 * abs(self.mean))
        return (value - self.mean) / max(self.std, floor)


class SpikeRateDetector:
    """Windowed per-population firing-rate monitor.

    Fed one mean rate (Hz per neuron over the publish window) per
    population per evaluation. Classifies against a trailing EWMA
    baseline:

    * ``silent`` — the population stopped firing while its baseline
      says it used to fire;
    * ``exploding`` — the rate jumped past ``explode_ratio`` times the
      baseline (and past ``min_rate_hz``, so a near-silent population
      waking up is not an explosion);
    * ``drifting`` — the rate's z-score against the EWMA baseline
      exceeds ``z_threshold`` without qualifying as either above.

    The first ``warmup`` observations per population only train the
    baseline — start-up transients never alert.
    """

    name = "spike-rate"

    def __init__(
        self,
        z_threshold: float = 4.0,
        explode_ratio: float = 5.0,
        min_rate_hz: float = 0.5,
        warmup: int = 4,
        alpha: float = 0.2,
    ) -> None:
        self.z_threshold = z_threshold
        self.explode_ratio = explode_ratio
        self.min_rate_hz = min_rate_hz
        self.warmup = warmup
        self.alpha = alpha
        self._baselines: Dict[str, EwmaBaseline] = {}
        self._signals: Dict[str, HealthSignal] = {}

    def observe(self, population: str, rate_hz: float) -> None:
        baseline = self._baselines.get(population)
        if baseline is None:
            baseline = EwmaBaseline(self.alpha)
            self._baselines[population] = baseline
        if baseline.samples < self.warmup:
            baseline.update(rate_hz)
            self._signals.pop(population, None)
            return
        signal = self._classify(population, rate_hz, baseline)
        if signal is None:
            self._signals.pop(population, None)
            # Only healthy observations train the baseline — an
            # anomaly must not drag the reference toward itself.
            baseline.update(rate_hz)
        else:
            self._signals[population] = signal

    def _classify(self, population, rate_hz, baseline):
        mean = baseline.mean
        if rate_hz <= 0.0 and mean >= self.min_rate_hz:
            return HealthSignal(
                self.name, population, "silent", rate_hz, self.min_rate_hz,
                f"population {population!r} went silent "
                f"(baseline {mean:.2f} Hz)",
            )
        if (
            rate_hz >= self.min_rate_hz
            and mean > 0.0
            and rate_hz > self.explode_ratio * mean
        ):
            return HealthSignal(
                self.name, population, "exploding", rate_hz,
                self.explode_ratio * mean,
                f"population {population!r} exploding: {rate_hz:.2f} Hz "
                f"vs baseline {mean:.2f} Hz",
            )
        z = baseline.zscore(rate_hz)
        if abs(z) > self.z_threshold:
            return HealthSignal(
                self.name, population, "drifting", rate_hz, self.z_threshold,
                f"population {population!r} drifting: {rate_hz:.2f} Hz is "
                f"{z:+.1f} sigma from baseline {mean:.2f} Hz",
            )
        return None

    def signals(self) -> List[HealthSignal]:
        return [self._signals[key] for key in sorted(self._signals)]


class SaturationDetector:
    """Fixed-point saturation *growth* monitor.

    Fed each population's cumulative clip tally (from
    :class:`~repro.fixedpoint.SaturationStats`) per evaluation; signals
    while clips grew since the previous evaluation by more than
    ``growth_threshold``. A population that clipped once during
    warm-up and then stabilised stops signalling — it is runaway
    growth, not history, that indicates a run going numerically bad.
    """

    name = "saturation"

    def __init__(self, growth_threshold: int = 0) -> None:
        self.growth_threshold = growth_threshold
        self._last: Dict[str, int] = {}
        self._signals: Dict[str, HealthSignal] = {}

    def observe(self, population: str, total_clipped: int) -> None:
        previous = self._last.get(population, 0)
        self._last[population] = total_clipped
        growth = total_clipped - previous
        if growth > self.growth_threshold:
            self._signals[population] = HealthSignal(
                self.name, population, "saturation-growth",
                float(growth), float(self.growth_threshold),
                f"population {population!r} clipped {growth} value(s) "
                f"since the last check ({total_clipped} total)",
            )
        else:
            self._signals.pop(population, None)

    def signals(self) -> List[HealthSignal]:
        return [self._signals[key] for key in sorted(self._signals)]


class EventMonitor:
    """Reliability-event monitor: fallbacks and hook errors.

    Fed cumulative counts per evaluation; signals while the count grew
    within the last ``linger`` evaluations, so a discrete event stays
    visible long enough for a ``for_seconds`` alert rule to latch it,
    then clears.
    """

    name = "events"

    def __init__(self, linger: int = 4) -> None:
        self.linger = linger
        self._last: Dict[str, int] = {}
        self._fresh: Dict[str, int] = {}
        self._totals: Dict[str, int] = {}

    def observe(self, kind: str, total: int) -> None:
        previous = self._last.get(kind, 0)
        self._last[kind] = total
        self._totals[kind] = total
        if total > previous:
            self._fresh[kind] = self.linger
        elif kind in self._fresh:
            self._fresh[kind] -= 1
            if self._fresh[kind] <= 0:
                del self._fresh[kind]

    def signals(self) -> List[HealthSignal]:
        out: List[HealthSignal] = []
        for kind in sorted(self._fresh):
            total = self._totals.get(kind, 0)
            out.append(
                HealthSignal(
                    self.name, kind, kind, float(total), 0.0,
                    f"{total} {kind} event(s) observed",
                )
            )
        return out
