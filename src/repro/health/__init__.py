"""Simulation health monitoring: detectors, alert rules, resources.

The layer that turns the observability plane from a dashboard into a
watchdog: :mod:`~repro.health.detectors` classify the live run's signal
streams, :mod:`~repro.health.alerts` runs declarative rules with a
pending→firing→resolved state machine over them, and
:mod:`~repro.health.resources` samples per-process RSS/CPU/FDs for both
the local exposition and the supervised workers' heartbeats.
"""

from repro.health.alerts import (
    ALERTS_SCHEMA,
    Alert,
    AlertManager,
    AlertRule,
    HealthHook,
    HealthMonitor,
    load_alert_rules,
    parse_alert_rules,
)
from repro.health.detectors import (
    EventMonitor,
    EwmaBaseline,
    HealthSignal,
    SaturationDetector,
    SpikeRateDetector,
)
from repro.health.resources import (
    ResourceSampler,
    declare_process_metrics,
    read_cpu_seconds,
    read_open_fds,
    read_rss_bytes,
)

__all__ = [
    "ALERTS_SCHEMA",
    "Alert",
    "AlertManager",
    "AlertRule",
    "EventMonitor",
    "EwmaBaseline",
    "HealthHook",
    "HealthMonitor",
    "HealthSignal",
    "ResourceSampler",
    "SaturationDetector",
    "SpikeRateDetector",
    "declare_process_metrics",
    "load_alert_rules",
    "parse_alert_rules",
    "read_cpu_seconds",
    "read_open_fds",
    "read_rss_bytes",
]
