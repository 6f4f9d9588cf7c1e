"""Alert rules: spec parsing and the pending/firing/resolved machine."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.health.alerts import (
    ALERTS_SCHEMA,
    AlertManager,
    AlertRule,
    HealthMonitor,
    load_alert_rules,
    parse_alert_rules,
)
from repro.health.detectors import HealthSignal
from repro.observability.server import EventBus, StatusBoard
from repro.telemetry import MetricsRegistry


def _signal(detector="spike-rate", subject="exc", kind="silent", value=0.0):
    return HealthSignal(detector, subject, kind, value, 0.5, "exc went quiet")


class TestAlertRule:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="both", detector="spike-rate", metric="steps")
        with pytest.raises(ConfigurationError):
            AlertRule(name="neither")

    def test_metric_rules_need_threshold(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="m", metric="sim_steps_total")

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="m", metric="x", threshold=1.0, op="~=")

    def test_negative_for_seconds_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="d", detector="events", for_seconds=-1.0)


class TestParseAlertRules:
    def test_parses_schema_stamped_document(self):
        rules = parse_alert_rules({
            "schema": ALERTS_SCHEMA,
            "rules": [{"name": "quiet", "detector": "spike-rate",
                       "kind": "silent", "for_seconds": 1.5}],
        })
        (rule,) = rules
        assert rule.name == "quiet"
        assert rule.for_seconds == 1.5

    def test_bare_list_accepted(self):
        (rule,) = parse_alert_rules([{"name": "d", "detector": "events"}])
        assert rule.detector == "events"

    def test_wrong_schema_stamp_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_alert_rules({"schema": "repro-alerts/9", "rules": []})

    def test_unknown_key_rejected_not_ignored(self):
        # A typoed 'for_second' must not silently disarm the rule.
        with pytest.raises(ConfigurationError, match="for_second"):
            parse_alert_rules([{
                "name": "quiet", "detector": "spike-rate", "for_second": 5,
            }])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_alert_rules([
                {"name": "a", "detector": "events"},
                {"name": "a", "detector": "spike-rate"},
            ])

    def test_empty_rules_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_alert_rules({"rules": []})

    def test_labels_must_be_object(self):
        with pytest.raises(ConfigurationError):
            parse_alert_rules([{
                "name": "m", "metric": "x", "threshold": 1,
                "labels": ["backend"],
            }])


class TestLoadAlertRules:
    def test_loads_the_shipped_example(self, tmp_path):
        spec = tmp_path / "alerts.json"
        spec.write_text(json.dumps({
            "rules": [{"name": "quiet", "detector": "spike-rate"}],
        }))
        (rule,) = load_alert_rules(str(spec))
        assert rule.name == "quiet"

    def test_missing_file_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            load_alert_rules("/nonexistent/alerts.json")

    def test_invalid_json_is_configuration_error(self, tmp_path):
        spec = tmp_path / "alerts.json"
        spec.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_alert_rules(str(spec))


class TestStateMachine:
    """The Prometheus lifecycle, driven with an injected clock."""

    def test_pending_fires_after_for_seconds(self):
        manager = AlertManager([
            AlertRule(name="quiet", detector="spike-rate", kind="silent",
                      for_seconds=1.0),
        ])
        manager.evaluate(0.0, [_signal()])
        assert manager.counts() == {"pending": 1, "firing": 0, "resolved": 0}
        manager.evaluate(0.5, [_signal()])  # not held long enough yet
        assert manager.counts()["firing"] == 0
        manager.evaluate(1.0, [_signal()])
        assert manager.counts() == {"pending": 0, "firing": 1, "resolved": 0}
        assert manager.summary()["fired"] == ["quiet"]

    def test_pending_that_recovers_never_fires(self):
        manager = AlertManager([
            AlertRule(name="quiet", detector="spike-rate", kind="silent",
                      for_seconds=5.0),
        ])
        manager.evaluate(0.0, [_signal()])
        manager.evaluate(1.0, [])  # condition cleared inside the debounce
        assert manager.counts() == {"pending": 0, "firing": 0, "resolved": 0}
        assert manager.summary()["fired_total"] == 0
        assert manager.document()["alerts"] == []

    def test_firing_resolves_and_stays_listed(self):
        manager = AlertManager([
            AlertRule(name="quiet", detector="spike-rate", kind="silent"),
        ])
        manager.evaluate(0.0, [_signal()])  # for_seconds=0: fires at once
        assert manager.counts()["firing"] == 1
        manager.evaluate(1.0, [])
        assert manager.counts() == {"pending": 0, "firing": 0, "resolved": 1}
        (alert,) = manager.document()["alerts"]
        assert [h["state"] for h in alert["history"]] == [
            "pending", "firing", "resolved",
        ]
        assert alert["fired_at"] == 0.0
        assert alert["resolved_at"] == 1.0

    def test_resolved_alert_retriggers_as_fresh_pending(self):
        manager = AlertManager([
            AlertRule(name="quiet", detector="spike-rate", kind="silent",
                      for_seconds=10.0),
        ])
        manager.evaluate(0.0, [_signal()])
        manager.evaluate(10.0, [_signal()])  # fires
        manager.evaluate(11.0, [])  # resolves
        manager.evaluate(12.0, [_signal()])  # back: fresh pending
        assert manager.counts()["pending"] == 1
        assert manager.summary()["fired_total"] == 1

    def test_subjects_tracked_independently(self):
        manager = AlertManager([
            AlertRule(name="quiet", detector="spike-rate", kind="silent"),
        ])
        manager.evaluate(0.0, [
            _signal(subject="exc"), _signal(subject="inh"),
        ])
        assert manager.counts()["firing"] == 2
        manager.evaluate(1.0, [_signal(subject="exc")])
        counts = manager.counts()
        assert counts["firing"] == 1 and counts["resolved"] == 1

    def test_detector_rule_with_threshold_compares_signal_value(self):
        manager = AlertManager([
            AlertRule(name="big-skew", detector="straggler",
                      threshold=2.0, op=">"),
        ])
        small = HealthSignal("straggler", "shard1", "straggler", 1.0, 0.5, "m")
        big = HealthSignal("straggler", "shard1", "straggler", 3.0, 0.5, "m")
        manager.evaluate(0.0, [small])
        assert manager.counts()["firing"] == 0
        manager.evaluate(1.0, [big])
        assert manager.counts()["firing"] == 1

    def test_metric_rule_reads_registry(self):
        registry = MetricsRegistry()
        registry.counter("hook_errors_total").inc(3)
        manager = AlertManager([
            AlertRule(name="hooks", metric="hook_errors_total",
                      threshold=0.0, op=">"),
        ])
        manager.evaluate(0.0, [], metrics=registry)
        assert manager.counts()["firing"] == 1
        (alert,) = manager.document()["alerts"]
        assert alert["subject"] == "hook_errors_total"
        assert "= 3" in alert["message"]

    def test_metric_rule_missing_family_is_no_data_not_zero(self):
        registry = MetricsRegistry()
        manager = AlertManager([
            # op "<" against threshold 5: absent data must NOT satisfy
            # the comparison as if the value were 0.
            AlertRule(name="slow", metric="run_steps_per_sec",
                      threshold=5.0, op="<"),
        ])
        manager.evaluate(0.0, [], metrics=registry)
        assert manager.counts() == {"pending": 0, "firing": 0, "resolved": 0}


class TestPublishing:
    def _manager(self):
        status = StatusBoard(state="running")
        bus = EventBus()
        registry = MetricsRegistry()
        manager = AlertManager(
            [AlertRule(name="quiet", detector="spike-rate", kind="silent",
                       severity="critical")],
            status=status, bus=bus, metrics=registry,
        )
        return manager, status, bus, registry

    def test_transitions_publish_sse_alert_events(self):
        manager, _, bus, _ = self._manager()
        with bus.subscribe() as subscription:
            manager.evaluate(0.0, [_signal()])
            pending = subscription.get(timeout=1.0)
            firing = subscription.get(timeout=1.0)
        assert pending["type"] == "alert"
        assert pending["state"] == "pending"
        assert firing["state"] == "firing"
        assert firing["rule"] == "quiet"
        assert firing["severity"] == "critical"

    def test_status_board_carries_the_alert_block(self):
        manager, status, _, _ = self._manager()
        manager.evaluate(0.0, [_signal()])
        block = status.snapshot()["alerts"]
        assert block["firing"] == 1
        assert block["fired_total"] == 1
        (active,) = block["active"]
        assert active.startswith("[critical] quiet (exc):")

    def test_metrics_track_fired_and_firing(self):
        manager, _, _, registry = self._manager()
        manager.evaluate(0.0, [_signal()])
        assert registry.value_of("alerts_fired_total", {"rule": "quiet"}) == 1
        assert registry.value_of("alerts_firing") == 1
        manager.evaluate(1.0, [])
        assert registry.value_of("alerts_firing") == 0
        # fired_total is cumulative, not a live count.
        assert registry.value_of("alerts_fired_total") == 1


class TestHealthMonitor:
    def test_background_thread_starts_and_stops_cleanly(self):
        registry = MetricsRegistry()
        manager = AlertManager([
            AlertRule(name="hooks", metric="hook_errors_total",
                      threshold=0.0, op=">"),
        ])
        monitor = HealthMonitor(manager, metrics=registry, interval=0.01)
        monitor.start()
        monitor.start()  # idempotent
        registry.counter("hook_errors_total").inc()
        monitor.finish()
        assert monitor._thread is None
        assert manager.summary()["fired_total"] == 1
