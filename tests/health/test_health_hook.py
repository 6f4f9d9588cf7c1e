"""HealthHook on live runs: silence, firing, bit-identity, overhead."""

import gc
import os
import time

import pytest

from repro.health import (
    AlertManager,
    AlertRule,
    HealthHook,
    load_alert_rules,
)
from repro.health.detectors import SpikeRateDetector
from repro.network.simulator import Simulator
from repro.supervision.job import spike_digest
from repro.telemetry.registry import MetricsRegistry
from repro.workloads import build_workload
from repro.workloads.builders import DT

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "alerts.json"
)


def _simulator(scale=0.02, seed=7):
    network = build_workload("Brunel", scale=scale, seed=seed)
    return network, Simulator(network, dt=DT, seed=seed + 1)


class TestHealthyRun:
    def test_healthy_run_fires_zero_alerts(self):
        """Acceptance: the shipped rule pack is quiet on a healthy run."""
        _, simulator = _simulator()
        manager = AlertManager(load_alert_rules(EXAMPLE_SPEC))
        hook = HealthHook(manager, simulator=simulator)
        result = simulator.run(60, hooks=[hook])
        assert result.alerts["fired_total"] == 0
        assert result.alerts["fired"] == []
        assert result.alerts["firing"] == 0
        assert result.alerts["rules"] == 6

    def test_result_alerts_summary_is_attached(self):
        _, simulator = _simulator()
        manager = AlertManager(
            [AlertRule(name="quiet", detector="spike-rate", kind="silent")]
        )
        hook = HealthHook(manager, simulator=simulator)
        result = simulator.run(20, hooks=[hook])
        assert set(result.alerts) >= {
            "rules", "fired", "fired_total", "pending", "firing", "resolved",
        }

    def test_resources_published_when_metrics_given(self):
        _, simulator = _simulator()
        metrics = MetricsRegistry()
        manager = AlertManager(
            [AlertRule(name="quiet", detector="spike-rate", kind="silent")],
            metrics=metrics,
        )
        hook = HealthHook(manager, simulator=simulator, metrics=metrics)
        simulator.run(10, hooks=[hook])
        assert metrics.value_of("process_resident_memory_bytes") > 0


class TestUnhealthyRun:
    def test_silent_population_fires_against_a_warmed_baseline(self):
        # Warm the rate baselines as if the populations had been firing
        # at 10 Hz, then run a network that produces no spikes at all:
        # every population reads as newly silent.
        network = build_workload("Brunel", scale=0.02, seed=7)
        network.stimuli.clear()  # no drive: no spikes
        simulator = Simulator(network, dt=DT, seed=8)
        detector = SpikeRateDetector(warmup=2)
        for _ in range(8):
            for name in network.populations:
                detector.observe(name, 10.0)
        manager = AlertManager(
            [AlertRule(name="silent-population", detector="spike-rate",
                       kind="silent", severity="critical")]
        )
        hook = HealthHook(
            manager, simulator=simulator, rate_detector=detector,
            publish_interval=0.0,
        )
        result = simulator.run(30, hooks=[hook])
        assert "silent-population" in result.alerts["fired"]

    def test_hook_errors_fire_the_events_rule(self):
        from repro.engine.hooks import PhaseHook

        class Exploding(PhaseHook):
            def on_phase(self, phase, step, seconds, operations):
                raise RuntimeError("boom")

        _, simulator = _simulator()
        manager = AlertManager(
            [AlertRule(name="hook-errors", detector="events",
                       kind="hook-error")]
        )
        # The failure is isolated at the end of step 0, so the run-end
        # evaluation sees it on result.hook_errors.
        hook = HealthHook(manager, simulator=simulator)
        with pytest.warns(RuntimeWarning, match="hook isolated"):
            result = simulator.run(10, hooks=[Exploding(), hook])
        assert len(result.hook_errors) == 1
        assert result.alerts["fired"] == ["hook-errors"]


class TestBitIdentity:
    def test_monitored_run_is_spike_identical_to_bare_run(self):
        """Observation must never perturb the simulation."""
        _, bare_sim = _simulator(seed=11)
        _, monitored_sim = _simulator(seed=11)
        manager = AlertManager(load_alert_rules(EXAMPLE_SPEC))
        hook = HealthHook(
            manager, simulator=monitored_sim, publish_interval=0.0
        )
        bare = bare_sim.run(40)
        monitored = monitored_sim.run(40, hooks=[hook])
        assert spike_digest(monitored.spikes) == spike_digest(bare.spikes)


class TestOverheadBudget:
    def test_health_hook_overhead_below_five_percent(self):
        """Acceptance: a healthy ``--alerts`` run costs < 5% steps/sec.

        Same ABBA-interleaved best-of discipline as ``repro profile``:
        host drift and position-in-pair bias hit both series alike, the
        best rep suppresses scheduler noise, and noisy shared CI hosts
        get retries before the assertion is allowed to fail.
        """
        # Asserted at a scale where a step does substantial work: at
        # toy scales the hook's fixed run-end evaluation is measured
        # against a nearly empty run and noise dominates.
        steps, reps = 240, 6
        _, bare_sim = _simulator(scale=0.2, seed=3)
        _, monitored_sim = _simulator(scale=0.2, seed=3)
        manager = AlertManager(load_alert_rules(EXAMPLE_SPEC))
        hook = HealthHook(manager, simulator=monitored_sim)
        perf_counter = time.perf_counter

        def run_bare():
            start = perf_counter()
            bare_sim.run(steps, record_spikes=False)
            return steps / (perf_counter() - start)

        def run_monitored():
            start = perf_counter()
            monitored_sim.run(steps, record_spikes=False, hooks=[hook])
            return steps / (perf_counter() - start)

        run_bare(), run_monitored()  # warm both paths before timing
        for attempt in range(3):
            bare_sps, monitored_sps = [], []
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for rep in range(reps):
                    if rep % 2 == 0:
                        bare_sps.append(run_bare())
                        monitored_sps.append(run_monitored())
                    else:
                        monitored_sps.append(run_monitored())
                        bare_sps.append(run_bare())
            finally:
                if gc_was_enabled:
                    gc.enable()
            overhead = 1.0 - max(monitored_sps) / max(bare_sps)
            if overhead < 0.05:
                break
            time.sleep(2.0)
        assert overhead < 0.05, (bare_sps, monitored_sps)
