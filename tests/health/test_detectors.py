"""Streaming anomaly detectors: baselines, classification, recovery."""

import pytest

from repro.health.detectors import (
    EventMonitor,
    EwmaBaseline,
    SaturationDetector,
    SpikeRateDetector,
)


class TestEwmaBaseline:
    def test_first_sample_sets_mean_exactly(self):
        baseline = EwmaBaseline()
        baseline.update(12.0)
        assert baseline.mean == 12.0
        assert baseline.std == 0.0

    def test_mean_tracks_a_level_shift(self):
        baseline = EwmaBaseline(alpha=0.5)
        for _ in range(20):
            baseline.update(10.0)
        assert baseline.mean == pytest.approx(10.0)
        for _ in range(20):
            baseline.update(20.0)
        assert baseline.mean == pytest.approx(20.0, rel=1e-3)

    def test_zscore_flags_outlier_against_noisy_baseline(self):
        baseline = EwmaBaseline(alpha=0.2)
        for value in (9.0, 11.0, 10.0, 9.5, 10.5) * 4:
            baseline.update(value)
        assert abs(baseline.zscore(10.0)) < 2.0
        assert abs(baseline.zscore(30.0)) > 4.0

    def test_flat_baseline_never_divides_by_zero(self):
        baseline = EwmaBaseline()
        for _ in range(10):
            baseline.update(10.0)
        # std is 0; the proportional floor keeps the score finite.
        z = baseline.zscore(15.0)
        assert z == pytest.approx((15.0 - 10.0) / 0.5)


def _warm(detector, population="exc", rate=10.0, n=8):
    for _ in range(n):
        detector.observe(population, rate)


class TestSpikeRateDetector:
    def test_healthy_steady_rate_never_signals(self):
        detector = SpikeRateDetector()
        _warm(detector, n=50)
        assert detector.signals() == []

    def test_warmup_observations_never_signal(self):
        detector = SpikeRateDetector(warmup=4)
        # Wild swings inside the warmup window train the baseline only.
        for rate in (0.0, 100.0, 0.0, 100.0):
            detector.observe("exc", rate)
            assert detector.signals() == []

    def test_silence_after_firing_baseline_signals(self):
        detector = SpikeRateDetector()
        _warm(detector, rate=10.0)
        detector.observe("exc", 0.0)
        (signal,) = detector.signals()
        assert signal.kind == "silent"
        assert signal.subject == "exc"
        assert signal.detector == "spike-rate"

    def test_always_silent_population_never_signals_silent(self):
        detector = SpikeRateDetector()
        _warm(detector, rate=0.0, n=20)
        assert detector.signals() == []

    def test_explosion_signals_and_does_not_train_baseline(self):
        detector = SpikeRateDetector(explode_ratio=5.0)
        _warm(detector, rate=10.0)
        for _ in range(5):
            detector.observe("exc", 500.0)
        (signal,) = detector.signals()
        assert signal.kind == "exploding"
        # The anomaly must not have dragged the baseline toward itself:
        # a return to the old level reads as healthy immediately.
        detector.observe("exc", 10.0)
        assert detector.signals() == []

    def test_drift_signals_between_silent_and_exploding(self):
        detector = SpikeRateDetector(z_threshold=4.0)
        _warm(detector, rate=10.0, n=20)
        detector.observe("exc", 25.0)  # 2.5x: not exploding, not silent
        (signal,) = detector.signals()
        assert signal.kind == "drifting"

    def test_recovery_clears_the_signal(self):
        detector = SpikeRateDetector()
        _warm(detector, rate=10.0)
        detector.observe("exc", 0.0)
        assert detector.signals()
        detector.observe("exc", 10.0)
        assert detector.signals() == []

    def test_populations_are_independent(self):
        detector = SpikeRateDetector()
        _warm(detector, population="exc", rate=10.0)
        _warm(detector, population="inh", rate=20.0)
        detector.observe("exc", 0.0)
        detector.observe("inh", 20.0)
        (signal,) = detector.signals()
        assert signal.subject == "exc"


class TestSaturationDetector:
    def test_growth_signals_until_it_stops(self):
        detector = SaturationDetector()
        detector.observe("exc", 5)
        (signal,) = detector.signals()
        assert signal.kind == "saturation-growth"
        assert signal.value == 5.0
        detector.observe("exc", 5)  # no growth since last check
        assert detector.signals() == []

    def test_growth_threshold_filters_trickle(self):
        detector = SaturationDetector(growth_threshold=10)
        detector.observe("exc", 8)
        assert detector.signals() == []
        detector.observe("exc", 40)
        assert len(detector.signals()) == 1


class TestEventMonitor:
    def test_growth_signals_with_linger_then_clears(self):
        monitor = EventMonitor(linger=2)
        monitor.observe("fallback", 1)
        (signal,) = monitor.signals()
        assert signal.kind == "fallback"
        assert signal.value == 1.0
        monitor.observe("fallback", 1)  # no growth; linger 2 -> 1
        assert monitor.signals()
        monitor.observe("fallback", 1)  # linger 1 -> 0
        assert monitor.signals() == []

    def test_repeated_growth_refreshes_linger(self):
        monitor = EventMonitor(linger=2)
        monitor.observe("degraded", 1)
        monitor.observe("degraded", 2)
        monitor.observe("degraded", 2)
        assert monitor.signals()  # still fresh: growth refreshed it

    def test_zero_counts_never_signal(self):
        monitor = EventMonitor()
        for _ in range(5):
            monitor.observe("hook-error", 0)
        assert monitor.signals() == []
