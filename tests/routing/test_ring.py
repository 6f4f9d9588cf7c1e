"""Tests for the delay-bucketed spike ring."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.routing import DelayRing


def _enqueue(ring, target, weight, delay, syn_type=0):
    ring.enqueue(
        np.array([target]),
        np.array([weight]),
        np.array([delay]),
        syn_type,
    )


class TestConstruction:
    def test_rejects_bad_max_delay(self):
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 0)

    def test_rejects_min_delay_out_of_range(self):
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 3, min_delay=0)
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 3, min_delay=4)

    def test_depth_and_flush_horizon(self):
        ring = DelayRing(4, 2, 5, min_delay=3)
        assert ring.depth == 6
        assert ring.flush_horizon == 3


class TestEventAccounting:
    def test_pending_total_is_exact_int(self):
        ring = DelayRing(8, 1, 4)
        _enqueue(ring, 0, 0.25, 2)
        _enqueue(ring, 3, -1.5, 4)
        ring.enqueue_now(np.array([1]), np.array([0.5]), 0)
        assert ring.pending_total() == 3
        assert type(ring.pending_total()) is int
        assert ring.pending_weight() == pytest.approx(0.25 - 1.5 + 0.5)

    def test_current_events_tracks_head_bucket(self):
        ring = DelayRing(8, 1, 4)
        assert ring.current_events() == 0
        _enqueue(ring, 0, 1.0, 1)
        assert ring.current_events() == 0
        ring.rotate()
        assert ring.current_events() == 1
        assert type(ring.current_events()) is int
        ring.rotate()
        assert ring.current_events() == 0
        assert ring.pending_total() == 0

    def test_enqueued_events_is_lifetime_monotone(self):
        ring = DelayRing(8, 1, 4)
        _enqueue(ring, 0, 1.0, 1)
        ring.rotate()
        ring.rotate()
        _enqueue(ring, 1, 1.0, 2)
        assert ring.enqueued_events == 2

    def test_zero_weight_delivery_still_counts(self):
        # The event count tracks deliveries, not magnitudes — a fault
        # injector zeroing weights in place must not turn the bucket
        # "provably silent" (current() stays a writable view).
        ring = DelayRing(4, 1, 2)
        _enqueue(ring, 0, 1.0, 1)
        ring.rotate()
        ring.current()[:] = 0.0
        assert ring.current_events() == 1


class TestFlushWindow:
    def test_window_equals_future_pops(self):
        ring = DelayRing(5, 2, 6, min_delay=3)
        rng = np.random.default_rng(0)
        for _ in range(12):
            _enqueue(
                ring,
                int(rng.integers(0, 5)),
                float(rng.random()),
                int(rng.integers(1, 7)),
                int(rng.integers(0, 2)),
            )
        window = ring.flush_window()
        events = ring.flush_events()
        assert window.shape == (3, 2, 5)
        for offset in range(3):
            np.testing.assert_array_equal(window[offset], ring.current())
            assert events[offset] == ring.current_events()
            ring.rotate()

    def test_min_delay_traffic_cannot_invalidate_window(self):
        # Once a step's enqueues are done, future synaptic spikes
        # (delay >= min_delay, enqueued at strictly later steps) land
        # beyond the window — the batching contract flush_window
        # promises.
        ring = DelayRing(3, 1, 5, min_delay=2)
        _enqueue(ring, 0, 1.0, 1)
        _enqueue(ring, 1, 2.0, 2)
        window = ring.flush_window()
        for offset in range(ring.flush_horizon):
            np.testing.assert_array_equal(window[offset], ring.current())
            ring.rotate()
            _enqueue(ring, 2, 5.0, 2)  # later-step spike, min delay

    def test_window_bounds_validated(self):
        ring = DelayRing(3, 1, 4)
        with pytest.raises(SimulationError):
            ring.flush_window(0 - 1)
        with pytest.raises(SimulationError):
            ring.flush_window(ring.depth + 1)
        with pytest.raises(SimulationError):
            ring.flush_events(ring.depth + 1)

    def test_min_delay_equal_to_max_delay(self):
        # The degenerate single-delay network: the flush horizon spans
        # every bucket but the newest (depth - 1 of them), and the
        # window still equals the future pops bucket-for-bucket.
        ring = DelayRing(4, 2, 3, min_delay=3)
        assert ring.depth == 4
        assert ring.flush_horizon == ring.depth - 1
        _enqueue(ring, 0, 1.5, 3, syn_type=1)
        _enqueue(ring, 2, -0.5, 3)
        window = ring.flush_window()
        events = ring.flush_events()
        assert window.shape == (3, 2, 4)
        for offset in range(3):
            np.testing.assert_array_equal(window[offset], ring.current())
            assert events[offset] == ring.current_events()
            ring.rotate()

    def test_explicit_full_depth_window(self):
        # horizon == depth is legal (a whole-ring snapshot view) even
        # though the newest bucket can still receive traffic.
        ring = DelayRing(3, 1, 4, min_delay=2)
        for delay in (1, 2, 3, 4):
            _enqueue(ring, delay % 3, float(delay), delay)
        window = ring.flush_window(ring.depth)
        events = ring.flush_events(ring.depth)
        assert window.shape == (ring.depth, 1, 3)
        assert events.shape == (ring.depth,)
        assert events.sum() == 4
        for offset in range(ring.depth):
            np.testing.assert_array_equal(window[offset], ring.current())
            ring.rotate()

    def test_flush_after_restore_at_rotation_offsets(self):
        # A restored ring must flush the same window the original
        # would, wherever the head happens to sit.
        for rotations in range(6):
            ring = DelayRing(5, 2, 5, min_delay=2)
            rng = np.random.default_rng(rotations)
            for _ in range(rotations):
                _enqueue(
                    ring,
                    int(rng.integers(0, 5)),
                    float(rng.random()),
                    int(rng.integers(1, 6)),
                    int(rng.integers(0, 2)),
                )
                ring.rotate()
            other = DelayRing(5, 2, 5, min_delay=2)
            other.restore(ring.snapshot())
            np.testing.assert_array_equal(
                other.flush_window(), ring.flush_window()
            )
            np.testing.assert_array_equal(
                other.flush_events(), ring.flush_events()
            )
            # ...and they evolve identically afterwards.
            ring.rotate()
            other.rotate()
            np.testing.assert_array_equal(other.current(), ring.current())
            assert other.current_events() == ring.current_events()

    def test_empty_window_is_all_zero(self):
        ring = DelayRing(4, 2, 6, min_delay=3)
        window = ring.flush_window()
        events = ring.flush_events()
        assert window.shape == (3, 2, 4)
        assert not window.any()
        assert events.shape == (3,)
        assert not events.any()
        # Consuming an empty window leaves the accounting at zero.
        for _ in range(3):
            ring.rotate()
        assert ring.pending_total() == 0
        assert ring.enqueued_events == 0


class TestSnapshotRestore:
    def test_round_trip(self):
        ring = DelayRing(6, 2, 4, min_delay=2)
        _enqueue(ring, 2, 0.75, 3, syn_type=1)
        ring.rotate()
        _enqueue(ring, 4, -0.5, 1)
        payload = ring.snapshot()

        other = DelayRing(6, 2, 4, min_delay=2)
        other.restore(payload)
        assert other.pending_total() == ring.pending_total()
        assert other.pending_weight() == ring.pending_weight()
        assert other.enqueued_events == ring.enqueued_events
        for _ in range(ring.depth):
            np.testing.assert_array_equal(other.current(), ring.current())
            assert other.current_events() == ring.current_events()
            other.rotate()
            ring.rotate()

    def test_restore_rejects_wrong_shape(self):
        ring = DelayRing(6, 2, 4)
        payload = ring.snapshot()
        with pytest.raises(SimulationError):
            DelayRing(6, 2, 5).restore(payload)

    def test_restore_rejects_bad_head(self):
        ring = DelayRing(6, 2, 4)
        payload = ring.snapshot()
        payload["head"] = ring.depth
        with pytest.raises(SimulationError):
            ring.restore(payload)

    def test_restore_defaults_missing_counts(self):
        # Pre-ring snapshots carried no event counts; restoring one
        # must still work, with counts conservatively zeroed.
        ring = DelayRing(6, 2, 4)
        _enqueue(ring, 1, 1.0, 2)
        payload = ring.snapshot()
        del payload["counts"]
        del payload["enqueued_events"]
        ring.restore(payload)
        assert ring.pending_total() == 0
        assert ring.pending_weight() == pytest.approx(1.0)
