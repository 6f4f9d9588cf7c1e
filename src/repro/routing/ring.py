"""The delay-bucketed spike ring: one population's in-flight spikes.

Output spikes propagate "after a certain number of time steps, or
delay, associated to each synapse" (Section II-C). A :class:`DelayRing`
holds one accumulation bucket per future step, indexed by
``(step + delay) % (max_delay + 1)``; enqueueing a spike adds its
synaptic weight into the bucket ``delay`` steps ahead, and each step
the simulator consumes the current bucket as that population's
accumulated ``(n_synapse_types, n)`` input.

Two things distinguish the ring from the legacy ``SpikeQueue`` it
replaces:

* **Integral event accounting.** Alongside the float weight buckets the
  ring keeps a per-bucket *event count* (``int64``), so "how many
  deliveries are in flight" is an exact integer — ``pending_total()``
  — while the accumulated weight is a separate, honestly-float
  ``pending_weight()``. Telemetry publishes both without ever casting
  a count through a float.

* **A min-delay-aware flush window.** Every synapse into this
  population has ``delay >= min_delay``, so once step ``t``'s enqueues
  are done, the buckets for steps ``t .. t + min_delay`` can receive no
  further *synaptic* traffic — a spike generated at step ``t' > t``
  lands at ``t' + delay >= t + 1 + min_delay``. :meth:`flush_window`
  exposes the first ``min_delay`` of those final buckets as one batch.
  (Stimulus injection via :meth:`enqueue_now` targets only the current
  head at its own step, so it never invalidates a window taken after
  the stimulus phase.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class DelayRing:
    """Ring of per-step accumulation buckets for one population."""

    def __init__(
        self,
        n: int,
        n_synapse_types: int,
        max_delay: int,
        min_delay: int = 1,
    ):
        if max_delay < 1:
            raise SimulationError(f"max_delay must be >= 1, got {max_delay}")
        if not 1 <= min_delay <= max_delay:
            raise SimulationError(
                f"min_delay must be in 1..{max_delay}, got {min_delay}"
            )
        self.n = n
        self.n_synapse_types = n_synapse_types
        self.min_delay = min_delay
        self.depth = max_delay + 1
        self._ring = np.zeros(
            (self.depth, n_synapse_types, n), dtype=np.float64
        )
        #: Events accumulated per bucket (delivery multiplicity, exact).
        self._counts = np.zeros(self.depth, dtype=np.int64)
        self._head = 0
        #: Lifetime count of spike deliveries accumulated into the ring
        #: (telemetry; published as ``ring_events_enqueued_total`` and,
        #: under its legacy name, ``spike_queue_enqueued_total``).
        self.enqueued_events = 0

    # -- enqueue -----------------------------------------------------------

    def enqueue(
        self,
        post_idx: np.ndarray,
        weights: np.ndarray,
        delays: np.ndarray,
        syn_type: int,
    ) -> None:
        """Accumulate spike weights arriving ``delays`` steps from now."""
        if post_idx.size == 0:
            return
        if np.any(delays < 1) or np.any(delays >= self.depth):
            raise SimulationError(
                f"delay out of range 1..{self.depth - 1} for this ring"
            )
        slots = (self._head + delays) % self.depth
        np.add.at(self._ring, (slots, syn_type, post_idx), weights)
        np.add.at(self._counts, slots, 1)
        self.enqueued_events += post_idx.size

    def enqueue_now(
        self, post_idx: np.ndarray, weights: np.ndarray, syn_type: int
    ) -> None:
        """Accumulate weights into the bucket popped at the *current* step.

        Used by stimulus generation, which injects into the present
        time step before the neuron-computation phase runs.
        """
        if post_idx.size == 0:
            return
        np.add.at(self._ring, (self._head, syn_type, post_idx), weights)
        self._counts[self._head] += post_idx.size
        self.enqueued_events += post_idx.size

    # -- consume -----------------------------------------------------------

    def current(self) -> np.ndarray:
        """The ``(n_synapse_types, n)`` input accumulated for this step.

        A live (writable) view: fault injectors mutate it in place.
        """
        return self._ring[self._head]

    def current_events(self) -> int:
        """Deliveries accumulated into the current bucket (exact count).

        Zero means the current input is provably all-silent — the
        event-driven runtimes use this to skip scanning the dense
        input array entirely.
        """
        return int(self._counts[self._head])

    def rotate(self) -> None:
        """Clear the consumed bucket and advance to the next step."""
        self._ring[self._head][:] = 0.0
        self._counts[self._head] = 0
        self._head = (self._head + 1) % self.depth

    # -- batched flush -----------------------------------------------------

    @property
    def flush_horizon(self) -> int:
        """Buckets per flush batch (= ``min_delay``, the sync period)."""
        return self.min_delay

    def flush_window(self, horizon: int = 0) -> np.ndarray:
        """Copy of the next ``horizon`` buckets, in delivery order.

        ``horizon`` defaults to :attr:`flush_horizon`. The returned
        ``(horizon, n_synapse_types, n)`` array equals the sequence of
        :meth:`current` pops over the next ``horizon`` rotations,
        provided no further enqueues land meanwhile — which the
        min-delay contract guarantees for synaptic traffic once the
        current step's enqueues are done.
        """
        horizon = horizon or self.min_delay
        if not 1 <= horizon <= self.depth:
            raise SimulationError(
                f"flush horizon must be in 1..{self.depth}, got {horizon}"
            )
        slots = (self._head + np.arange(horizon)) % self.depth
        return self._ring[slots].copy()

    def flush_events(self, horizon: int = 0) -> np.ndarray:
        """Per-bucket event counts of the flush window (``int64``)."""
        horizon = horizon or self.min_delay
        if not 1 <= horizon <= self.depth:
            raise SimulationError(
                f"flush horizon must be in 1..{self.depth}, got {horizon}"
            )
        slots = (self._head + np.arange(horizon)) % self.depth
        return self._counts[slots].copy()

    # -- accounting --------------------------------------------------------

    def pending_total(self) -> int:
        """Number of enqueued deliveries not yet consumed (exact int)."""
        return int(self._counts.sum())

    def pending_weight(self) -> float:
        """Sum of all queued weight (useful for conservation tests)."""
        return float(self._ring.sum())

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """The full ring contents and head position (checkpointing)."""
        return {
            "ring": self._ring.copy(),
            "counts": self._counts.copy(),
            "head": self._head,
            "min_delay": self.min_delay,
            "enqueued_events": self.enqueued_events,
        }

    def restore(self, snapshot: dict) -> None:
        """Overwrite the ring from a :meth:`snapshot`."""
        ring = np.asarray(snapshot["ring"], dtype=np.float64)
        if ring.shape != self._ring.shape:
            raise SimulationError(
                f"snapshot ring shape {ring.shape} does not match "
                f"{self._ring.shape}"
            )
        head = int(snapshot["head"])
        if not 0 <= head < self.depth:
            raise SimulationError(f"snapshot head {head} out of range")
        counts = np.asarray(
            snapshot.get("counts", np.zeros(self.depth)), dtype=np.int64
        )
        if counts.shape != self._counts.shape:
            raise SimulationError(
                f"snapshot counts shape {counts.shape} does not match "
                f"{self._counts.shape}"
            )
        self._ring[:] = ring
        self._counts[:] = counts
        self._head = head
        self.enqueued_events = int(snapshot.get("enqueued_events", 0))
