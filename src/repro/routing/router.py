"""SpikeRouter: every population's delay ring behind one seam.

The simulator, the checkpoint layer, the fault injectors, and the
telemetry publisher used to each walk their own dict of per-population
spike queues. The router is that dict promoted to a first-class object
with the three operations they all actually need — look up a ring,
advance every ring one step, snapshot/restore the lot — plus the
network-shape analysis that sizes each ring from the delays that can
actually reach it.

Sizing matters twice:

* each ring's **depth** is the largest *incoming* delay of its
  population (not the network-wide maximum), so a population fed only
  by short-delay projections does not carry dead buckets;
* each ring's **min_delay** is the smallest incoming delay — the
  population's flush horizon, i.e. how many consecutive buckets are
  final once a step's enqueues are done.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import SimulationError
from repro.routing.ring import DelayRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.network import Network


class SpikeRouter:
    """Owns one :class:`DelayRing` per population."""

    def __init__(self, rings: Dict[str, DelayRing]):
        self._rings = dict(rings)

    @classmethod
    def from_network(cls, network: "Network") -> "SpikeRouter":
        """Build per-population rings sized from actual incoming delays.

        Populations with no incoming projection still get a minimal
        ring (depth 2, min_delay 1): stimuli inject into the current
        bucket and the neuron phase always consumes one.
        """
        bounds: Dict[str, tuple] = {}
        for projection in network.projections:
            name = projection.post.name
            lo, hi = bounds.get(name, (None, 1))
            p_lo, p_hi = projection.min_delay, projection.max_delay
            lo = p_lo if lo is None else min(lo, p_lo)
            bounds[name] = (lo, max(hi, p_hi))
        rings = {}
        for name, population in network.populations.items():
            min_delay, max_delay = bounds.get(name, (1, 1))
            rings[name] = DelayRing(
                population.n,
                population.n_synapse_types,
                max_delay,
                min_delay=min_delay,
            )
        return cls(rings)

    # -- lookup ------------------------------------------------------------

    @property
    def rings(self) -> Dict[str, DelayRing]:
        """All rings, keyed by population name."""
        return self._rings

    def ring(self, population: str) -> DelayRing:
        try:
            return self._rings[population]
        except KeyError:
            known = ", ".join(self._rings) or "<none>"
            raise SimulationError(
                f"no ring for population {population!r}; known: {known}"
            ) from None

    # -- stepping ----------------------------------------------------------

    def rotate_all(self) -> None:
        """Advance every ring one step (end of the simulation step)."""
        for ring in self._rings.values():
            ring.rotate()

    # -- accounting --------------------------------------------------------

    def pending_total(self) -> int:
        """In-flight deliveries across all rings (exact int)."""
        return sum(ring.pending_total() for ring in self._rings.values())

    def enqueued_total(self) -> int:
        """Lifetime deliveries accumulated across all rings."""
        return sum(ring.enqueued_events for ring in self._rings.values())

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        return {name: ring.snapshot() for name, ring in self._rings.items()}

    def restore(self, payload: Dict[str, dict]) -> None:
        """Restore every ring, validating shape *here*, by name.

        Mismatches raise with the offending population and field in the
        message instead of surfacing as an anonymous array-shape error
        deep inside :class:`DelayRing`.
        """
        missing = sorted(set(self._rings) - set(payload))
        unexpected = sorted(set(payload) - set(self._rings))
        if missing or unexpected:
            raise SimulationError(
                "router snapshot population mismatch: "
                f"missing={missing or '[]'} unexpected={unexpected or '[]'}"
            )
        for name, ring in self._rings.items():
            self._validate_ring_payload(name, ring, payload[name])
        for name, ring in self._rings.items():
            ring.restore(payload[name])

    @staticmethod
    def _validate_ring_payload(
        name: str, ring: DelayRing, ring_payload: dict
    ) -> None:
        if not isinstance(ring_payload, dict):
            raise SimulationError(
                f"population {name!r}: ring snapshot must be a dict, "
                f"got {type(ring_payload).__name__}"
            )
        for field in ("ring", "head"):
            if field not in ring_payload:
                raise SimulationError(
                    f"population {name!r}: ring snapshot missing "
                    f"field {field!r}"
                )
        shape = tuple(
            int(s) for s in getattr(ring_payload["ring"], "shape", ())
        )
        if len(shape) != 3:
            raise SimulationError(
                f"population {name!r}: ring snapshot must be "
                f"3-dimensional, got shape {shape}"
            )
        depth, n_syn, n = shape
        if depth != ring.depth:
            raise SimulationError(
                f"population {name!r}: ring depth mismatch — snapshot "
                f"has {depth} buckets, this router expects {ring.depth}"
            )
        if n_syn != ring.n_synapse_types:
            raise SimulationError(
                f"population {name!r}: synapse-type mismatch — snapshot "
                f"has {n_syn}, this router expects {ring.n_synapse_types}"
            )
        if n != ring.n:
            raise SimulationError(
                f"population {name!r}: size mismatch — snapshot holds "
                f"{n} neurons, this router expects {ring.n}"
            )
        head = int(ring_payload["head"])
        if not 0 <= head < ring.depth:
            raise SimulationError(
                f"population {name!r}: snapshot head {head} out of "
                f"range 0..{ring.depth - 1}"
            )

    # -- telemetry ---------------------------------------------------------

    def publish_metrics(self, metrics) -> None:
        """Publish per-ring routing counters (collect-time only)."""
        for name, ring in self._rings.items():
            labels = {"population": name}
            metrics.counter(
                "ring_events_enqueued_total",
                "Spike deliveries accumulated into the delay ring.",
                labels,
            ).set_total(ring.enqueued_events)
            metrics.gauge(
                "ring_pending_events",
                "In-flight deliveries awaiting their arrival step.",
                labels,
            ).set(ring.pending_total())
            metrics.gauge(
                "ring_flush_horizon_steps",
                "Min-delay flush horizon (cross-worker batch size).",
                labels,
            ).set(ring.flush_horizon)
