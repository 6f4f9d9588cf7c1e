"""Delay-bucketed spike routing shared by every execution path.

Spike delivery used to live in ``repro.network.spike_queue`` as a
per-population ring owned directly by the simulator. This package
hoists that structure into a routing layer of its own so one delivery
mechanism serves every consumer:

* the three-phase :class:`~repro.network.simulator.Simulator` loop,
* the event-driven hardware runtimes (which bind their population's
  ring to short-circuit idle classification),
* and checkpoint capture/restore (the ring snapshot is the unit of
  in-flight-spike state).

:class:`DelayRing` is the single-population delay-bucketed ring:
per-synapse-type accumulation buckets indexed by
``(step + delay) % (max_delay + 1)``, with integral per-bucket event
counts alongside the accumulated weights. :class:`SpikeRouter` owns
one ring per population, sized from the network's actual incoming
delays, and is the seam the simulator, the checkpoint layer, and the
metrics publisher all talk to.
"""

from repro.routing.ring import DelayRing
from repro.routing.router import SpikeRouter

__all__ = ["DelayRing", "SpikeRouter"]
