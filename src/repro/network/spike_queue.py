"""Back-compat home of the per-population delay ring.

The implementation moved to :mod:`repro.routing.ring` when spike
delivery became a routing layer of its own (shared by the simulator,
the event-driven runtimes, and checkpointing). :class:`SpikeQueue`
remains as the historical name — it *is* a
:class:`~repro.routing.ring.DelayRing` — so existing imports, tests,
and checkpoints keep working unchanged.

Note one deliberate behaviour fix that rode along with the move:
``pending_total()`` now returns the exact integral number of in-flight
deliveries (event counts are integers end-to-end); the accumulated
float weight lives on ``pending_weight()``.
"""

from __future__ import annotations

from repro.routing.ring import DelayRing

__all__ = ["SpikeQueue"]


class SpikeQueue(DelayRing):
    """Ring buffer of accumulated synaptic weights for one population."""
