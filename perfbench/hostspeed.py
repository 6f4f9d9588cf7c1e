"""Step times scaled to a reference host speed.

On a shared host the same simulated step runs at two or more speeds,
and the host switches between them every few seconds: a 2-core host
measured 1.3 ms and 2.3 ms for one ``microcircuit-folded`` step,
depending on the moment. Medians over a run then depend on how long the
host spent in each state, not on the program.

So a run times a fixed probe (:func:`probe`, small Python and numpy
work that never touches the simulator) every :data:`PROBE_EVERY` steps,
between steps and outside their timing, and scales each step's host
time by ``REFERENCE_PROBE_S / probe time`` around it. A step that took
2 ms while the probe took twice the reference counts as 1 ms: times are
in *reference seconds*, the seconds of a host that runs the probe in
:data:`REFERENCE_PROBE_S`. The program never runs the probe's code, so
a change to the program moves the scaled times as it moves host times.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Steps between two probes. A probe costs about 2% of a folded step
#: chunk, and the host's speed state lasts well beyond 50 steps.
PROBE_EVERY = 50
#: The probe time a reference second belongs to.
REFERENCE_PROBE_S = 0.002

_VALUES = np.linspace(0.0, 1.0, 512)
_INDICES = np.arange(0, 512, 3)


def probe() -> int:
    """Fixed work: 240 rounds of small numpy calls and Python arithmetic
    (about 2 ms on a 2-core host), touching a few KiB."""
    v = _VALUES.copy()
    acc = np.zeros(512)
    total = 0
    for i in range(240):
        v *= 0.999
        v += 0.001
        fired = np.nonzero(v > 0.5)[0]
        np.add.at(acc, _INDICES, v[_INDICES])
        total += len(fired) + (i * 7) % 13
    return total


def scale(
    durations: Sequence[float], probes: Sequence[float], first_step: int
) -> List[float]:
    """Each step's duration in reference seconds.

    ``durations[i]`` is step ``first_step + i``; ``probes[k]`` was timed
    just before step ``k * PROBE_EVERY``. A step is scaled by the mean
    of the probes before and after its chunk (the one before, in the
    last chunk).
    """
    out = []
    last = len(probes) - 1
    for offset, duration in enumerate(durations):
        chunk = (first_step + offset) // PROBE_EVERY
        around = (probes[min(chunk, last)] + probes[min(chunk + 1, last)]) / 2
        out.append(duration * REFERENCE_PROBE_S / around)
    return out
