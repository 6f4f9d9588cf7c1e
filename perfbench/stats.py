"""Small statistics the benchmark reports and checks."""

from __future__ import annotations

from typing import Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def samples_beyond(samples: Sequence[float], value: float) -> int:
    return sum(1 for sample in samples if sample > value)


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL` samples lie
    strictly beyond it: a percentile with fewer is not measured.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    beyond = samples_beyond(ordered, value)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return value

