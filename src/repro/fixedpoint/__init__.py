"""Fixed-point arithmetic substrate used by the Flexon hardware models.

The paper's digital neurons use a 32-bit fixed-point representation with
10 integer bits (Section IV-B1). Two value-compaction mechanisms are
modeled here:

* **shift & scale** — constants are normalised so that the resting
  voltage is 0 and the threshold voltage is 1.0 (handled by
  :mod:`repro.hardware.constants`);
* **truncate** — once the threshold is 1.0, membrane potentials live in
  ``[0, 1)`` so their integer portion can be truncated, shrinking
  per-neuron state from 32 to 22 bits.

This package provides :class:`~repro.fixedpoint.fixed.FixedFormat`
(a Q-format descriptor), :class:`~repro.fixedpoint.fixed.Fixed`
(a scalar fixed-point value), vectorised raw-integer helpers used by the
array-level hardware models, and the Schraudolph fast exponential
(:mod:`repro.fixedpoint.fastexp`) the paper uses for its exp unit.
"""

from repro.fixedpoint.fixed import (
    FLEXON_FORMAT,
    MEMBRANE_FORMAT,
    Fixed,
    FixedFormat,
    SaturationStats,
    active_saturation_sink,
    fx_add,
    fx_from_float,
    fx_mul,
    fx_neg,
    fx_round,
    fx_saturate,
    fx_sub,
    fx_to_float,
    observe_saturation,
)
from repro.fixedpoint.fastexp import fast_exp, fx_exp

__all__ = [
    "FLEXON_FORMAT",
    "MEMBRANE_FORMAT",
    "Fixed",
    "FixedFormat",
    "SaturationStats",
    "active_saturation_sink",
    "fast_exp",
    "fx_add",
    "fx_exp",
    "fx_from_float",
    "fx_mul",
    "fx_neg",
    "fx_round",
    "fx_saturate",
    "fx_sub",
    "fx_to_float",
    "observe_saturation",
]
