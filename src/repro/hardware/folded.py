"""Spatially folded Flexon: microcoded two-stage pipeline (Figure 11).

Where the baseline Flexon instantiates every data path, the folded
design shares one multiplier, one adder and one exponential unit, and
schedules each feature's sub-operations over them with control signals
(Section V-B). An assembled :class:`~repro.hardware.microcode.Microprogram`
is a static schedule, so this model compiles it once
(:func:`~repro.hardware.microcode.compile_microprogram`) into a
straight-line kernel and steps that kernel ever after:

* **stage 1** executes the control signals — each is one pass through
  the shared MUL-ADD(-EXP) with operands selected per Table IV — and
  accumulates contributions into the membrane accumulator v';
* **stage 2** checks the firing condition, applies resets and
  spike-triggered jumps, ticks the refractory counter, and writes the
  (truncated) membrane value back.

Saturation is fused. Every datapath op writes its unclipped result to
its own scratch row, and one min/max over those rows decides the step:

* all rows in range — no op would have clipped, so the rows are exactly
  what the saturating op-by-op schedule computes; the step records its
  compile-time ``checked`` total (ops x n) with zero clips and commits;
* any row out of range — stage 1 runs again from the untouched
  registers with an exact clip and count after each op. Until the
  first op that clips, both runs compute the same values, so that
  op's unclipped result is the one the check saw out of range: the
  check cannot miss a clip.

The membrane write-back to ``MEMBRANE_FORMAT`` clips every step on some
workloads, so it has its own bounds check and clips and counts only
on overflow, never replaying stage 1.

Functional correctness is verified against the baseline Flexon bit for
bit (the equivalence the paper's Table V schedules must guarantee; the
baseline keeps its own per-datapath arithmetic so that the check means
something), and the per-neuron cycle occupancy (``signals + 1``) feeds
the Figure 13 latency model — e.g. QDI's structural hazard on the single
multiplier makes its simulation take an extra cycle, exactly as Section
V-B notes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.features import Feature
from repro.fixedpoint import MEMBRANE_FORMAT, FixedFormat
from repro.hardware.control import STATE_G, STATE_R, STATE_V, STATE_W, STATE_Y
from repro.hardware.microcode import Microprogram, compile_microprogram


class FoldedFlexonNeuron:
    """A vectorised array of folded Flexon neurons running one program."""

    def __init__(
        self,
        program: Microprogram,
        n: int,
        membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
    ):
        self.program = program
        self.n = n
        self.membrane_format = membrane_format
        self.kernel = compile_microprogram(program, n, membrane_format)
        #: The register file and AR counter: the kernel's own arrays,
        #: only ever updated in place.
        self.regs = self.kernel.regs
        self.cnt = self.kernel.cnt
        #: Total pipeline cycles consumed so far (all neurons).
        self.total_cycles = 0
        self._cycles_per_step = n * program.cycles_per_neuron

    @property
    def cycles_per_neuron(self) -> int:
        """Pipeline occupancy of one neuron update."""
        return self.program.cycles_per_neuron

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Advance every neuron one time step; return the fired mask."""
        expected = self.kernel.inputs.shape
        if raw_inputs.shape != expected:
            raise SimulationError(
                f"expected inputs of shape {expected}, got {raw_inputs.shape}"
            )
        fired = self.kernel.run(raw_inputs)
        self.total_cycles += self._cycles_per_step
        return fired

    # -- host-side views -------------------------------------------------------

    def float_state(self) -> Dict[str, np.ndarray]:
        """The architectural state as floats, named like the models'."""
        fmt = self.program.constants.fmt
        c = self.program.constants
        out = {"v": self.regs[STATE_V].astype(np.float64) / fmt.scale}
        features = self.program.features
        if features.uses_conductance:
            for i in range(c.n_synapse_types):
                out[f"g{i}"] = self.regs[STATE_G[i]].astype(np.float64) / fmt.scale
        if Feature.COBA in features:
            for i in range(c.n_synapse_types):
                out[f"y{i}"] = self.regs[STATE_Y[i]].astype(np.float64) / fmt.scale
        if features.has_adaptation_state:
            out["w"] = self.regs[STATE_W].astype(np.float64) / fmt.scale
        if Feature.RR in features:
            out["r"] = self.regs[STATE_R].astype(np.float64) / fmt.scale
        if self.cnt is not None:
            out["cnt"] = self.cnt.astype(np.float64)
        return out

    def snapshot(self) -> Dict[str, object]:
        """Copies of the architectural registers (checkpointing)."""
        return {
            "regs": self.regs.copy(),
            "cnt": None if self.cnt is None else self.cnt.copy(),
            "total_cycles": self.total_cycles,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Overwrite the register file from a :meth:`snapshot`."""
        regs = np.asarray(snapshot["regs"], dtype=np.int64)
        if regs.shape != self.regs.shape:
            raise SimulationError(
                f"snapshot register shape {regs.shape} does not match "
                f"{self.regs.shape}"
            )
        cnt = snapshot["cnt"]
        if (cnt is None) != (self.cnt is None):
            raise SimulationError(
                "snapshot refractory counter does not match this program"
            )
        if cnt is not None:
            cnt = np.asarray(cnt, dtype=np.int64)
            if cnt.shape != self.cnt.shape:
                raise SimulationError(
                    f"snapshot counter shape {cnt.shape} does not match "
                    f"{self.cnt.shape}"
                )
            np.copyto(self.cnt, cnt)
        np.copyto(self.regs, regs)
        self.total_cycles = int(snapshot["total_cycles"])
