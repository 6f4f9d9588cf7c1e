"""Baseline Flexon: the single-cycle flexible digital neuron (Figure 10).

All per-feature data paths evaluate in parallel within one cycle;
multiplexers gate the conflicting ones (QDI vs EXI, EXD vs LID) and
latches switch unused paths off. This functional model evaluates the
enabled data paths in the canonical order shared with the folded
microcode (see :mod:`repro.hardware.microcode`), making the two designs
bit-identical — the property Section V-B's control signals must
guarantee.

State lives in raw fixed point. Between steps the membrane potential is
written back through the *truncate* optimisation (Section IV-B1): with
``theta = 1.0`` the integer portion is mostly redundant, so storage
narrows from the 32-bit datapath format to a 24-bit membrane format
(sign + 1 integer bit + 22 fraction bits; the paper quotes 22 bits
assuming non-negative potentials — we keep a sign bit because reversal
synapses legitimately pull below rest, and document the delta).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.features import Feature, FeatureSet
from repro.fixedpoint import MEMBRANE_FORMAT, FixedFormat, fx_add, fx_saturate
from repro.hardware import datapaths as dp
from repro.hardware.constants import NeuronConstants


class FlexonNeuron:
    """A vectorised array of baseline Flexon neurons (one model).

    ``step`` performs what one hardware cycle performs for each neuron:
    consume the accumulated (already weight-pre-scaled, quantised)
    input, update all state, and report fired neurons.
    """

    #: Cycles one neuron update occupies (the single-cycle design).
    CYCLES_PER_NEURON = 1

    def __init__(
        self,
        features: FeatureSet,
        constants: NeuronConstants,
        n: int,
        membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
    ):
        self.features = features
        self.constants = constants
        self.n = n
        self.membrane_format = membrane_format
        self.state: Dict[str, np.ndarray] = {
            "v": np.zeros(n, dtype=np.int64)
        }
        n_types = constants.n_synapse_types
        if features.uses_conductance:
            for i in range(n_types):
                self.state[f"g{i}"] = np.zeros(n, dtype=np.int64)
        if Feature.COBA in features:
            for i in range(n_types):
                self.state[f"y{i}"] = np.zeros(n, dtype=np.int64)
        if features.has_adaptation_state:
            self.state["w"] = np.zeros(n, dtype=np.int64)
        if Feature.RR in features:
            self.state["r"] = np.zeros(n, dtype=np.int64)
        if Feature.AR in features:
            self.state["cnt"] = np.zeros(n, dtype=np.int64)

    # -- one hardware cycle -----------------------------------------------

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Advance every neuron one time step; return the fired mask.

        ``raw_inputs`` has shape ``(n_synapse_types, n)`` and carries
        the accumulated synaptic weights as raw fixed-point integers,
        already pre-scaled by the back-end's weight scale.
        """
        c = self.constants
        f = self.features
        fmt = c.fmt
        if raw_inputs.shape != (c.n_synapse_types, self.n):
            raise SimulationError(
                f"expected inputs of shape {(c.n_synapse_types, self.n)}, "
                f"got {raw_inputs.shape}"
            )
        v = self.state["v"]

        # AR input gating (Figure 9i)
        if Feature.AR in f:
            gated = dp.ArPath.gate(raw_inputs, self.state["cnt"])
        else:
            gated = raw_inputs

        # 1. membrane decay + CUB inputs
        has_cub = f.accumulation_kernel is Feature.CUB
        if Feature.EXD in f:
            acc = dp.CubExdLidPath.exd(v, c)
        else:
            acc = dp.CubExdLidPath.lid(v, c)
        if has_cub:
            for i in range(c.n_synapse_types):
                acc = fx_add(acc, dp.CubExdLidPath.cub(gated[i], c), fmt)

        # 2. conductance kernels (+ reversal coupling)
        use_rev = Feature.REV in f
        for i in range(c.n_synapse_types):
            if Feature.COBA in f:
                g_new, y_new = dp.CobaPath.update(
                    self.state[f"g{i}"], self.state[f"y{i}"], gated[i], i, c
                )
                self.state[f"g{i}"] = g_new
                self.state[f"y{i}"] = y_new
            elif Feature.COBE in f:
                g_new = dp.CobePath.update(self.state[f"g{i}"], gated[i], i, c)
                self.state[f"g{i}"] = g_new
            else:
                continue
            if use_rev:
                acc = fx_add(acc, dp.RevPath.contribution(v, g_new, i, c), fmt)
            else:
                acc = fx_add(acc, g_new, fmt)

        # 3. spike-triggered current
        if Feature.RR in f:
            w_new, r_new, contribution = dp.RrPath.update(
                self.state["w"], self.state["r"], v, c
            )
            self.state["w"] = w_new
            self.state["r"] = r_new
            acc = fx_add(acc, contribution, fmt)
        elif Feature.SBT in f:
            w_new = dp.SbtPath.update(self.state["w"], v, c)
            self.state["w"] = w_new
            acc = fx_add(acc, w_new, fmt)
        elif Feature.ADT in f:
            w_new = dp.AdtPath.decay(self.state["w"], c)
            self.state["w"] = w_new
            acc = fx_add(acc, w_new, fmt)

        # 4. spike initiation (EXI placed at the top of the adder tree,
        # the critical-path optimisation of Section IV-B1)
        if Feature.QDI in f:
            acc = fx_add(acc, dp.QdiPath.contribution(v, c), fmt)
        elif Feature.EXI in f:
            acc = fx_add(acc, dp.ExiPath.contribution(v, c), fmt)

        # 5. fire, reset, write back
        fired = acc > c.threshold
        v_next = np.where(fired, np.int64(c.v_reset), acc)
        if self.membrane_format is not None:
            v_next = fx_saturate(v_next, self.membrane_format)
        self.state["v"] = v_next
        # RR-mode jumps grow the reversal-coupled w/r conductances (see
        # the FeatureModel.step commentary); direct-coupled w shrinks.
        if Feature.RR in f:
            self.state["w"] = self.state["w"] + np.where(fired, c.b, 0)
            self.state["r"] = self.state["r"] + np.where(fired, c.q_r, 0)
        elif f.has_adaptation_state:
            self.state["w"] = self.state["w"] - np.where(fired, c.b, 0)
        if Feature.AR in f:
            cnt = dp.ArPath.tick(self.state["cnt"])
            cnt[fired] = c.cnt_max
            self.state["cnt"] = cnt
        return fired

    # -- host-side views -------------------------------------------------------

    def float_state(self) -> Dict[str, np.ndarray]:
        """The state converted to floats (for recording/validation)."""
        fmt = self.constants.fmt
        out = {}
        for name, raw in self.state.items():
            if name == "cnt":
                out[name] = raw.astype(np.float64)
            else:
                out[name] = raw.astype(np.float64) / fmt.scale
        return out

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copies of every raw fixed-point state word (checkpointing)."""
        return {name: raw.copy() for name, raw in self.state.items()}

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Overwrite the raw state from a :meth:`snapshot`."""
        if set(snapshot) != set(self.state):
            raise SimulationError(
                f"snapshot variables {sorted(snapshot)} do not match "
                f"neuron state {sorted(self.state)}"
            )
        arrays = {
            name: np.asarray(raw, dtype=np.int64) for name, raw in snapshot.items()
        }
        for name, raw in arrays.items():
            if raw.shape != self.state[name].shape:
                raise SimulationError(
                    f"snapshot {name!r} shape {raw.shape} does not match "
                    f"{self.state[name].shape}"
                )
        for name, raw in arrays.items():
            np.copyto(self.state[name], raw)
