"""Microprogram assembly for spatially folded Flexon (paper Table V).

The assembler turns a feature combination plus prepared constants into
the sequence of control signals that folded Flexon executes each time
step. The op ordering is canonical and shared with the baseline
Flexon's data-path evaluation order, which is what makes the two
implementations bit-identical:

1. membrane decay (EXD or LID), with CUB inputs riding the ADD port;
2. per synapse type: conductance update (COBE or COBA), then the REV
   reversal coupling when enabled;
3. spike-triggered current (RR, or SBT, or ADT);
4. spike initiation (QDI or EXI) — last, because the Table V EXI
   sequence clobbers the ``v`` register with the exp-unit output
   (harmless only once nothing later reads the true membrane value).

Cycle accounting follows Section V-B: a model needing ``k`` control
signals occupies the shared arithmetic units for ``k`` cycles per
neuron, plus one write-back cycle in the second pipeline stage; e.g.
LIF (CUB + EXD) is a single signal and QDI adds a structural hazard on
the single multiplier, hence its extra cycle.

:func:`compile_microprogram` lowers an assembled program, once, into a
:class:`MicroKernel`: the straight-line numpy operations one time step
of ``n`` folded neurons performs, with every operand resolved to a
preallocated array (see :mod:`repro.hardware.folded` for its
saturation invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MicrocodeError
from repro.features import Feature, FeatureSet
from repro.fixedpoint import (
    MEMBRANE_FORMAT,
    FixedFormat,
    active_saturation_sink,
    fast_exp,
    fx_round,
)
from repro.hardware.constants import NeuronConstants
from repro.hardware.control import (
    AOperand,
    BOperand,
    ControlSignal,
    N_STATE_REGISTERS,
    STATE_G,
    STATE_R,
    STATE_V,
    STATE_W,
    STATE_Y,
)

#: Hardware limits from Table IV.
MAX_MUL_CONSTANTS = 16
MAX_ADD_CONSTANTS = 8


@dataclass
class Microprogram:
    """An assembled per-model program plus its constant buffers."""

    features: FeatureSet
    constants: NeuronConstants
    signals: Tuple[ControlSignal, ...]
    mul_constants: Tuple[int, ...]  #: raw values indexed by ``ca``
    add_constants: Tuple[int, ...]  #: raw values indexed by ``cb``

    @property
    def n_signals(self) -> int:
        """Control signals per neuron per time step."""
        return len(self.signals)

    @property
    def cycles_per_neuron(self) -> int:
        """Pipeline occupancy per neuron: signals + 1 write-back cycle."""
        return self.n_signals + 1

    def listing(self) -> str:
        """Human-readable Table V-style listing."""
        lines = [f"; {self.features!r}: {self.n_signals} signals"]
        lines.extend(
            f"  {i}: {signal.describe()}"
            for i, signal in enumerate(self.signals)
        )
        return "\n".join(lines)


class _ConstantPool:
    """Deduplicating allocator for a constant buffer."""

    def __init__(self, limit: int, kind: str):
        self.limit = limit
        self.kind = kind
        self.values: List[int] = []
        self._index: Dict[int, int] = {}

    def alloc(self, raw: int) -> int:
        if raw in self._index:
            return self._index[raw]
        if len(self.values) >= self.limit:
            raise MicrocodeError(
                f"{self.kind} constant buffer exceeded ({self.limit} entries)"
            )
        index = len(self.values)
        self.values.append(raw)
        self._index[raw] = index
        return index


def assemble(features: FeatureSet, constants: NeuronConstants) -> Microprogram:
    """Assemble the Table V microprogram for a feature combination."""
    c = constants
    muls = _ConstantPool(MAX_MUL_CONSTANTS, "MUL")
    adds = _ConstantPool(MAX_ADD_CONSTANTS, "ADD")
    signals: List[ControlSignal] = []
    n_types = c.n_synapse_types
    zero = 0
    has_cub = features.accumulation_kernel is Feature.CUB

    # -- 1. membrane decay (+ CUB input rides the ADD port) ---------------
    if Feature.EXD in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_m_c),
                b=BOperand.INPUT if has_cub else BOperand.ZERO,
                syn_type=0,
                s=STATE_V,
                v_acc=True,
                note="v' += eps_m' * v" + (" + I" if has_cub else ""),
            )
        )
    else:  # LID
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.one),
                b=BOperand.INPUT if has_cub else BOperand.ZERO,
                syn_type=0,
                s=STATE_V,
                v_acc=True,
                note="v' += v" + (" + I" if has_cub else ""),
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(zero),
                b=BOperand.LEAK,
                s=STATE_V,
                v_acc=True,
                note="v' += -min(V_leak, max(v, 0))",
            )
        )
    if has_cub:
        for i in range(1, n_types):
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(zero),
                    b=BOperand.INPUT,
                    syn_type=i,
                    s=STATE_V,
                    v_acc=True,
                    note=f"v' += I[{i}]",
                )
            )

    # -- 2. conductance kernels and reversal coupling ----------------------
    use_rev = Feature.REV in features
    for i in range(n_types):
        if Feature.COBA in features:
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.eps_g_c[i]),
                    b=BOperand.INPUT,
                    syn_type=i,
                    s=STATE_Y[i],
                    s_wr=True,
                    note=f"y{i} = eps_g' * y{i} + I[{i}]",
                )
            )
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.e_eps_g[i]),
                    b=BOperand.ZERO,
                    s=STATE_Y[i],
                    note=f"tmp = (e*eps_g) * y{i}",
                )
            )
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.eps_g_c[i]),
                    b=BOperand.TMP,
                    s=STATE_G[i],
                    s_wr=True,
                    v_acc=not use_rev,
                    note=f"g{i} = eps_g' * g{i} + tmp"
                    + ("" if use_rev else "; v' += g"),
                )
            )
        elif Feature.COBE in features:
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.eps_g_c[i]),
                    b=BOperand.INPUT,
                    syn_type=i,
                    s=STATE_G[i],
                    s_wr=True,
                    v_acc=not use_rev,
                    note=f"g{i} = eps_g' * g{i} + I[{i}]"
                    + ("" if use_rev else "; v' += g"),
                )
            )
        if use_rev and features.uses_conductance:
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.neg_one),
                    b=BOperand.CONSTANT,
                    cb=adds.alloc(c.v_g[i]),
                    s=STATE_V,
                    note=f"tmp = -v + v_g[{i}]",
                )
            )
            signals.append(
                ControlSignal(
                    a=AOperand.TMP,
                    b=BOperand.ZERO,
                    s=STATE_G[i],
                    v_acc=True,
                    note=f"v' += tmp * g{i}",
                )
            )

    # -- 3. spike-triggered current -----------------------------------------
    if Feature.RR in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_w_c),
                s=STATE_W,
                s_wr=True,
                note="w = eps_w' * w",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.neg_one),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.v_ar),
                s=STATE_V,
                note="tmp = -v + v_ar",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.TMP, s=STATE_W, v_acc=True, note="v' += tmp * w"
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_r_c),
                s=STATE_R,
                s_wr=True,
                note="r = eps_r' * r",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.neg_one),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.v_rr),
                s=STATE_V,
                note="tmp = -v + v_rr",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.TMP, s=STATE_R, v_acc=True, note="v' += tmp * r"
            )
        )
    elif Feature.SBT in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_m_a),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.neg_eps_m_a_v_w),
                s=STATE_V,
                note="tmp = (eps_m a) * v - eps_m a v_w",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_w_c),
                b=BOperand.TMP,
                s=STATE_W,
                s_wr=True,
                v_acc=True,
                note="w = eps_w' * w + tmp; v' += w",
            )
        )
    elif Feature.ADT in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_w_c),
                s=STATE_W,
                s_wr=True,
                v_acc=True,
                note="w = eps_w' * w; v' += w",
            )
        )

    # -- 4. spike initiation --------------------------------------------------
    if Feature.QDI in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_m),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.neg_eps_m_v_c),
                s=STATE_V,
                note="tmp = eps_m * v - eps_m v_c",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.TMP, s=STATE_V, v_acc=True, note="v' += tmp * v"
            )
        )
    elif Feature.EXI in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.inv_delta_t),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.neg_theta_inv_delta_t),
                s=STATE_V,
                exp=True,
                s_wr=True,
                note="v = exp(v/delta_T - theta/delta_T)",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.delta_t_eps_m),
                s=STATE_V,
                v_acc=True,
                note="v' += (delta_T eps_m) * v",
            )
        )

    return Microprogram(
        features=features,
        constants=c,
        signals=tuple(signals),
        mul_constants=tuple(muls.values),
        add_constants=tuple(adds.values),
    )


#: One kernel operation: a numpy call, its positional arguments (the
#: last is the output), and the scratch row it leaves for the
#: saturation check (``None`` for helper ops that saturate nothing).
_Op = Tuple[Callable, tuple, Optional[np.ndarray]]

_min = np.minimum.reduce
_max = np.maximum.reduce


def _const(value: int) -> np.ndarray:
    # A 0-d int64 array: the cheapest scalar operand for a ufunc call.
    return np.array(value, dtype=np.int64)


def _leak(state: np.ndarray, v_leak: np.ndarray, out: np.ndarray) -> None:
    """The LEAK operand: ``-min(V_leak, max(state, 0))``."""
    np.maximum(state, 0, out=out)
    np.minimum(out, v_leak, out=out)
    np.negative(out, out=out)


def _exp_unit(src: np.ndarray, fmt: FixedFormat, out: np.ndarray) -> None:
    """The exp unit before its saturation: ``fx_exp`` minus the clip.

    The one kernel op that allocates (EXI programs only): it calls
    ``fast_exp`` and ``fx_round`` so the approximation and its
    rounding keep a single definition.
    """
    np.copyto(out, fx_round(fast_exp(src / fmt.scale), fmt))


def _clip_count(values: np.ndarray, lo: int, hi: int) -> int:
    """Clip ``values`` to ``[lo, hi]`` in place; return how many moved."""
    if not values.size or (_min(values) >= lo and _max(values) <= hi):
        return 0
    clipped = int(np.count_nonzero(values > hi)) + int(
        np.count_nonzero(values < lo)
    )
    np.clip(values, lo, hi, out=values)
    return clipped


class MicroKernel:
    """A microprogram compiled for ``n`` neurons (see
    :func:`compile_microprogram`).

    Owns the architectural state: ``regs`` (the 16-entry register
    file, one row per register) and ``cnt`` (the AR counter, or
    ``None``). Both are updated in place, so views of them stay live.
    """

    def __init__(
        self,
        program: Microprogram,
        n: int,
        membrane_format: Optional[FixedFormat],
    ):
        c = program.constants
        fmt = c.fmt
        self.fmt = fmt
        self.membrane_format = membrane_format
        self.regs = np.zeros((N_STATE_REGISTERS, n), dtype=np.int64)
        self.cnt = (
            np.zeros(n, dtype=np.int64) if Feature.AR in program.features else None
        )
        self.inputs = np.zeros((c.n_synapse_types, n), dtype=np.int64)
        self._ready = np.zeros(n, dtype=bool)
        # Every signal fills at most four rows: product, sum, exp, v'.
        scratch = np.zeros((4 * len(program.signals), n), dtype=np.int64)
        leak = np.zeros(n, dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        shift = _const(fmt.frac_bits)
        ops: List[_Op] = []
        used = 0
        checks = 0  # saturating ops per neuron per step

        def row() -> np.ndarray:
            nonlocal used
            used += 1
            return scratch[used - 1]

        # Where each register's current value lives within a step: its
        # own row until a signal writes it, that signal's output after.
        source: Dict[int, np.ndarray] = {}
        tmp = zeros  # the tmp latch starts each step at 0
        acc: Optional[np.ndarray] = None
        for signal in program.signals:
            state = source.get(signal.s, self.regs[signal.s])
            if signal.a == AOperand.CONSTANT:
                mul = _const(program.mul_constants[signal.ca])
            else:
                mul = tmp
            out = row()
            ops.append((np.multiply, (mul, state, out), None))
            ops.append((np.right_shift, (out, shift, out), out))
            checks += 1
            if signal.b != BOperand.ZERO:
                if signal.b == BOperand.CONSTANT:
                    addend = _const(program.add_constants[signal.cb])
                elif signal.b == BOperand.INPUT:
                    addend = self.inputs[signal.syn_type]
                elif signal.b == BOperand.TMP:
                    addend = tmp
                else:  # LEAK: clamped -V_leak of the selected register
                    ops.append((_leak, (state, _const(c.v_leak), leak), None))
                    addend = leak
                total = row()
                ops.append((np.add, (out, addend, total), total))
                checks += 1
                out = total
            if signal.exp:
                exp_out = row()
                ops.append((_exp_unit, (out, fmt, exp_out), exp_out))
                checks += 1
                out = exp_out
            tmp = out
            if signal.s_wr:
                source[signal.s] = out
            if signal.v_acc:
                checks += 1
                if acc is None:
                    # v' starts at 0 and out is in range once checked,
                    # so the first accumulate cannot clip: count it only.
                    acc = out
                else:
                    total = row()
                    ops.append((np.add, (acc, out, total), total))
                    acc = total
        self._ops = tuple(ops)
        self._rows = scratch[:used].reshape(-1)
        self._checked = checks * n
        self._lo, self._hi = fmt.raw_min, fmt.raw_max
        # Stage 2 rewrites v, so a stage-1 write of v is never committed.
        self._commits = tuple(
            (self.regs[s], value) for s, value in source.items() if s != STATE_V
        )
        self._acc = zeros if acc is None else acc
        self._v = self.regs[STATE_V]
        self._threshold = _const(c.threshold)
        self._v_reset = _const(c.v_reset)
        features = program.features
        # Post-spike jumps; signs mirror FlexonNeuron (RR conductances
        # grow on fire, direct-coupled adaptation w shrinks).
        if Feature.RR in features:
            self._jumps = (
                (np.add, self.regs[STATE_W], _const(c.b)),
                (np.add, self.regs[STATE_R], _const(c.q_r)),
            )
        elif features.has_adaptation_state:
            self._jumps = ((np.subtract, self.regs[STATE_W], _const(c.b)),)
        else:
            self._jumps = ()
        self._zero, self._one = _const(0), _const(1)
        self._cnt_max = _const(c.cnt_max)
        if membrane_format is not None:
            self._v_lo, self._v_hi = membrane_format.raw_min, membrane_format.raw_max

    def run(self, raw_inputs: np.ndarray) -> np.ndarray:
        """One time step of every neuron; returns the fired mask."""
        inputs = self.inputs
        cnt = self.cnt
        if cnt is None:
            np.copyto(inputs, raw_inputs, casting="unsafe")
        else:  # AR gates the inputs of refractory neurons
            np.less_equal(cnt, self._zero, out=self._ready)
            np.multiply(raw_inputs, self._ready, out=inputs, casting="unsafe")

        # -- stage 1: the control signals, unclipped ---------------------
        for fn, args, _ in self._ops:
            fn(*args)
        rows = self._rows
        clipped = 0
        if rows.size and (_min(rows) < self._lo or _max(rows) > self._hi):
            clipped = self._replay()
        sink = active_saturation_sink()
        if sink is not None:
            sink.record(self.fmt, self._checked, clipped)
        for register, value in self._commits:
            np.copyto(register, value)

        # -- stage 2: fire, reset, write back -----------------------------
        acc = self._acc
        fired = np.greater(acc, self._threshold)
        v = self._v
        np.copyto(v, acc)
        np.copyto(v, self._v_reset, where=fired)
        membrane = self.membrane_format
        if membrane is not None:
            v_clipped = _clip_count(v, self._v_lo, self._v_hi)
            if sink is not None:
                sink.record(membrane, v.size, v_clipped)
        for fn, register, jump in self._jumps:
            fn(register, jump, out=register, where=fired)
        if cnt is not None:
            np.subtract(cnt, self._one, out=cnt)
            np.maximum(cnt, self._zero, out=cnt)
            np.copyto(cnt, self._cnt_max, where=fired)
        return fired

    def _replay(self) -> int:
        """Re-run stage 1 with an exact clip and count after each op.

        The registers and inputs are still untouched, so the rows end
        exactly as the saturating op-by-op schedule leaves them.
        """
        lo, hi = self._lo, self._hi
        clipped = 0
        for fn, args, checked_row in self._ops:
            fn(*args)
            if checked_row is not None:
                clipped += _clip_count(checked_row, lo, hi)
        return clipped


def compile_microprogram(
    program: Microprogram,
    n: int,
    membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
) -> MicroKernel:
    """Lower ``program`` to a straight-line kernel for ``n`` neurons.

    Operand routing is resolved here, once: each signal's MUL operand
    (constant or ``tmp``), ADD operand (zero, constant, input row,
    ``tmp`` or the clamped leak), EXP flag, ``s_wr`` and ``v_acc``
    become fixed numpy calls on preallocated int64 rows, and a read of
    a register an earlier signal wrote this step reads that signal's
    row, as the op-by-op schedule does.
    """
    return MicroKernel(program, n, membrane_format)
