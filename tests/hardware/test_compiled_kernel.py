"""The compiled folded-Flexon kernel (``compile_microprogram``).

Folded Flexon no longer interprets its microprogram signal by signal;
it runs a straight-line kernel with fused saturation accounting. These
tests hold the kernel to the schedule it replaced:

* against the op-by-op interpreter (kept here as the oracle only), on
  every Table III program and on hand-written ones, from random and
  out-of-range register states: same registers, counter, spikes,
  ``checked`` total and per-format clips, step after step;
* regression pins for whole workloads whose datapath or membrane
  clips (the kernel's overflow paths), taken from the interpreter;
* register storage is updated in place, so views taken before a
  ``restore`` or a fault injection stay live.
"""

import hashlib

import numpy as np
import pytest

from repro.features import MODEL_FEATURES, Feature
from repro.fixedpoint import (
    FLEXON_FORMAT,
    MEMBRANE_FORMAT,
    SaturationStats,
    fx_add,
    fx_exp,
    fx_from_float,
    fx_mul,
    fx_saturate,
    observe_saturation,
)
from repro.hardware import datapaths as dp
from repro.hardware.backend import FoldedFlexonBackend, HardwareRuntime
from repro.hardware.compiler import FlexonCompiler, with_background_current
from repro.hardware.control import (
    AOperand,
    BOperand,
    ControlSignal,
    STATE_G,
    STATE_R,
    STATE_V,
    STATE_W,
)
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.microcode import Microprogram, compile_microprogram
from repro.models.registry import create_model
from repro.network.simulator import Simulator
from repro.reliability import FaultInjector
from repro.workloads import build_workload
from repro.workloads.builders import DT

# -- the oracle: op-by-op execution of one time step ------------------------


def interpret_step(program, regs, cnt, raw_inputs, membrane_format):
    """One step of the schedule, signal by signal, each op saturating.

    Mutates ``regs`` and ``cnt`` like the hardware; returns the fired
    mask. This is the interpreter folded Flexon ran before it was
    compiled, kept only as a reference for the kernel.
    """
    c = program.constants
    fmt = c.fmt
    gated = dp.ArPath.gate(raw_inputs, cnt) if cnt is not None else raw_inputs
    n = regs.shape[1]
    acc = np.zeros(n, dtype=np.int64)
    tmp = np.zeros(n, dtype=np.int64)
    for signal in program.signals:
        if signal.a == AOperand.CONSTANT:
            mul_operand = program.mul_constants[signal.ca]
        else:
            mul_operand = tmp
        product = fx_mul(mul_operand, regs[signal.s], fmt)
        if signal.b == BOperand.ZERO:
            out = product
        elif signal.b == BOperand.CONSTANT:
            out = fx_add(product, program.add_constants[signal.cb], fmt)
        elif signal.b == BOperand.INPUT:
            out = fx_add(product, gated[signal.syn_type], fmt)
        elif signal.b == BOperand.TMP:
            out = fx_add(product, tmp, fmt)
        else:
            leak = np.minimum(c.v_leak, np.maximum(regs[signal.s], 0))
            out = fx_add(product, -leak, fmt)
        if signal.exp:
            out = fx_exp(out, fmt)
        tmp = out
        if signal.s_wr:
            regs[signal.s] = out
        if signal.v_acc:
            acc = fx_add(acc, out, fmt)
    features = program.features
    fired = acc > c.threshold
    v_next = np.where(fired, np.int64(c.v_reset), acc)
    if membrane_format is not None:
        v_next = fx_saturate(v_next, membrane_format)
    regs[STATE_V] = v_next
    if Feature.RR in features:
        regs[STATE_W] = regs[STATE_W] + np.where(fired, c.b, 0)
        regs[STATE_R] = regs[STATE_R] + np.where(fired, c.q_r, 0)
    elif features.has_adaptation_state:
        regs[STATE_W] = regs[STATE_W] - np.where(fired, c.b, 0)
    if cnt is not None:
        ticked = dp.ArPath.tick(cnt)
        ticked[fired] = c.cnt_max
        cnt[:] = ticked
    return fired


def _stats(stats):
    return stats.checked, list(stats.clipped.items())


def _random_registers(rng, regs, cnt, wild):
    """Fill the register file: small values, rail values and, when
    ``wild``, words past the datapath range (as a bit flip leaves)."""
    n = regs.shape[1]
    for row in range(regs.shape[0]):
        regs[row] = rng.integers(-(1 << 23), 1 << 23, n)
    if wild:
        picks = rng.random(regs.shape)
        regs[picks < 0.1] = FLEXON_FORMAT.raw_max
        regs[(picks >= 0.1) & (picks < 0.2)] = FLEXON_FORMAT.raw_min
        regs[(picks >= 0.2) & (picks < 0.3)] ^= 1 << 31
        regs[(picks >= 0.3) & (picks < 0.35)] ^= 1 << 30
    if cnt is not None:
        cnt[:] = rng.integers(0, 4, n)


def _assert_kernel_matches_oracle(program, membrane_format, seed, wild, n=17):
    rng = np.random.default_rng(seed)
    neuron = FoldedFlexonNeuron(program, n, membrane_format)
    _random_registers(rng, neuron.regs, neuron.cnt, wild)
    regs = neuron.regs.copy()
    cnt = None if neuron.cnt is None else neuron.cnt.copy()
    n_types = program.constants.n_synapse_types
    for step in range(12):
        if wild and step % 3 == 0:
            raw = rng.integers(-(1 << 32), 1 << 32, (n_types, n))
        else:
            raw = rng.integers(-(1 << 20), 1 << 22, (n_types, n))
        raw = raw * (rng.random((n_types, n)) < 0.5)
        expected_stats, actual_stats = SaturationStats(), SaturationStats()
        with observe_saturation(expected_stats):
            expected = interpret_step(
                program, regs, cnt, raw.copy(), membrane_format
            )
        with observe_saturation(actual_stats):
            actual = neuron.step(raw.copy())
        assert np.array_equal(actual, expected), f"spikes, step {step}"
        assert np.array_equal(neuron.regs, regs), f"registers, step {step}"
        if cnt is not None:
            assert np.array_equal(neuron.cnt, cnt), f"counter, step {step}"
        assert _stats(actual_stats) == _stats(expected_stats), f"step {step}"


def _compiled(name):
    return FlexonCompiler().compile(create_model(name), DT)


@pytest.mark.parametrize("wild", [False, True], ids=["in-range", "wild"])
@pytest.mark.parametrize("name", list(MODEL_FEATURES))
def test_kernel_matches_op_by_op_schedule(name, wild):
    program = _compiled(name).program
    for seed in range(3):
        _assert_kernel_matches_oracle(program, MEMBRANE_FORMAT, seed, wild)


@pytest.mark.parametrize("name", ["LLIF", "AdEx", "IF_cond_exp_gsfa_grr"])
def test_kernel_matches_without_membrane_truncation(name):
    program = _compiled(name).program
    _assert_kernel_matches_oracle(program, None, seed=7, wild=True)


def test_kernel_matches_with_background_current():
    program = with_background_current(_compiled("QIF"), 3.0).program
    _assert_kernel_matches_oracle(program, MEMBRANE_FORMAT, seed=1, wild=True)


def test_kernel_routes_reads_after_writes_and_the_initial_tmp():
    # tmp is read before any signal latched it, a register is written
    # twice and read in between, and v is written in stage 1.
    base = _compiled("DLIF").program
    one = FLEXON_FORMAT.scale
    signals = (
        ControlSignal(a=AOperand.TMP, b=BOperand.TMP, s=STATE_G[0], v_acc=True),
        ControlSignal(ca=0, b=BOperand.INPUT, s=STATE_G[0], s_wr=True),
        ControlSignal(ca=1, b=BOperand.TMP, s=STATE_G[0], s_wr=True, v_acc=True),
        ControlSignal(a=AOperand.TMP, b=BOperand.CONSTANT, cb=0, s=STATE_G[0]),
        ControlSignal(ca=1, b=BOperand.LEAK, s=STATE_V, s_wr=True, v_acc=True),
        ControlSignal(ca=0, b=BOperand.ZERO, s=STATE_V, v_acc=True),
    )
    program = Microprogram(
        features=base.features,
        constants=base.constants,
        signals=signals,
        mul_constants=(one // 2, 3 * one),
        add_constants=(-one,),
    )
    for seed in range(4):
        _assert_kernel_matches_oracle(program, MEMBRANE_FORMAT, seed, wild=True)


def test_kernel_with_no_neurons_steps_and_counts_nothing():
    kernel = compile_microprogram(_compiled("AdEx").program, 0)
    stats = SaturationStats()
    with observe_saturation(stats):
        fired = kernel.run(np.zeros((2, 0), dtype=np.int64))
    assert fired.shape == (0,)
    assert stats.checked == 0 and stats.clipped == {}


def test_fired_masks_are_fresh_arrays():
    neuron = _compiled("LIF").instantiate_folded(4)
    raw = fx_from_float(np.full((2, 4), 5.0), FLEXON_FORMAT)
    first = neuron.step(raw)
    kept = first.copy()
    neuron.step(raw * 0)
    assert np.array_equal(first, kept)


# -- overflow-path regression pins --------------------------------------------

#: Folded runs at scale 0.05, 400 steps, network seed 3, simulator seed
#: 4, whose datapath (Q9.22) or membrane store (Q1.22) clips. Recorded
#: with the op-by-op interpreter the kernel replaced.
OVERFLOW_PINS = {
    "Brunel": (
        "9c2972c5c859c2e8055278cc37e2d0e847fa744cc2b03fdcb719d1caf052fa88",
        1700000,
        {"Q1.22": 348},
        800000,
    ),
    "Izhikevich": (
        "d86fa04c511990e7938506b72fa71eaf5076ddc442e738dfdc369b2a67807c6c",
        4600000,
        {"Q1.22": 75284},
        2200000,
    ),
    "Destexhe-UpDown": (
        "254f15c3d0d91f83b5244172e5050a4b72f68f424124beb54fa671440137b559",
        1700000,
        {"Q1.22": 15129, "Q9.22": 40},
        750000,
    ),
    "Destexhe-LTS": (
        "7a260badb099dd2d64baca03d559b4469c393adf1832cfe0266e575133f1cd1b",
        340000,
        {"Q9.22": 15},
        150000,
    ),
    "Nowotny et al.": (
        "f95654db9524482b07ecef0bc8dc5b26f57c320ee6aaa6e8d24dfe6d7c181af4",
        561200,
        {"Q1.22": 258},
        268400,
    ),
}


@pytest.mark.parametrize("workload", sorted(OVERFLOW_PINS))
def test_overflow_workloads_match_their_pins(workload):
    network = build_workload(workload, scale=0.05, seed=3)
    simulator = Simulator(network, FoldedFlexonBackend(DT), dt=DT, seed=4)
    result = simulator.run(400)
    runtimes = [
        runtime
        for runtime in simulator.backend.runtimes.values()
        if isinstance(runtime, HardwareRuntime)
    ]
    clipped = {}
    for runtime in runtimes:
        for fmt, count in runtime.saturation_stats.clipped.items():
            clipped[fmt.describe()] = clipped.get(fmt.describe(), 0) + count
    observed = (
        result.spikes.digest(),
        sum(runtime.saturation_stats.checked for runtime in runtimes),
        clipped,
        sum(runtime.neuron.total_cycles for runtime in runtimes),
    )
    assert observed == OVERFLOW_PINS[workload]


# -- in-place register storage ------------------------------------------------


def _stepped(neuron, steps=30):
    rng = np.random.default_rng(0)
    for _ in range(steps):
        raw = fx_from_float((rng.random((2, neuron.n)) < 0.3) * 2.0, FLEXON_FORMAT)
        neuron.step(raw)
    return neuron


def test_folded_register_views_see_restored_values():
    compiled = _compiled("AdEx")
    source = _stepped(compiled.instantiate_folded(6))
    snapshot = source.snapshot()
    target = compiled.instantiate_folded(6)
    v_view, w_view, cnt_view = (
        target.regs[STATE_V],
        target.regs[STATE_W],
        target.cnt,
    )
    target.restore(snapshot)
    assert np.array_equal(v_view, snapshot["regs"][STATE_V])
    assert np.array_equal(w_view, snapshot["regs"][STATE_W])
    assert np.array_equal(cnt_view, snapshot["cnt"])
    raw = np.zeros((2, 6), dtype=np.int64)
    assert np.array_equal(target.step(raw), source.step(raw))
    assert np.array_equal(target.regs, source.regs)


def test_flexon_state_views_see_restored_values():
    compiled = _compiled("AdEx")
    source = _stepped(compiled.instantiate_flexon(6))
    snapshot = source.snapshot()
    target = compiled.instantiate_flexon(6)
    views = dict(target.state)
    target.restore(snapshot)
    for name, view in views.items():
        assert np.array_equal(view, snapshot[name]), name


def test_restore_rejects_a_mismatched_counter_without_writing():
    compiled = _compiled("AdEx")
    neuron = _stepped(compiled.instantiate_folded(6))
    before = neuron.regs.copy()
    snapshot = neuron.snapshot()
    snapshot["regs"] = np.zeros_like(before)
    snapshot["cnt"] = np.zeros(5, dtype=np.int64)
    with pytest.raises(Exception, match="counter shape"):
        neuron.restore(snapshot)
    assert np.array_equal(neuron.regs, before)


#: One step after sixteen seeded bit flips (two of them push words past
#: the datapath and membrane ranges), as the op-by-op interpreter left it.
FAULT_PIN = {
    "flips": [
        ("g1", 32, 0), ("v", 18, 16), ("g1", 11, 31), ("cnt", 11, 12),
        ("g1", 16, 4), ("cnt", 0, 1), ("cnt", 39, 6), ("g1", 30, 7),
        ("g0", 17, 8), ("v", 7, 28), ("v", 33, 3), ("g0", 25, 15),
        ("g1", 27, 21), ("cnt", 38, 17), ("v", 10, 11), ("v", 7, 2),
    ],
    "state_sha256": (
        "3148bcba58cd9ba4911ffc847df51f2f78d487940ab14bd12b6257c42f39d45f"
    ),
    "spikes": 1,
    "checked": 27880,
    "clipped": [("Q9.22", 1), ("Q1.22", 1)],
}


def test_fault_injected_bit_flips_change_the_next_step_as_pinned(small_network):
    simulator = Simulator(small_network, FoldedFlexonBackend(DT), dt=DT, seed=3)
    simulator.run(40)
    runtime = simulator.backend.runtime("exc")
    neuron = runtime.neuron
    flips = FaultInjector(simulator, seed=5).flip_state_bits("exc", n_flips=16)
    result = simulator.run(1)
    state = hashlib.sha256(neuron.regs.tobytes() + neuron.cnt.tobytes())
    observed = {
        "flips": [(flip.variable, flip.neuron, flip.bit) for flip in flips],
        "state_sha256": state.hexdigest(),
        "spikes": int(result.total_spikes()),
        "checked": runtime.saturation_stats.checked,
        "clipped": [
            (fmt.describe(), count)
            for fmt, count in runtime.saturation_stats.clipped.items()
        ],
    }
    assert observed == FAULT_PIN
