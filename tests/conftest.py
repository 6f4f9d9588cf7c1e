"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model
from repro.network.network import Network
from repro.network.stimulus import PoissonStimulus

#: The paper's simulation time step (0.1 ms).
DT = 1e-4


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point every ``--ledger`` default at this test's own directory.

    CLI tests call ``main()`` without ``--ledger``; left alone they
    would append to ``ledger.jsonl`` in the working directory.
    """
    monkeypatch.setattr(
        "repro.provenance.ledger.DEFAULT_LEDGER_PATH",
        str(tmp_path / "ledger.jsonl"),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def compiler():
    return FlexonCompiler()


@pytest.fixture
def lif_model():
    return create_model("LIF")


@pytest.fixture
def small_network(rng):
    """A tiny two-population DLIF network with stimulus."""
    network = Network("test-net")
    exc = network.add_population("exc", 40, "DLIF")
    network.add_population("inh", 10, "DLIF")
    network.connect(
        "exc", "exc", probability=0.15, weight=0.05, syn_type=0, rng=rng,
        delay_steps=1, delay_jitter=4,
    )
    network.connect(
        "exc", "inh", probability=0.15, weight=0.05, syn_type=0, rng=rng
    )
    network.connect(
        "inh", "exc", probability=0.15, weight=0.2, syn_type=1, rng=rng
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=500.0, weight=0.08, dt=DT, n_sources=10)
    )
    return network


def drive_single(model, current, steps, dt=DT, syn_type=0, n=1):
    """Drive one (or n) neurons with a constant per-step input weight.

    Returns (fired_count_per_neuron, final_state, spike_steps_of_n0).
    """
    state = model.initial_state(n)
    n_types = model.parameters.n_synapse_types
    inputs = np.zeros((n_types, n))
    inputs[syn_type, :] = current
    fired_counts = np.zeros(n, dtype=int)
    spike_steps = []
    for step in range(steps):
        fired = model.step(state, inputs.copy(), dt)
        fired_counts += fired
        if fired[0]:
            spike_steps.append(step)
    return fired_counts, state, spike_steps
