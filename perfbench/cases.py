"""The benchmark's four workloads and their output check.

A workload is one Table I network at a stated scale on one backend,
simulated for a fixed number of 0.1 ms steps per episode. A benchmark
seed stands for ``Case.networks`` networks, each built from one of
:func:`network_seeds` (``repro run`` builds the same way: the builder
gets ``seed``, the simulator's stimulus RNG ``seed + 1``), and the
program only ever sees the built network.

An episode's *fingerprint* is what the output check compares: the
spike digest and total synaptic events always, the simulated cycle
count and per-format clip counts on the fixed-point backend, and a
SHA-256 of the plastic weights when STDP is attached (spike trains
with and without STDP agree for the first ~220 full-scale steps, so a
spike check alone would miss a broken weight update).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.hardware.backend import FoldedFlexonBackend, HardwareRuntime
from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.network.simulator import SimulationResult, Simulator
from repro.plasticity.stdp import PairSTDP
from repro.workloads import build_workload, get_spec
from repro.workloads.builders import DT

#: The seed the pinned outputs in ``pins.json`` belong to.
DEFAULT_SEED = 1
#: Never used while tuning a change: later claims re-check here.
HELDOUT_SEED = 2

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


@dataclass(frozen=True)
class Case:
    """One benchmark workload."""

    name: str
    #: Table I network name, as ``repro.workloads`` spells it.
    network: str
    scale: float
    #: ``"folded"`` (repro run's default) or ``"reference"``.
    backend: str
    #: Steps per episode; every episode of a network simulates the same
    #: steps, so their outputs must agree exactly.
    steps: int
    #: Attach lazy pair STDP to the exc->exc projection.
    stdp: bool = False
    #: Networks one seed stands for. How fast a full-scale network runs
    #: depends on its seed (on ``brunel-full`` the synaptic events of
    #: 1200 steps vary by about 5% between seeds), so a run takes turns
    #: over three and reports them together. The folded workload's speed
    #: does not depend on its seed, and its steps all do the same work,
    #: so its p99 is set by host noise: more repeats of one network
    #: steady it more than more networks.
    networks: int = 3


# Why each workload (README.md has the measured shares): the first is
# repro run's default backend and scale, where the fixed-point kernel
# takes most of the step; brunel-full is dominated by spike delivery,
# in bursts that set the step tail; in microcircuit-full the Poisson
# stimulus is the largest layer and eight populations share one float
# kernel; brunel-stdp rewrites every step the weights the gather reads.
CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case("microcircuit-folded", "Potjans-Diesmann", 0.05, "folded", 1200,
             networks=1),
        Case("brunel-full", "Brunel", 1.0, "reference", 1200),
        Case("microcircuit-full", "Potjans-Diesmann", 1.0, "reference", 1200),
        Case("brunel-stdp", "Brunel", 1.0, "reference", 1200, stdp=True),
    )
}


def network_seeds(case: Case, seed: int) -> List[int]:
    """The seeds of the networks a benchmark seed stands for; the
    first is the seed itself."""
    return [seed + 1000 * k for k in range(case.networks)]


def build(case: Case, seed: int) -> Tuple[Network, Optional[PairSTDP]]:
    """The workload's network, built from ``seed`` alone."""
    network = build_workload(case.network, scale=case.scale, seed=seed)
    rule = None
    if case.stdp:
        rule = PairSTDP()
        network.add_plasticity(plastic_projection(network), rule)
    return network, rule


def plastic_projection(network: Network):
    """The recurrent excitatory projection STDP is attached to."""
    for projection in network.projections:
        if projection.pre.name == "exc" and projection.post.name == "exc":
            return projection
    raise ValueError(f"network {network.name!r} has no exc->exc projection")


def make_simulator(case: Case, network: Network, seed: int) -> Simulator:
    """A simulator on the case's backend, seeded as ``repro run`` does."""
    if case.backend == "folded":
        backend = FoldedFlexonBackend(DT)
    else:
        backend = ReferenceBackend(get_spec(case.network).solver)
    return Simulator(network, backend, dt=DT, seed=seed + 1)


def hardware_runtimes(simulator: Simulator) -> List[HardwareRuntime]:
    return [
        runtime
        for runtime in simulator.backend.runtimes.values()
        if isinstance(runtime, HardwareRuntime)
    ]


def fingerprint(
    simulator: Simulator, result: SimulationResult, rule: Optional[PairSTDP]
) -> dict:
    """What the output check compares for one finished episode."""
    out = {
        "spike_digest": result.spikes.digest(),
        "synaptic_events": int(result.synaptic_events),
    }
    runtimes = hardware_runtimes(simulator)
    if runtimes:
        out["total_cycles"] = sum(r.neuron.total_cycles for r in runtimes)
        clipped: Dict[str, int] = {}
        for runtime in runtimes:
            for fmt, count in runtime.saturation_stats.clipped.items():
                key = fmt.describe()
                clipped[key] = clipped.get(key, 0) + int(count)
        out["clipped"] = dict(sorted(clipped.items()))
    if rule is not None:
        out["weights_sha256"] = hashlib.sha256(
            rule.projection.weights.tobytes()
        ).hexdigest()
    return out


def load_pins(path: Path = PINS_PATH) -> Dict[str, List[dict]]:
    """Pinned fingerprints of every case at :data:`DEFAULT_SEED`, one
    per network of :func:`network_seeds`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class OutputCheck:
    """Counts episodes whose fingerprint differs from the expected one.

    ``expected`` holds the pinned fingerprint of each network (in
    :func:`network_seeds` order) when the seed has them; otherwise a
    network's first recorded episode becomes its reference, so the
    episodes of one network must agree with each other.
    """

    def __init__(self, expected: Optional[List[dict]] = None):
        self.expected: Dict[int, dict] = dict(enumerate(expected or []))
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, label: str, observed: dict, network: int = 0) -> bool:
        self.attempted += 1
        expected = self.expected.setdefault(network, observed)
        if observed == expected:
            return True
        wrong = sorted(
            key
            for key in set(observed) | set(expected)
            if observed.get(key) != expected.get(key)
        )
        self.failures.append(f"{label}: output differs in {', '.join(wrong)}")
        return False

    def record_error(self, label: str, error: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: raised {error!r}")

    @property
    def failed(self) -> int:
        return len(self.failures)
