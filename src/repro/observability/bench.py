"""Bench regression tracking: ``BENCH_history.jsonl`` and ``--compare``.

The repo ships point-in-time baselines (``BENCH_engine.json``,
``BENCH_profile.json``) but no *history* — so a change that quietly
costs 20 % steps/sec ships silently unless someone happens to diff two
exports by hand. ``repro bench`` closes that gap:

* every run appends one timestamped JSONL record (schema
  ``repro-bench/1``) to ``BENCH_history.jsonl`` — one line per bench,
  append-only, trivially diffable and greppable;
* ``repro bench --compare`` measures first, then compares each
  workload's steps/sec against the **best prior** record for the same
  (workload, backend) pair — history plus, for the reference backend,
  the committed ``BENCH_engine.json`` seed — and exits non-zero when
  the regression exceeds the threshold (default 15 %, the guard band
  between benign scheduler noise and a real slowdown);
* comparison against the *best* prior (not the latest) means a slow
  CI host cannot ratchet the baseline down over time.

The file is rewritten atomically on append (read + append + rename via
``repro.io``): a bench killed mid-write leaves the previous history
intact, never a torn line.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.io import atomic_write_text
from repro.observability.log import new_run_id

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_HISTORY_PATH",
    "DEFAULT_PLASTICITY_WORKLOADS",
    "DEFAULT_THRESHOLD",
    "append_history",
    "best_prior",
    "compare_record",
    "engine_seed_baselines",
    "load_history",
    "make_plasticity_record",
    "make_record",
    "measure_plasticity",
    "measure_workload",
]

BENCH_SCHEMA = "repro-bench/1"
DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"

#: Fractional steps/sec loss vs. the best prior record that fails
#: ``--compare``.
DEFAULT_THRESHOLD = 0.15


# -- measurement -----------------------------------------------------------


def measure_workload(
    name: str,
    backend: str = "reference",
    steps: int = 400,
    scale: float = 0.05,
    seed: int = 5,
    reps: int = 3,
) -> dict:
    """Steps/sec of one workload (median of ``reps``, warm-cache).

    Mirrors ``benchmarks/export.py``'s methodology — warm-up run, then
    the median of three timed reps — so history records compare
    apples-to-apples with the committed ``BENCH_engine.json`` seed.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    from repro.network.simulator import Simulator
    from repro.telemetry.profile import _make_backend
    from repro.workloads import build_workload, get_spec
    from repro.workloads.builders import DT

    spec = get_spec(name)
    network = build_workload(name, scale=scale, seed=seed)
    simulator = Simulator(
        network, _make_backend(backend, spec.solver, DT), dt=DT, seed=seed + 1
    )
    simulator.run(min(20, steps))  # warm-up: lazy plan binding, caches
    samples: List[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        result = simulator.run(steps, record_spikes=False)
        samples.append(steps / (time.perf_counter() - start))
    samples.sort()
    median = samples[len(samples) // 2]
    return {
        "steps_per_sec": median,
        "neurons": network.n_neurons,
        "neuron_updates_per_sec": median * network.n_neurons,
        "backend": result.backend_name,
        "reps": samples,
    }


def make_record(
    workloads: Sequence[str],
    backend: str = "reference",
    steps: int = 400,
    scale: float = 0.05,
    seed: int = 5,
    reps: int = 3,
    progress=None,
    run_id: str = "",
) -> dict:
    """Measure several workloads into one ``repro-bench/1`` record.

    ``run_id`` correlates the record with the provenance ledger and
    any other artifact of the same invocation (minted when empty).
    """
    entries: Dict[str, dict] = {}
    for name in workloads:
        entries[name] = measure_workload(
            name, backend=backend, steps=steps, scale=scale,
            seed=seed, reps=reps,
        )
        if progress is not None:
            progress(
                f"{name:20s} {entries[name]['steps_per_sec']:10.1f} steps/s "
                f"({entries[name]['neurons']:,} neurons)"
            )
    return {
        "schema": BENCH_SCHEMA,
        "run_id": run_id or new_run_id(),
        "ts": time.time(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "backend": backend,
        "steps": steps,
        "scale": scale,
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": entries,
    }


# -- plasticity overhead ---------------------------------------------------

#: Workloads the plasticity bench runs by default: the ISSUE's Brunel
#: and Vogels networks — one current-based, one conductance-based E/I
#: recipe, at usefully different firing rates.
DEFAULT_PLASTICITY_WORKLOADS = ("Brunel", "Vogels et al.")

#: Marks a history record as a plasticity-overhead measurement. Such
#: records keep ``workloads`` empty so throughput comparison
#: (:func:`best_prior` / :func:`compare_record`) never mixes a
#: plasticity-on run into the plain steps/sec baseline.
PLASTICITY_KIND = "plasticity"


def _plastic_projection(network):
    """The projection the bench makes plastic: exc->exc when the
    standard E/I recipe built the network, else the first projection
    that actually has synapses."""
    for projection in network.projections:
        if projection.pre.name == "exc" and projection.post.name == "exc":
            return projection
    for projection in network.projections:
        if projection.n_synapses:
            return projection
    raise ConfigurationError(
        f"network {network.name!r} has no synapses to make plastic"
    )


def measure_plasticity(
    name: str,
    steps: int = 300,
    scale: float = 0.05,
    seed: int = 5,
    reps: int = 1,
) -> dict:
    """Plasticity-on vs plasticity-off overhead of one workload.

    Runs the workload three times from identical initial conditions:
    with no plasticity, with lazy (deferred) :class:`PairSTDP` on the
    recurrent excitatory projection, and with the dense reference
    schedule (``deferred=False``). The lazy and dense modes share the
    same analytic event arithmetic, so their spike digests must match
    bit-for-bit — the entry records both digests and the comparison,
    which the CLI turns into an exit code.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    from repro.network.simulator import Simulator
    from repro.plasticity.stdp import PairSTDP
    from repro.supervision.job import spike_digest
    from repro.telemetry.profile import _make_backend
    from repro.workloads import build_workload, get_spec
    from repro.workloads.builders import DT

    spec = get_spec(name)

    def run_mode(mode: str):
        network = build_workload(name, scale=scale, seed=seed)
        rule = None
        if mode != "off":
            rule = PairSTDP(deferred=(mode == "lazy"))
            network.add_plasticity(_plastic_projection(network), rule)
        simulator = Simulator(
            network,
            _make_backend("reference", spec.solver, DT),
            dt=DT,
            seed=seed + 1,
        )
        start = time.perf_counter()
        result = simulator.run(steps)
        elapsed = time.perf_counter() - start
        return steps / elapsed, result, rule

    modes: Dict[str, dict] = {}
    for mode in ("off", "lazy", "eager"):
        samples: List[float] = []
        result = rule = None
        for _ in range(reps):
            steps_per_sec, result, rule = run_mode(mode)
            samples.append(steps_per_sec)
        samples.sort()
        entry = {
            "steps_per_sec": samples[len(samples) // 2],
            "reps": samples,
            "total_spikes": result.total_spikes(),
            "digest": spike_digest(result.spikes),
        }
        if rule is not None:
            entry.update(
                deferred_updates=rule.deferred_updates,
                applied_updates=rule.applied_updates,
                trace_refreshes=rule.trace_refreshes,
                n_plastic_synapses=rule.projection.n_synapses,
            )
        modes[mode] = entry

    off = modes["off"]["steps_per_sec"]
    return {
        "steps": steps,
        "spikes_per_step": modes["off"]["total_spikes"] / steps,
        "modes": modes,
        # (time_with - time_without) / time_without, from steps/sec
        "overhead_lazy": off / modes["lazy"]["steps_per_sec"] - 1.0,
        "overhead_eager": off / modes["eager"]["steps_per_sec"] - 1.0,
        "digest_match": modes["lazy"]["digest"] == modes["eager"]["digest"],
    }


def make_plasticity_record(
    workloads: Sequence[str] = DEFAULT_PLASTICITY_WORKLOADS,
    steps: int = 300,
    scale: float = 0.05,
    seed: int = 5,
    reps: int = 1,
    progress=None,
    run_id: str = "",
) -> dict:
    """Measure plasticity overhead into one ``repro-bench/1`` record.

    The record carries ``kind: "plasticity"`` and its measurements
    under ``plasticity`` (with ``workloads`` left empty), so it rides
    the same append-only history file without ever becoming a
    throughput baseline for ``--compare``.
    """
    entries: Dict[str, dict] = {}
    for name in workloads:
        entries[name] = measure_plasticity(
            name, steps=steps, scale=scale, seed=seed, reps=reps
        )
        if progress is not None:
            entry = entries[name]
            progress(
                f"{name:20s} lazy {100 * entry['overhead_lazy']:+6.1f}%  "
                f"dense {100 * entry['overhead_eager']:+6.1f}%  "
                f"({entry['spikes_per_step']:.1f} spikes/step, digests "
                f"{'match' if entry['digest_match'] else 'DIFFER'})"
            )
    return {
        "schema": BENCH_SCHEMA,
        "kind": PLASTICITY_KIND,
        "run_id": run_id or new_run_id(),
        "ts": time.time(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "backend": "reference",
        "steps": steps,
        "scale": scale,
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
        "plasticity": entries,
    }


# -- history ---------------------------------------------------------------


def load_history(path: str) -> List[dict]:
    """Read every ``repro-bench/1`` record from a JSONL history file.

    Missing file means empty history. Lines that do not parse or carry
    a different schema are skipped — the history is an append-only
    artifact shared across branches, and one bad line must not brick
    regression tracking.
    """
    if not os.path.exists(path):
        return []
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("schema") == BENCH_SCHEMA:
                records.append(record)
    return records


def append_history(path: str, record: dict) -> None:
    """Append one record to the JSONL history, atomically.

    Read-append-rename rather than ``open(..., "a")``: a kill mid-write
    can never leave a torn trailing line for :func:`load_history` to
    trip over.
    """
    existing = ""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            existing = handle.read()
        if existing and not existing.endswith("\n"):
            existing += "\n"
    atomic_write_text(
        path, existing + json.dumps(record, sort_keys=True) + "\n"
    )


# -- comparison ------------------------------------------------------------


def engine_seed_baselines(
    path: str = "BENCH_engine.json", scale: Optional[float] = None
) -> Dict[str, float]:
    """Per-workload reference-backend steps/sec from ``BENCH_engine.json``.

    The committed engine export is the genesis record: before any
    history exists, ``--compare`` still has a floor to hold. Only the
    ``reference-engine`` entry maps onto ``repro bench``'s default
    reference backend; other backends start tracking from their first
    history record. When ``scale`` is given and differs from the
    export's, the seed is withheld — throughput at different network
    scales is not comparable.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    if scale is not None and payload.get("scale") != scale:
        return {}
    baselines: Dict[str, float] = {}
    for name, entry in payload.get("workloads", {}).items():
        engine = entry.get("reference-engine")
        if isinstance(engine, (int, float)):
            baselines[name] = float(engine)
        elif isinstance(engine, dict) and "steps_per_sec" in engine:
            baselines[name] = float(engine["steps_per_sec"])
    return baselines


def best_prior(
    history: Sequence[dict],
    workload: str,
    backend: str,
    engine_seed: Optional[Dict[str, float]] = None,
    scale: Optional[float] = None,
) -> Optional[float]:
    """Best prior steps/sec for (workload, backend), or ``None``.

    Only records at the same ``scale`` compete (when given): a network
    ten times larger steps slower by construction, not by regression.
    """
    best: Optional[float] = None
    for record in history:
        if record.get("backend") != backend:
            continue
        if scale is not None and record.get("scale") != scale:
            continue
        entry = record.get("workloads", {}).get(workload)
        if not isinstance(entry, dict):
            continue
        value = entry.get("steps_per_sec")
        if isinstance(value, (int, float)):
            best = value if best is None else max(best, value)
    if backend == "reference" and engine_seed:
        seeded = engine_seed.get(workload)
        if seeded is not None:
            best = seeded if best is None else max(best, seeded)
    return best


def compare_record(
    record: dict,
    history: Sequence[dict],
    threshold: float = DEFAULT_THRESHOLD,
    engine_seed: Optional[Dict[str, float]] = None,
) -> Tuple[bool, List[str]]:
    """Compare one fresh record against the best prior per workload.

    Returns ``(ok, lines)``: ``ok`` is False when any workload
    regressed more than ``threshold``; ``lines`` describe every
    comparison (regressions, improvements, and first-record seeds).
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(
            f"threshold must be in (0, 1), got {threshold}"
        )
    ok = True
    lines: List[str] = []
    backend = record.get("backend", "reference")
    scale = record.get("scale")
    for name, entry in record.get("workloads", {}).items():
        current = entry["steps_per_sec"]
        baseline = best_prior(history, name, backend, engine_seed, scale)
        if baseline is None or baseline <= 0:
            lines.append(
                f"{name}: {current:.1f} steps/s — no prior record; "
                f"this run seeds the baseline"
            )
            continue
        delta = current / baseline - 1.0
        verdict = "ok"
        if delta < -threshold:
            ok = False
            verdict = f"REGRESSION (> {100 * threshold:.0f}% loss)"
        lines.append(
            f"{name}: {current:.1f} steps/s vs best {baseline:.1f} "
            f"({100 * delta:+.1f}%) — {verdict}"
        )
    return ok, lines
