"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces, on the instances of one simulator, the public
methods through which a step calls into each layer, and records one
span per call: name, start, end, parent span and step number (the id
the spans of one step share). The step itself is a span too, opened by
the ``on_step_start`` hook and closed when ``rotate_all`` (the last
call of every step) returns. Spans stay in memory; :meth:`summary`
turns them into per-step busy and self times once the run has ended,
and :meth:`chrome_trace` writes them out for a trace viewer.

The simulator binds ``backend.advance`` when ``run()`` starts, but the
backend looks each runtime's ``advance`` up per call, so every wrapper
must be installed before ``run()`` and may be installed on instances.

Step 0 carries lazy plan binding (it is part of ``setup_s``), so only
steps from :attr:`Tracer.first_step` on are summarised.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List

from repro.engine.hooks import PhaseHook

from cases import hardware_runtimes

#: Span name of the whole step; its self time is ``simulator.self_us``.
STEP = "simulator.step"


class Tracer(PhaseHook):
    """Spans and exact counts at each layer boundary of one simulator."""

    first_step = 1

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.steps: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._step = -1
        self._counters_at_start: Dict[str, int] = {}
        self._read_counters: Callable[[], Dict[str, int]] = dict

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self._step)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        if self._step >= self.first_step:
            self.counts[name] += amount

    def on_step_start(self, step: int) -> None:
        self._step = step
        if step == self.first_step:
            self._counters_at_start = self._read_counters()
        self._open(STEP)

    def wrap(self, obj, method: str, name: str, count=None) -> None:
        """Time every call of ``obj.method`` as a span named ``name``.

        ``count(args, result)`` returns ``{count name: amount}`` to add
        for the call.
        """
        original = getattr(obj, method)

        def traced(*args):
            index = self._open(name)
            try:
                result = original(*args)
            finally:
                self._close(index)
            if count is not None:
                for key, amount in count(args, result).items():
                    self.count(key, amount)
            return result

        setattr(obj, method, traced)

    # -- installation ------------------------------------------------------

    def install(self, simulator, recorder) -> None:
        """Wrap every layer call of ``simulator`` (before ``run()``)."""
        network = simulator.network
        for stimulus in network.stimuli:
            draws = stimulus.target.n
            self.wrap(
                stimulus, "generate", "stimulus.generate",
                lambda args, out, draws=draws: {
                    "stimulus.events": out[0].size, "stimulus.draws": draws,
                },
            )
        for ring in simulator.router.rings.values():
            self.wrap(ring, "enqueue_now", "routing.enqueue_now")
            self.wrap(
                ring, "enqueue", "routing.enqueue",
                lambda args, out: {"routing.deliveries": args[0].size},
            )
        self.wrap(simulator.router, "rotate_all", "routing.rotate")
        for projection in network.projections:
            self.wrap(
                projection, "synapses_of", "projection.gather",
                lambda args, out: {"projection.calls": 1},
            )
        hardware = hardware_runtimes(simulator)
        layer = "hardware" if hardware else "engine"
        for runtime in simulator.backend.runtimes.values():
            self.wrap(
                runtime, "advance", f"{layer}.advance",
                lambda args, out: {f"{layer}.calls": 1},
            )
        for runtime in hardware:
            self.wrap(runtime.neuron, "step", "hardware.datapath")
        for plastic in network.plasticity_rules:
            self.wrap(plastic, "step", "plasticity.step")
        self.wrap(
            recorder, "record_indices", "recorder.record",
            lambda args, out: {"simulator.spikes": args[2].size},
        )
        # rotate_all ends the step: close the step span after it.
        rotate = simulator.router.rotate_all

        def rotate_and_close_step():
            rotate()
            self._close(self._stack[0])

        simulator.router.rotate_all = rotate_and_close_step
        self._read_counters = lambda: program_counters(simulator)

    # -- summary -----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-step busy/self µs of each span name and per-step counts.

        ``<name>.busy_us`` is the time inside the wrapped call,
        ``<name>.self_us`` the same minus the child spans it contains.
        Counts are divided by the steps summarised; they are exact, so
        they must repeat across runs of one seed.
        """
        first = self.first_step
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        busy: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        n_steps = 0
        for index, name in enumerate(self.names):
            if self.steps[index] < first:
                continue
            duration = self.ends[index] - self.starts[index]
            busy[name] += duration
            own[name] += duration - child_time[index]
            if name == STEP:
                n_steps += 1
        if n_steps == 0:
            raise ValueError("no traced step after the first")
        out: Dict[str, float] = {"steps": n_steps}
        for name in busy:
            out[f"{name}.busy_us"] = busy[name] * 1e6 / n_steps
            out[f"{name}.self_us"] = own[name] * 1e6 / n_steps
        for name, amount in self.counts.items():
            out[name] = amount / n_steps
        after = self._read_counters()
        for name, value in after.items():
            out[name] = (value - self._counters_at_start[name]) / n_steps
        return out

    def chrome_trace(self, process: str) -> dict:
        """The spans in Chrome trace-event format (µs timestamps)."""
        origin = self.starts[0] if self.starts else 0.0
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": process}}]
        for index, name in enumerate(self.names):
            events.append({
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((self.starts[index] - origin) * 1e6, 3),
                "dur": round((self.ends[index] - self.starts[index]) * 1e6, 3),
                "args": {"step": self.steps[index]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def program_counters(simulator) -> Dict[str, int]:
    """Exact lifetime counters the program keeps for layers whose work
    the wrappers cannot see: simulated cycles, saturation screening,
    plasticity bookkeeping."""
    counters: Dict[str, int] = {}
    runtimes = hardware_runtimes(simulator)
    counters["hardware.cycles"] = sum(r.neuron.total_cycles for r in runtimes)
    counters["fixedpoint.checked"] = sum(
        r.saturation_stats.checked for r in runtimes
    )
    counters["fixedpoint.clipped"] = sum(
        r.saturation_stats.total_clipped for r in runtimes
    )
    rules = simulator.network.plasticity_rules
    for key in ("applied_updates", "deferred_updates", "trace_refreshes"):
        counters[f"plasticity.{key}"] = sum(getattr(r, key) for r in rules)
    return counters


def layer_metrics(summary: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric table from a :meth:`Tracer.summary`."""

    def get(key: str) -> float:
        return float(summary.get(key, 0.0))

    metrics = {
        "hardware.advance_us": get("hardware.advance.busy_us"),
        "hardware.datapath_us": get("hardware.datapath.busy_us"),
        "hardware.quantize_us": get("hardware.advance.self_us"),
        "hardware.calls": get("hardware.calls"),
        "hardware.cycles": get("hardware.cycles"),
        "fixedpoint.checked": get("fixedpoint.checked"),
        "fixedpoint.clipped": get("fixedpoint.clipped"),
        "engine.advance_us": get("engine.advance.busy_us"),
        "engine.calls": get("engine.calls"),
        "routing.enqueue_us": get("routing.enqueue.busy_us"),
        "projection.gather_us": get("projection.gather.busy_us"),
        "projection.calls": get("projection.calls"),
        "routing.deliveries": get("routing.deliveries"),
        "routing.rotate_us": get("routing.rotate.busy_us"),
        "stimulus.generate_us": get("stimulus.generate.busy_us"),
        "routing.enqueue_now_us": get("routing.enqueue_now.busy_us"),
        "stimulus.draws": get("stimulus.draws"),
        "stimulus.events": get("stimulus.events"),
        "plasticity.step_us": get("plasticity.step.busy_us"),
        "plasticity.applied_updates": get("plasticity.applied_updates"),
        "plasticity.deferred_updates": get("plasticity.deferred_updates"),
        "plasticity.trace_refreshes": get("plasticity.trace_refreshes"),
        "recorder.record_us": get("recorder.record.busy_us"),
        "simulator.self_us": get(f"{STEP}.self_us"),
        "simulator.spikes": get("simulator.spikes"),
        "trace.step_us": get(f"{STEP}.busy_us"),
    }
    draws = metrics["stimulus.draws"]
    metrics["stimulus.hit_ratio"] = (
        metrics["stimulus.events"] / draws if draws else 0.0
    )
    return metrics


def self_time_gap(summary: Dict[str, float]) -> float:
    """Traced step time minus the sum of every span's self time.

    Self times partition the step span, so this is zero up to
    floating-point rounding; a larger gap means a span escaped its
    parent.
    """
    total_self = sum(
        value for key, value in summary.items() if key.endswith(".self_us")
    )
    return summary[f"{STEP}.busy_us"] - total_self
