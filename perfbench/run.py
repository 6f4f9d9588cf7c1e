"""The repository benchmark: per-step latency and throughput of four
simulation workloads, and per-layer self time from a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload brunel-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, both modes

``--trace 0`` reports the end-to-end metrics with tracing off,
``--trace 1`` the per-layer metrics of a traced run (README.md lists
both). Each run re-builds the workload's networks from ``--seed`` and
simulates fixed-length episodes, taking turns over the networks, until
``--seconds`` have passed; every episode's output is checked against
its network's pinned one (seed 1) or against the run's first episode
of that network (any other seed). The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The benchmark drives library functions only, never ``repro.cli.main``,
so it appends to no ledger or history file; it checks that the
checkout's files are unchanged when it ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where the traced run writes its spans (ignored by git and by the
#: unchanged-tree check).
OUT_DIR = ROOT / ".bench_out"
#: Directories whose contents a run may legitimately change.
SCRATCH_DIRS = {"__pycache__", ".bench_build", ".bench_out"}

SETUP_PROBES = 5
#: Untraced episodes of each network a run makes even when ``--seconds``
#: is short: a step's latency is the lower median of its repeats, so
#: with two or more a slow spell of the host in one repeat is dropped.
MIN_REPEATS = 2
#: Traced episodes a trace run makes: two let the exact-count gate
#: compare counts.
MIN_TRACED = 2
#: After this long a run stops starting episodes even if it has fewer
#: than the minimum (a very slow host), so it still ends in time.
HARD_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tree_state(root: Path) -> Dict[str, Tuple[int, int]]:
    """(size, mtime) of every file under ``root`` outside scratch dirs."""
    state = {}
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [d for d in subdirs if d not in SCRATCH_DIRS]
        for name in files:
            path = os.path.join(directory, name)
            info = os.stat(path)
            state[os.path.relpath(path, root)] = (info.st_size, info.st_mtime_ns)
    return state


def tree_changes(before: dict, after: dict) -> List[str]:
    return sorted(
        path
        for path in set(before) | set(after)
        if before.get(path) != after.get(path)
    )


# -- set-up probes -------------------------------------------------------------


def setup_probes(name: str, seed: int, failures: List[str]) -> List[dict]:
    """Set-up measurements from fresh interpreters (probe_setup.py)."""
    results = []
    for index in range(SETUP_PROBES):
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=20,
            )
        except subprocess.TimeoutExpired:
            failures.append(f"set-up probe {index} timed out")
            continue
        if completed.returncode != 0:
            failures.append(
                f"set-up probe {index} exited {completed.returncode}: "
                f"{completed.stderr.strip()[-500:]}"
            )
            continue
        results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return results


# -- episodes ------------------------------------------------------------------


def run_episode(case, seed: int, tracer=None):
    """Build, simulate ``case.steps`` steps; return (fingerprint, step
    durations in host seconds, the same in reference seconds), both of
    steps 1 .. steps-2."""
    import numpy as np
    from repro.engine.hooks import PhaseHook
    from repro.network.recorder import SpikeRecorder

    import cases
    import hostspeed

    class StepClock(PhaseHook):
        """A step lasts from its start to the next step's hook call; the
        host-speed probe runs between the two, outside both."""

        def __init__(self):
            self.ends = []
            self.starts = []
            self.probes = []

        def on_step_start(self, step):
            now = time.perf_counter()
            self.ends.append(now)
            if step % hostspeed.PROBE_EVERY == 0:
                hostspeed.probe()
                self.probes.append(time.perf_counter() - now)
                now = time.perf_counter()
            self.starts.append(now)

    network, rule = cases.build(case, seed)
    simulator = cases.make_simulator(case, network, seed)
    recorder = SpikeRecorder()
    clock = StepClock()
    hooks = [clock]
    if tracer is not None:
        tracer.install(simulator, recorder)
        hooks.append(tracer)
    result = simulator.run(case.steps, hooks=hooks, spikes=recorder)
    # Step 0 is set-up (lazy plan binding); the last step has no
    # following hook call to close it.
    durations = (
        np.array(clock.ends[2:]) - np.array(clock.starts[1:-1])
    ).tolist()
    scaled = hostspeed.scale(durations, clock.probes, first_step=1)
    return cases.fingerprint(simulator, result, rule), durations, scaled


def measure(case, seed: int, seconds: float, trace: bool) -> dict:
    """Every episode and probe of one run, checked and summarised.

    An untraced run takes turns over the seed's networks; a traced run
    simulates the first only, so that its counts can repeat exactly.
    """
    import cases
    import hostspeed
    import stats
    import tracing

    pins = cases.load_pins()[case.name] if seed == cases.DEFAULT_SEED else None
    check = cases.OutputCheck(pins)
    seeds = cases.network_seeds(case, seed)[: 1 if trace else None]
    failures: List[str] = []
    probes = setup_probes(case.name, seed, failures)
    for _ in range(10):  # first calls of numpy functions cost more
        hostspeed.probe()

    # Per network, each untraced episode's step durations.
    repeats: List[List[List[float]]] = [[] for _ in seeds]
    host_repeats: List[List[List[float]]] = [[] for _ in seeds]
    rates: List[float] = []
    traced_rates: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    last_tracer = None
    start = time.perf_counter()
    episode = 0
    while True:
        network = episode % len(seeds)
        tracer = tracing.Tracer() if trace and episode % 2 else None
        label = f"episode {episode} (network seed {seeds[network]})" + (
            " (traced)" if tracer else ""
        )
        try:
            observed, host, durations = run_episode(
                case, seeds[network], tracer
            )
        except Exception as error:  # counted as a failed run, then stop
            traceback.print_exc()
            check.record_error(label, error)
            break
        check.record(label, observed, network)
        rate = len(durations) / sum(durations)
        if tracer is None:
            if episode == 0:
                # One build and one episode: what a ``repro run`` of the
                # same length holds. Later episodes would add allocator
                # fragmentation that no single run sees.
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
            repeats[network].append(durations)
            host_repeats[network].append(host)
            rates.append(rate)
        else:
            traced_rates.append(rate)
            summary = tracer.summary()
            gap = tracing.self_time_gap(summary)
            if abs(gap) > 1e-6 * summary[f"{tracing.STEP}.busy_us"]:
                failures.append(f"{label}: self times miss the step by {gap} us")
            layer_runs.append(tracing.layer_metrics(summary))
            last_tracer = tracer
        episode += 1
        gc.collect()
        elapsed = time.perf_counter() - start
        enough = all(len(runs) >= MIN_REPEATS for runs in repeats) and (
            not trace or len(traced_rates) >= MIN_TRACED
        )
        if elapsed >= seconds and (enough or elapsed >= HARD_LIMIT_S):
            break

    report = {
        "check": check,
        "failures": failures,
        "probes": probes,
        "attempted": check.attempted + SETUP_PROBES,
        "episodes": episode,
    }
    if check.failed or failures or not probes or not all(repeats):
        return report
    # Every episode of a network simulates the same steps, so a step's
    # repeats differ only by host noise, which only adds time; their
    # lower median keeps the latency the step's own work sets (the
    # bursts of spike delivery) and drops a slow spell of the host that
    # hit at most half of them. The steps of all networks are pooled.
    # Times are in reference seconds (hostspeed.py); host seconds are
    # printed too.
    latencies = step_latencies(repeats)
    host_latencies = step_latencies(host_repeats)
    report["host"] = {
        "steps_per_s": len(host_latencies) / sum(host_latencies),
        "step_ms_p50": statistics.median(host_latencies) * 1e3,
    }
    try:
        p99 = stats.tail_percentile(latencies, 99)
    except ValueError as error:
        failures.append(str(error))
        return report
    report["samples"] = (len(latencies), [len(runs) for runs in repeats])
    report["tail"] = stats.samples_beyond(latencies, p99)
    report["end_to_end"] = {
        "steps_per_s": len(latencies) / sum(latencies),
        "step_ms_p50": statistics.median(latencies) * 1e3,
        "step_ms_p99": p99 * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        report["per_layer"] = per_layer(
            layer_runs, probes, statistics.median(traced_rates)
            / statistics.median(rates), failures,
        )
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{case.name}-seed{seed}.trace.json", "w") as out:
            json.dump(last_tracer.chrome_trace(f"{case.name} seed {seed}"), out)
    return report


def step_latencies(repeats: List[List[List[float]]]) -> List[float]:
    """Each step's lower median over its repeats, for every network's
    steps."""
    return [
        statistics.median_low(step) for runs in repeats for step in zip(*runs)
    ]


def per_layer(
    layer_runs: List[Dict[str, float]],
    probes: List[dict],
    overhead_ratio: float,
    failures: List[str],
) -> Dict[str, float]:
    """Median busy times across traced episodes; counts must agree
    exactly (any difference is reported, never averaged)."""
    metrics: Dict[str, float] = {}
    for key in layer_runs[0]:
        values = [run[key] for run in layer_runs]
        if key.endswith("_us"):
            metrics[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                failures.append(f"count {key} differs across runs: {values}")
            metrics[key] = values[0]
    for key in ("cli.import_s", "workloads.build_s", "simulator.init_s",
                "simulator.first_step_s"):
        metrics[key] = statistics.median(p[key] for p in probes)
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_us"):
        return "us/step"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count/step"


# -- one workload ----------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    import cases

    before = tree_state(ROOT)
    case = cases.CASES[name]
    report = measure(case, seed, seconds, trace)
    changed = tree_changes(before, tree_state(ROOT))
    failures = report["failures"] + report["check"].failures
    if changed:
        failures.append(f"run changed the checkout: {', '.join(changed[:10])}")
    failed = report["check"].failed + len(report["failures"]) + bool(changed)
    attempted = max(report["attempted"], failed)
    mode = "traced" if trace else "untraced"
    print(f"{name} (seed {seed}, {mode}, {case.network} at scale "
          f"{case.scale} on {case.backend}, {case.steps} steps/episode, "
          f"{report['episodes']} episodes, {len(report['probes'])} set-up probes)")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  failure_ratio = {failed}/{attempted} runs")
    metrics = report.get("per_layer" if trace else "end_to_end", {})
    if "samples" in report and not trace:
        steps, repeats = report["samples"]
        counts = "/".join(map(str, repeats))
        print(f"  step latency over {steps} steps of {len(repeats)} networks, "
              f"each the lower median of its {counts} repeats; "
              f"{report['tail']} steps beyond p99; times in reference "
              f"seconds (hostspeed.py)")
        host = report["host"]
        print(f"  in host seconds: steps_per_s {host['steps_per_s']:.6g}, "
              f"step_ms_p50 {host['step_ms_p50']:.6g}")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit_of(key)}")
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in metrics.items()
        },
    }))


# -- every workload ----------------------------------------------------------------


def run_all(seed: int, seconds: float) -> None:
    """Each workload in fresh processes, untraced then traced."""
    import cases

    correct, attempted, failed = True, 0, 0
    combined = {}
    for name in cases.CASES:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode != 0 or not lines:
                print(completed.stderr, file=sys.stderr)
                correct = False
                failed += 1
                attempted += 1
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                combined[f"{name}/{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no {SRC / 'repro'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import cases

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*cases.CASES, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run "
                        "(ignored with --workload all, which runs both)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
