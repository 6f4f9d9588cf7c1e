"""Command-line interface: ``python -m repro`` (or ``repro-flexon``).

Subcommands:

``workloads``
    Print the Table I workload inventory.
``models``
    Print every supported neuron model, its feature combination, and
    its folded-Flexon microprogram length.
``microcode MODEL``
    Print the Table V-style control-signal listing for one model.
``run WORKLOAD``
    Build and simulate one Table I workload; print firing statistics
    and the phase breakdown. ``--checkpoint-every N`` writes a
    restorable checkpoint file every N steps; ``--resume-from PATH``
    continues a killed run bit-identically from its last checkpoint.
    Telemetry: ``--trace OUT.json`` writes a Perfetto/chrome://tracing
    timeline, ``--stats-json PATH`` dumps the run's statistics as
    JSON, ``--prometheus PATH`` writes the metrics registry in
    Prometheus text exposition format. ``--alerts SPEC.json`` attaches
    the health layer: streaming anomaly detectors feed an alert rules
    engine whose pending/firing/resolved state is served on
    ``GET /alerts``, streamed on SSE, and recorded in the ledger
    entry (also on ``sweep``). SIGINT/SIGTERM stop the run
    gracefully at the next step boundary: a final checkpoint is
    written, partial statistics land in ``--stats-json`` (marked
    ``"partial": true``), and the process exits 130 (SIGINT) or
    143 (SIGTERM) instead of printing a traceback.
``sweep [WORKLOAD ...]``
    Run workloads as supervised, process-isolated jobs: per-job
    wall-clock deadlines (``--deadline``), heartbeat watchdog
    (``--heartbeat-timeout``), retry with exponential backoff
    (``--max-retries``), and checkpoint-based crash recovery
    (``--checkpoint-every``). ``--workers N`` supervises N jobs
    concurrently. Exits 0 only when every job completed.
``profile``
    Run registry workloads bare vs. fully instrumented; report
    per-phase/per-population p50/p95 wall time, ops/sec, and the
    telemetry overhead delta; write ``BENCH_profile.json``.
``experiment NAME``
    Regenerate one paper artifact (``figure3``, ``figures4to8``,
    ``table3``, ``table5``, ``figure12``, ``table6``, ``figure13``,
    ``validation``, ``resilience``) or ``all``.
``simulate SPEC.json``
    Build a network from a declarative front-end spec (Section VII-B)
    and simulate it on the backend the spec names.
``example-spec``
    Print a ready-to-run front-end specification.
``serve [WORKLOAD]``
    Run a workload with the live observability plane attached and keep
    serving ``/metrics``, ``/healthz``, ``/readyz``, ``/status`` and
    the ``/events`` SSE stream until interrupted. The same plane
    attaches to ``repro run`` / ``repro sweep`` via ``--serve SPEC``
    (``PORT``, ``:PORT`` or ``HOST:PORT``; port 0 picks an ephemeral
    port, written to ``--serve-port-file`` for scripts).
``top URL``
    Live console dashboard of a serving run or sweep (polls
    ``/status``); ``--once`` prints a single frame.
``bench``
    Measure steps/sec per workload, append a ``repro-bench/1`` record
    to ``BENCH_history.jsonl``, and with ``--compare`` exit non-zero
    when throughput regressed more than the threshold against the best
    prior record (seeded from the committed ``BENCH_engine.json``).
    ``--plasticity`` instead measures lazy-STDP overhead (plasticity
    off vs lazy vs dense on Brunel and Vogels) and fails when the lazy
    and dense spike digests diverge or nothing was actually deferred.
``runs``
    Query the run-provenance ledger (``ledger.jsonl``, schema
    ``repro-ledger/1``) that ``run``/``sweep``/``bench``/``profile``
    append to: ``list`` recent runs (``--json`` for one record per
    line), ``show RUN_ID`` one full entry, and ``diff A B`` two
    entries field by field (exit 1 when their spike digests diverge —
    the reproducibility alarm). Run ids accept unique prefixes. Opt out
    of recording with ``--no-ledger`` on any recording command.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError

DT = 1e-4


def _cmd_workloads(_args) -> int:
    from repro.experiments.figure3 import table1_inventory

    print(table1_inventory())
    return 0


def _cmd_models(_args) -> int:
    from repro.experiments.common import format_table
    from repro.features import MODEL_FEATURES
    from repro.hardware.compiler import FlexonCompiler
    from repro.models.registry import create_model

    compiler = FlexonCompiler()
    rows = []
    for name, features in MODEL_FEATURES.items():
        compiled = compiler.compile(create_model(name), DT)
        rows.append(
            (
                name,
                "+".join(f.value for f in features),
                compiled.program.n_signals,
                compiled.program.cycles_per_neuron,
            )
        )
    rows.append(("HH", "(unsupported: hybrid path)", "-", "-"))
    print(
        format_table(
            ["Model", "Features", "Folded signals", "Cycles/neuron"], rows
        )
    )
    return 0


def _cmd_microcode(args) -> int:
    from repro.hardware.compiler import FlexonCompiler
    from repro.models.registry import create_model

    compiled = FlexonCompiler().compile(create_model(args.model), args.dt)
    print(compiled.program.listing())
    print(
        f"\nMUL constants: "
        f"{[hex(c & 0xFFFFFFFF) for c in compiled.program.mul_constants]}"
    )
    print(
        f"ADD constants: "
        f"{[hex(c & 0xFFFFFFFF) for c in compiled.program.add_constants]}"
    )
    print(f"weight pre-scale: {compiled.weight_scale:g}")
    return 0


def _start_plane(
    bind: str, port_file, metrics, status, bus,
    health_check=None, ready_check=None, ledger_path=None,
    alerts_source=None,
):
    """Start the observability HTTP plane behind a ``--serve`` flag."""
    from repro.health.resources import ResourceSampler
    from repro.io import atomic_write_text
    from repro.observability import ObservabilityServer, parse_serve_spec

    host, port = parse_serve_spec(bind)
    resources = ResourceSampler()

    def metrics_text() -> str:
        # Publish-at-collect: the process's own RSS/CPU/fd gauges and
        # the bus's cumulative SSE drop tally are refreshed on each
        # scrape, so self-telemetry costs nothing between scrapes and a
        # slow /events consumer shows up on /metrics without touching
        # the hot path.
        resources.publish(metrics)
        if bus is not None:
            metrics.counter(
                "sse_dropped_events_total",
                help="SSE events dropped across all subscribers "
                "(slow consumers lose events instead of blocking)",
            ).set_total(bus.dropped_total)
        # The registry is mutated by the run/supervisor threads without
        # a lock shared with the HTTP threads; retry the (rare, benign)
        # dict-resized-during-iteration race instead of locking the hot
        # path.
        for _ in range(5):
            try:
                return metrics.to_prometheus()
            except RuntimeError:
                continue
        return ""

    runs_source = None
    if ledger_path:
        from repro.provenance import load_ledger, runs_document

        def runs_source():
            # Re-read per request: the ledger is append-only and may
            # be written by other concurrent repro commands.
            return runs_document(load_ledger(ledger_path))

    server = ObservabilityServer(
        metrics_text=metrics_text,
        status=status,
        bus=bus,
        health_check=health_check,
        ready_check=ready_check,
        host=host,
        port=port,
        runs_source=runs_source,
        alerts_source=alerts_source,
    )
    server.start()
    if port_file:
        atomic_write_text(port_file, f"{server.port}\n")
    endpoints = "/metrics /healthz /readyz /status" + (
        " /alerts" if alerts_source is not None else ""
    ) + (
        " /runs" if runs_source is not None else ""
    ) + " /events"
    print(f"observability plane at {server.url} ({endpoints})")
    return server


def _linger_plane(server, bus, linger: Optional[float]) -> None:
    """Keep the plane serving after the work, then stop it.

    ``linger=None`` serves until Ctrl-C; ``linger=N`` serves N more
    seconds; 0 stops immediately. While lingering, a 1 Hz ``tick``
    event flows on the bus so SSE clients (and the CI smoke) always
    observe live frames, even when they connect after the run ended.
    """
    import time

    if server is None:
        return
    try:
        if linger is not None and linger <= 0:
            return
        print(
            "serving until Ctrl-C"
            if linger is None
            else f"serving for another {linger:g}s (Ctrl-C to stop)"
        )
        deadline = None if linger is None else time.monotonic() + linger
        while deadline is None or time.monotonic() < deadline:
            if bus is not None:
                bus.publish("tick", {})
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nstopping")
    finally:
        server.stop()


def _ledger_path(args) -> Optional[str]:
    """The ledger file this invocation records to (None = disabled)."""
    if getattr(args, "no_ledger", False):
        return None
    return getattr(args, "ledger", None)


def _append_ledger(args, entry: dict) -> None:
    """Append one provenance entry unless the ledger is disabled."""
    path = _ledger_path(args)
    if not path:
        return
    from repro.provenance import append_entry

    try:
        append_entry(path, entry)
    except OSError as error:
        print(
            f"warning: could not record run in ledger {path!r}: {error}",
            file=sys.stderr,
        )
        return
    print(f"recorded {entry['run_id']} in ledger {path!r}")


def _runtime_health_check(simulator, status):
    """Probe callables for a single simulated run's /healthz and /readyz."""

    def health_check():
        for name, runtime in getattr(
            simulator.backend, "runtimes", {}
        ).items():
            bad = runtime.health()
            if bad is not None:
                variable, indices = bad
                return False, (
                    f"population {name!r}: {variable} non-finite or "
                    f"divergent in {len(indices)} neuron(s)"
                )
        return True, ""

    def ready_check():
        state = status.snapshot().get("state")
        return (
            state in ("running", "finished"),
            f"run state is {state!r}",
        )

    return health_check, ready_check


def _alert_manager(args, status=None, bus=None, metrics=None):
    """Build the alert engine behind a ``--alerts`` flag (None = off)."""
    spec = getattr(args, "alerts", None)
    if not spec:
        return None
    from repro.health import AlertManager, load_alert_rules

    rules = load_alert_rules(spec)
    print(f"alerting: {len(rules)} rule(s) loaded from {spec!r}")
    return AlertManager(rules, status=status, bus=bus, metrics=metrics)


def _print_alert_summary(manager) -> Optional[dict]:
    """Print the final alert tallies; returns the summary dict."""
    if manager is None:
        return None
    summary = manager.summary()
    fired = summary["fired"]
    print(
        f"alerts: {summary['fired_total']} fired"
        + (f" ({', '.join(fired)})" if fired else "")
        + f", {summary['firing']} still firing, "
        f"{summary['resolved']} resolved"
    )
    return summary


def _cmd_run(args) -> int:
    import time

    from repro.errors import CheckpointError, RunInterrupted
    from repro.hardware.backend import FlexonBackend, FoldedFlexonBackend
    from repro.io import atomic_write_json, atomic_write_text
    from repro.network.backends import ReferenceBackend
    from repro.network.simulator import Simulator
    from repro.observability.log import new_run_id
    from repro.reliability import Checkpoint, CheckpointHook
    from repro.supervision.interrupt import (
        EXIT_CODES,
        InterruptHook,
        graceful_signals,
    )
    from repro.workloads import build_workload, get_spec

    run_id = new_run_id()
    ledger_config = {
        "workload": args.workload,
        "backend": args.backend,
        "steps": args.steps,
        "scale": args.scale,
        "seed": args.seed,
        "dt": args.dt,
        "solver": args.solver,
    }
    spec = get_spec(args.workload)
    backends = {
        "reference": lambda: ReferenceBackend(args.solver or spec.solver),
        "flexon": lambda: FlexonBackend(args.dt),
        "folded": lambda: FoldedFlexonBackend(args.dt),
    }
    backend = backends[args.backend]()
    network = build_workload(args.workload, scale=args.scale, seed=args.seed)
    print(f"{spec}")
    print(f"run ID: {run_id}")
    print(
        f"built at scale {args.scale}: {network.n_neurons:,} neurons, "
        f"{network.n_synapses:,} synapses; backend: {backend.name}"
    )
    simulator = Simulator(network, backend, dt=args.dt, seed=args.seed + 1)

    spikes = None
    if args.resume_from:
        # The rebuilt simulator must match the checkpointed one; the
        # structural signature check turns a mismatch into a clear
        # error instead of a silently wrong resume.
        checkpoint = Checkpoint.load(args.resume_from)
        checkpoint.restore(simulator)
        spikes = checkpoint.seed_recorder()
        print(
            f"resumed from {args.resume_from!r} at step "
            f"{simulator.current_step}"
        )
    remaining = args.steps - simulator.current_step
    if remaining < 0:
        raise CheckpointError(
            f"checkpoint is at step {simulator.current_step}, past the "
            f"requested {args.steps} steps"
        )

    hooks = []
    if args.checkpoint_every:
        hooks.append(
            CheckpointHook(
                simulator, args.checkpoint_every, args.checkpoint_path
            )
        )
    trace = None
    if args.trace:
        from repro.telemetry import TraceHook

        trace = (
            TraceHook(run_id=run_id)
            if args.trace_max_events is None
            else TraceHook(max_events=args.trace_max_events, run_id=run_id)
        )
        hooks.append(trace)
    metrics = None
    if args.stats_json or args.prometheus or args.serve or args.alerts:
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
    server = bus = status = None
    if args.serve:
        from repro.observability import EventBus, ServeHook, StatusBoard

        status = StatusBoard(state="starting")
        bus = EventBus()
        hooks.append(ServeHook(status, bus, metrics=metrics))
    manager = _alert_manager(args, status=status, bus=bus, metrics=metrics)
    if manager is not None:
        from repro.health import HealthHook

        hooks.append(HealthHook(manager, simulator=simulator, metrics=metrics))
    if args.serve:
        health_check, ready_check = _runtime_health_check(simulator, status)
        server = _start_plane(
            args.serve, args.serve_port_file, metrics, status, bus,
            health_check, ready_check, ledger_path=_ledger_path(args),
            alerts_source=None if manager is None else manager.document,
        )
    interrupt = InterruptHook(simulator, checkpoint_path=args.checkpoint_path)
    hooks.append(interrupt)
    wall_start = time.monotonic()
    try:
        with graceful_signals(interrupt):
            result = simulator.run(
                remaining, hooks=hooks, spikes=spikes, metrics=metrics
            )
    except RunInterrupted as stop:
        wall_seconds = time.monotonic() - wall_start
        print(
            f"\ninterrupted by {stop.signal_name} at step {stop.step}; "
            "stopping gracefully"
        )
        if interrupt.checkpoint_written:
            print(
                f"final checkpoint written to "
                f"{interrupt.checkpoint_written!r}; resume with "
                f"--resume-from {interrupt.checkpoint_written!r}"
            )
        if args.stats_json and interrupt.partial_stats is not None:
            partial = dict(interrupt.partial_stats)
            partial["run_id"] = run_id
            atomic_write_json(args.stats_json, partial)
            print(f"wrote partial run statistics {args.stats_json!r}")
        from repro.provenance import make_entry

        _append_ledger(args, make_entry(
            "run",
            run_id,
            ledger_config,
            workload=args.workload,
            backend=args.backend,
            steps=stop.step,
            scale=args.scale,
            seed=args.seed,
            dt=args.dt,
            outcome=f"interrupted ({stop.signal_name})",
            duration=wall_seconds,
            artifacts={
                "stats_json": args.stats_json,
                "checkpoint": interrupt.checkpoint_written,
            },
        ))
        if server is not None:
            server.stop()
        return EXIT_CODES.get(stop.signal_name, 130)
    wall_seconds = time.monotonic() - wall_start
    duration = simulator.current_step * args.dt
    rate = result.total_spikes() / max(1, network.n_neurons) / duration
    print(
        f"\n{result.total_spikes():,} spikes in {duration * 1e3:.0f} ms "
        f"of biological time ({rate:.1f} Hz mean rate)"
    )
    print("per-phase wall-clock share:")
    for phase, fraction in result.phase_fractions().items():
        print(f"  {phase:10s} {100 * fraction:5.1f}%")
    if not result.diagnostics.healthy():
        print("reliability diagnostics:")
        for line in result.diagnostics.summary().splitlines():
            print(f"  {line}")
    alert_summary = _print_alert_summary(manager)
    if trace is not None:
        trace.save(args.trace)
        print(
            f"wrote trace {args.trace!r} "
            f"({len(trace.to_trace_events())} events, "
            f"{trace.dropped_events} dropped) — load it in "
            f"chrome://tracing or https://ui.perfetto.dev"
        )
    if args.stats_json:
        stats = result.to_stats_dict()
        stats["run_id"] = run_id
        atomic_write_json(args.stats_json, stats)
        print(f"wrote run statistics {args.stats_json!r}")
    if args.prometheus:
        atomic_write_text(args.prometheus, metrics.to_prometheus())
        print(f"wrote Prometheus metrics {args.prometheus!r}")
    from repro.provenance import make_entry
    from repro.supervision.job import spike_digest

    _append_ledger(args, make_entry(
        "run",
        run_id,
        ledger_config,
        workload=args.workload,
        backend=args.backend,
        steps=args.steps,
        scale=args.scale,
        seed=args.seed,
        dt=args.dt,
        spike_digest=spike_digest(result.spikes),
        outcome="completed",
        duration=wall_seconds,
        metrics={
            "total_spikes": result.total_spikes(),
            "mean_rate_hz": rate,
        },
        artifacts={
            "trace": args.trace,
            "stats_json": args.stats_json,
            "prometheus": args.prometheus,
            "checkpoint": (
                args.checkpoint_path if args.checkpoint_every else None
            ),
        },
        extra=(
            None if alert_summary is None
            else {"alerts": alert_summary}
        ),
    ))
    _linger_plane(server, bus, args.serve_linger)
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.common import format_table
    from repro.io import atomic_write_json
    from repro.supervision import (
        JobSpec,
        RetryPolicy,
        Supervisor,
        SupervisorConfig,
    )
    from repro.workloads import get_spec, workload_names

    names = args.workloads or list(workload_names())
    for name in names:
        get_spec(name)  # fail fast on unknown workloads, before spawning
    jobs = [
        JobSpec(
            name=name,
            workload=name,
            backend=args.backend,
            steps=args.steps,
            scale=args.scale,
            seed=args.seed,
            dt=args.dt,
            solver=args.solver,
            chaos_kill_at_step=args.chaos_kill_at,
        )
        for name in names
    ]
    status = bus = server = None
    metrics = None
    if args.serve or args.alerts:
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
    if args.serve:
        from repro.observability import EventBus, StatusBoard

        status = StatusBoard(state="starting")
        bus = EventBus()
    manager = _alert_manager(args, status=status, bus=bus, metrics=metrics)
    monitor = None
    if manager is not None:
        from repro.health import HealthMonitor

        monitor = HealthMonitor(manager, metrics=metrics)
    supervisor = Supervisor(
        workers=args.workers,
        retry=RetryPolicy(
            max_retries=args.max_retries, base_delay=args.backoff_base
        ),
        config=SupervisorConfig(
            poll_interval=args.poll_interval,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            deadline_seconds=args.deadline,
        ),
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        seed=args.seed,
        metrics=metrics,
        status_board=status,
        event_bus=bus,
    )
    if args.serve:
        from repro.supervision.job import JOB_BACKENDS

        def health_check():
            tripped = [
                backend for backend in JOB_BACKENDS
                if supervisor.breaker_tripped(backend)
            ]
            if tripped:
                return False, (
                    "numerics circuit breaker open for backend(s): "
                    + ", ".join(tripped)
                )
            return True, ""

        def ready_check():
            state = status.snapshot().get("state")
            return (
                state in ("running", "finished"),
                f"sweep state is {state!r}",
            )

        server = _start_plane(
            args.serve, args.serve_port_file, metrics, status, bus,
            health_check, ready_check, ledger_path=_ledger_path(args),
            alerts_source=None if manager is None else manager.document,
        )
    print(f"sweep run ID: {supervisor.run_id}")
    print(
        f"supervising {len(jobs)} job(s) on backend {args.backend!r}: "
        f"deadline {args.deadline:g}s, heartbeat timeout "
        f"{args.heartbeat_timeout:g}s, {args.max_retries} retr"
        f"{'y' if args.max_retries == 1 else 'ies'}, checkpoint every "
        f"{args.checkpoint_every} steps, {args.workers} worker(s)"
    )
    if args.chaos_kill_at is not None:
        print(
            f"chaos: workers SIGKILL themselves at step "
            f"{args.chaos_kill_at} on their first attempt"
        )
    if monitor is not None:
        # The sweep has no phase stream in this process, so the
        # monitor's own cadence thread watches the shared registry.
        monitor.start()
    try:
        report = supervisor.run(jobs)
    finally:
        if monitor is not None:
            monitor.finish()
    rows = []
    for job in report.jobs:
        outcome = job.outcome
        if not job.completed and job.failure_kind:
            outcome = f"failed ({job.failure_kind})"
        resumed = max(a.resumed_from_step for a in job.attempts)
        rows.append(
            (
                job.name,
                job.attempts[-1].backend if job.attempts else job.backend,
                outcome,
                len(job.attempts),
                resumed if resumed else "-",
                f"{job.total_spikes:,}",
                "yes" if job.degraded else "no",
                f"{job.wall_seconds:.1f}s",
            )
        )
    print()
    print(
        format_table(
            [
                "Job", "Backend", "Outcome", "Attempts", "Resumed@",
                "Spikes", "Degraded", "Wall",
            ],
            rows,
        )
    )
    print(
        f"\n{len(report.completed)}/{len(report.jobs)} jobs completed "
        f"in {report.wall_seconds:.1f}s"
    )
    alert_summary = _print_alert_summary(manager)
    if args.stats_json:
        report_doc = report.to_dict()
        if alert_summary is not None:
            report_doc["alerts"] = alert_summary
        atomic_write_json(args.stats_json, report_doc)
        print(f"wrote sweep report {args.stats_json!r}")
    if args.trace:
        atomic_write_json(args.trace, report.trace_json())
        print(
            f"wrote worker-lifetime trace {args.trace!r} — load it in "
            "chrome://tracing or https://ui.perfetto.dev"
        )
    if args.log_json:
        atomic_write_json(args.log_json, report.log_stream())
        print(
            f"wrote merged log stream {args.log_json!r} "
            f"({len(report.log_records)} records)"
        )
    from repro.provenance import make_entry

    digests = {
        job.name: job.spike_digest for job in report.jobs if job.spike_digest
    }
    _append_ledger(args, make_entry(
        "sweep",
        supervisor.run_id,
        {
            "workloads": names,
            "backend": args.backend,
            "steps": args.steps,
            "scale": args.scale,
            "seed": args.seed,
            "dt": args.dt,
            "solver": args.solver,
            "workers": args.workers,
            "max_retries": args.max_retries,
        },
        workload=",".join(names),
        backend=args.backend,
        steps=args.steps,
        scale=args.scale,
        seed=args.seed,
        dt=args.dt,
        # One job's digest is THE digest; several jobs pin per-job
        # digests in the extra block instead.
        spike_digest=(
            report.jobs[0].spike_digest if len(report.jobs) == 1 else None
        ),
        outcome="completed" if report.all_completed() else "failed",
        duration=report.wall_seconds,
        metrics={
            "jobs": len(report.jobs),
            "completed": len(report.completed),
            "failed": len(report.failed),
            "retries": sum(job.retries for job in report.jobs),
        },
        artifacts={
            "stats_json": args.stats_json,
            "trace": args.trace,
            "log_json": args.log_json,
        },
        extra={
            "job_digests": digests,
            **(
                {} if alert_summary is None
                else {"alerts": alert_summary}
            ),
        },
    ))
    _linger_plane(server, bus, args.serve_linger)
    return 0 if report.all_completed() else 1


def _cmd_profile(args) -> int:
    import time

    from repro.observability.log import new_run_id
    from repro.telemetry import profile

    workloads = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads
        else list(profile.DEFAULT_WORKLOADS)
    )
    steps, scale, reps = args.steps, args.scale, args.reps
    if args.quick:
        steps, scale, reps = min(steps, 120), min(scale, 0.05), min(reps, 2)
    run_id = new_run_id()
    print(f"run ID: {run_id}")
    wall_start = time.monotonic()
    payload = profile.run_profile(
        workloads,
        backend=args.backend,
        steps=steps,
        scale=scale,
        reps=reps,
        seed=args.seed,
        trace_path=args.trace,
        progress=print,
        run_id=run_id,
    )
    wall_seconds = time.monotonic() - wall_start
    print()
    print(profile.format_profile(payload))
    profile.write_profile(payload, args.output)
    print(f"\nwrote {args.output}")
    if args.trace:
        print(f"wrote sample trace {args.trace!r}")
    from repro.provenance import make_entry

    _append_ledger(args, make_entry(
        "profile",
        run_id,
        {
            "workloads": workloads,
            "backend": args.backend,
            "steps": steps,
            "scale": scale,
            "reps": reps,
            "seed": args.seed,
        },
        workload=",".join(workloads),
        backend=args.backend,
        steps=steps,
        scale=scale,
        seed=args.seed,
        outcome="completed",
        duration=wall_seconds,
        metrics={"max_overhead_delta": payload["max_overhead_delta"]},
        artifacts={"output": args.output, "trace": args.trace},
    ))
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import (
        figure3,
        figure12,
        figure13,
        figures4to8,
        resilience,
        table3,
        table5,
        table6,
        validation,
    )

    def run_figure3():
        rows = figure3.run(scale=args.scale, steps=args.steps)
        return figure3.table1_inventory() + "\n\n" + figure3.format_figure3(rows)

    def run_table3():
        return (
            table3.format_matrix()
            + "\n\n"
            + table3.format_verification(table3.run(steps=args.steps))
        )

    def run_table5():
        return table5.format_table5(table5.run())

    def run_figures4to8():
        return figures4to8.format_figures(figures4to8.run())

    def run_figure12():
        return figure12.format_figure12(figure12.run())

    def run_table6():
        return table6.format_table6(table6.run())

    def run_figure13():
        rows = figure13.run(scale=args.scale, steps=args.steps)
        return figure13.format_figure13(rows)

    def run_validation():
        rows = validation.run(scale=args.scale, steps=args.steps)
        return validation.format_validation(rows)

    def run_resilience():
        rows = resilience.run(scale=args.scale, steps=args.steps)
        return resilience.format_resilience(rows)

    experiments = {
        "figure3": run_figure3,
        "figures4to8": run_figures4to8,
        "table3": run_table3,
        "table5": run_table5,
        "figure12": run_figure12,
        "table6": run_table6,
        "figure13": run_figure13,
        "validation": run_validation,
        "resilience": run_resilience,
    }
    names = list(experiments) if args.name == "all" else [args.name]
    for name in names:
        print(f"== {name} " + "=" * max(1, 60 - len(name)))
        print(experiments[name]())
        print()
    return 0


def _cmd_simulate(args) -> int:
    from repro.frontend import build_simulation, load_spec

    spec = load_spec(args.spec)
    simulator, network = build_simulation(spec)
    print(
        f"{network.name}: {network.n_neurons:,} neurons, "
        f"{network.n_synapses:,} synapses on "
        f"{simulator.backend.name}"
    )
    result = simulator.run(args.steps)
    duration = args.steps * simulator.dt
    for name, population in network.populations.items():
        record = result.spikes.result(name)
        rate = record.n_spikes / population.n / duration
        print(f"  {name:12s} {record.n_spikes:8,d} spikes ({rate:7.1f} Hz)")
    if network.plasticity_rules:
        for rule in network.plasticity_rules:
            print(
                f"  plastic {rule.projection.name}: mean weight "
                f"{rule.mean_weight():.4f}"
            )
    return 0


def _cmd_example_spec(_args) -> int:
    import json

    from repro.frontend import example_spec

    print(json.dumps(example_spec(), indent=2))
    return 0


def _cmd_serve(args) -> int:
    from repro.hardware.backend import FlexonBackend, FoldedFlexonBackend
    from repro.network.backends import ReferenceBackend
    from repro.network.simulator import Simulator
    from repro.observability import EventBus, ServeHook, StatusBoard
    from repro.telemetry import MetricsRegistry
    from repro.workloads import build_workload, get_spec

    spec = get_spec(args.workload)
    backends = {
        "reference": lambda: ReferenceBackend(spec.solver),
        "flexon": lambda: FlexonBackend(args.dt),
        "folded": lambda: FoldedFlexonBackend(args.dt),
    }
    network = build_workload(args.workload, scale=args.scale, seed=args.seed)
    simulator = Simulator(
        network, backends[args.backend](), dt=args.dt, seed=args.seed + 1
    )
    metrics = MetricsRegistry()
    status = StatusBoard(state="starting")
    bus = EventBus()
    health_check, ready_check = _runtime_health_check(simulator, status)
    server = _start_plane(
        args.bind, args.port_file, metrics, status, bus,
        health_check, ready_check, ledger_path=args.ledger,
    )
    print(
        f"simulating {args.workload!r} on {simulator.backend.name} "
        f"({network.n_neurons:,} neurons, {args.steps:,} steps) — "
        f"watch with: repro top {server.url}"
    )
    try:
        simulator.run(
            args.steps,
            hooks=[ServeHook(status, bus, metrics=metrics)],
            metrics=metrics,
        )
    except KeyboardInterrupt:
        print("\nrun interrupted")
        server.stop()
        return 130
    _linger_plane(server, bus, args.linger)
    return 0


def _cmd_top(args) -> int:
    from repro.observability.top import run_top

    url = args.url if "://" in args.url else "http://" + args.url
    return run_top(
        url,
        interval=args.interval,
        iterations=1 if args.once else None,
        clear=not args.no_clear,
    )


def _cmd_bench(args) -> int:
    import time

    from repro.observability import bench
    from repro.observability.log import new_run_id

    if args.plasticity:
        return _bench_plasticity(args, bench)
    workloads = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads
        else list(bench.engine_seed_baselines(args.engine_baseline))
        or ["Brunel", "Izhikevich"]
    )
    steps, scale, reps = args.steps, args.scale, args.reps
    if args.quick:
        steps, scale, reps = min(steps, 120), min(scale, 0.05), min(reps, 2)
    run_id = new_run_id()
    print(f"run ID: {run_id}")
    print(
        f"benchmarking {len(workloads)} workload(s) on {args.backend!r}: "
        f"{steps} steps at scale {scale:g}, median of {reps}"
    )
    wall_start = time.monotonic()
    record = bench.make_record(
        workloads, backend=args.backend, steps=steps, scale=scale,
        seed=args.seed, reps=reps, progress=print, run_id=run_id,
    )
    wall_seconds = time.monotonic() - wall_start
    history = bench.load_history(args.history)
    exit_code = 0
    if args.compare:
        engine_seed = (
            None
            if args.no_engine_seed
            else bench.engine_seed_baselines(args.engine_baseline, scale)
        )
        ok, lines = bench.compare_record(
            record, history, threshold=args.threshold, engine_seed=engine_seed
        )
        print()
        for line in lines:
            print(line)
        if not ok:
            print(
                f"\nFAIL: throughput regressed more than "
                f"{100 * args.threshold:.0f}% against the best prior record"
            )
            exit_code = 1
    if not args.no_append:
        bench.append_history(args.history, record)
        print(f"\nappended record to {args.history!r}")
    from repro.provenance import make_entry

    _append_ledger(args, make_entry(
        "bench",
        run_id,
        {
            "workloads": workloads,
            "backend": args.backend,
            "steps": steps,
            "scale": scale,
            "seed": args.seed,
            "reps": reps,
        },
        workload=",".join(workloads),
        backend=args.backend,
        steps=steps,
        scale=scale,
        seed=args.seed,
        outcome="regressed" if exit_code else "completed",
        duration=wall_seconds,
        metrics={
            "steps_per_sec": {
                name: entry["steps_per_sec"]
                for name, entry in record["workloads"].items()
            },
        },
        artifacts={"history": None if args.no_append else args.history},
    ))
    return exit_code


def _bench_plasticity(args, bench) -> int:
    """``repro bench --plasticity``: lazy-STDP overhead and pinning.

    Fails (exit 1) when the lazy and dense spike digests diverge on any
    workload — they share the same analytic event arithmetic, so any
    difference is a bug — or when the lazy path deferred zero trace
    updates (the laziness it exists for did not happen).
    """
    workloads = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads
        else list(bench.DEFAULT_PLASTICITY_WORKLOADS)
    )
    steps, scale, reps = min(args.steps, 300), args.scale, args.reps
    if args.quick:
        # still 300 steps: fewer and the small-scale networks are
        # silent for the whole run, which would make the digest pin
        # vacuous; a single rep is where the time actually goes
        steps, scale, reps = min(steps, 300), min(scale, 0.05), 1
    from repro.observability.log import new_run_id

    run_id = new_run_id()
    print(f"run ID: {run_id}")
    print(
        f"plasticity bench on {len(workloads)} workload(s): {steps} steps "
        f"at scale {scale:g}, off vs lazy vs dense STDP"
    )
    record = bench.make_plasticity_record(
        workloads, steps=steps, scale=scale,
        seed=args.seed, reps=reps, progress=print, run_id=run_id,
    )
    exit_code = 0
    for name, entry in record["plasticity"].items():
        if not entry["digest_match"]:
            print(
                f"FAIL: {name}: lazy and dense STDP spike digests differ "
                f"({entry['modes']['lazy']['digest'][:16]}… vs "
                f"{entry['modes']['eager']['digest'][:16]}…)"
            )
            exit_code = 1
        if entry["modes"]["lazy"]["deferred_updates"] <= 0:
            print(f"FAIL: {name}: lazy STDP deferred no trace updates")
            exit_code = 1
    if not args.no_append:
        bench.append_history(args.history, record)
        print(f"\nappended plasticity record to {args.history!r}")
    from repro.provenance import make_entry

    _append_ledger(args, make_entry(
        "bench",
        run_id,
        {
            "kind": "plasticity",
            "workloads": workloads,
            "steps": steps,
            "scale": scale,
            "seed": args.seed,
            "reps": reps,
        },
        workload=",".join(workloads),
        backend="reference",
        steps=steps,
        scale=scale,
        seed=args.seed,
        outcome="failed" if exit_code else "completed",
        metrics={
            "digest_match": {
                name: entry["digest_match"]
                for name, entry in record["plasticity"].items()
            },
        },
        artifacts={"history": None if args.no_append else args.history},
        extra={"bench_kind": "plasticity"},
    ))
    return exit_code


def _cmd_runs(args) -> int:
    """``repro runs``: query the run-provenance ledger."""
    import json

    from repro.provenance import (
        diff_entries,
        find_entry,
        load_ledger,
        runs_document,
    )

    entries = load_ledger(args.ledger)

    if args.action == "list":
        if args.kind:
            entries = [e for e in entries if e.get("kind") == args.kind]
        if args.workload:
            entries = [
                e for e in entries
                if args.workload in str(e.get("workload") or "")
            ]
        if args.json:
            ordered = sorted(
                entries,
                key=lambda e: float(e.get("ts", 0.0)),
                reverse=True,
            )
            for entry in ordered[: args.limit]:
                print(json.dumps(entry, sort_keys=True))
            return 0
        document = runs_document(entries, limit=args.limit)
        if not document["runs"]:
            print(f"no matching runs in {args.ledger!r}")
            return 0
        from repro.experiments.common import format_table

        rows = [
            (
                row["run_id"],
                row["timestamp"],
                row["kind"],
                row["workload"],
                row["backend"] or "-",
                row["steps"],
                row["outcome"],
                row["spike_digest"] or "-",
            )
            for row in document["runs"]
        ]
        print(
            format_table(
                [
                    "Run", "When", "Kind", "Workload", "Backend",
                    "Steps", "Outcome", "Spike digest",
                ],
                rows,
            )
        )
        shown = len(document["runs"])
        print(
            f"\n{shown} of {document['n_runs']} run(s) in {args.ledger!r}"
            + ("" if shown == document["n_runs"] else " (raise --limit)")
        )
        return 0

    if args.action == "show":
        entry = find_entry(entries, args.run_id)
        shown = dict(entry)
        # Entries written by older versions may carry bulky inline span
        # rings; summarise them rather than flood the terminal.
        rings = shown.get("trace_rings")
        if isinstance(rings, list):
            shown["trace_rings"] = f"<{len(rings)} ring(s) omitted>"
        print(json.dumps(shown, indent=2))
        return 0

    # args.action == "diff"
    a = find_entry(entries, args.run_a)
    b = find_entry(entries, args.run_b)
    print(f"a: {a['run_id']}  ({a.get('timestamp')})")
    print(f"b: {b['run_id']}  ({b.get('timestamp')})")
    differences = diff_entries(a, b)
    if not differences:
        print("entries are identical across all compared fields")
    for field, left, right in differences:
        print(f"  {field:14s} {left!r:>34}  ->  {right!r}")
    digest_a, digest_b = a.get("spike_digest"), b.get("spike_digest")
    if digest_a and digest_b:
        if digest_a != digest_b:
            print(
                "\nSPIKE DIGEST DIVERGENCE: the two runs produced "
                "different spike trains"
            )
            return 1
        print("\nspike digests match: bit-identical spike trains")
    else:
        print("\nspike digest not recorded for both runs; not compared")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flexon (ISCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the Table I workloads")
    sub.add_parser("models", help="list supported neuron models")

    microcode = sub.add_parser(
        "microcode", help="print a model's folded-Flexon microprogram"
    )
    microcode.add_argument("model")
    microcode.add_argument("--dt", type=float, default=DT)

    run = sub.add_parser("run", help="simulate one Table I workload")
    run.add_argument("workload")
    run.add_argument(
        "--backend",
        choices=("reference", "flexon", "folded"),
        default="folded",
    )
    run.add_argument("--solver", default=None, help="reference solver override")
    run.add_argument("--scale", type=float, default=0.05)
    run.add_argument("--steps", type=int, default=1000)
    run.add_argument("--dt", type=float, default=DT)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="write a restorable checkpoint every N steps (0 = off)",
    )
    run.add_argument(
        "--checkpoint-path",
        default="repro-checkpoint.pkl",
        help="file the periodic checkpoint is (atomically) written to",
    )
    run.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help="resume bit-identically from a checkpoint file; --steps "
        "is the total step count including the checkpointed prefix",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a chrome://tracing / Perfetto trace of the run",
    )
    run.add_argument(
        "--trace-max-events",
        type=int,
        default=None,
        metavar="N",
        help="trace ring-buffer capacity (default: TraceHook's bound)",
    )
    run.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="dump phase stats, counters, diagnostics and metrics as JSON",
    )
    run.add_argument(
        "--prometheus",
        default=None,
        metavar="PATH",
        help="write run metrics in Prometheus text exposition format",
    )
    _add_serve_flags(run)
    _add_alert_flags(run)
    _add_ledger_flags(run)

    sweep = sub.add_parser(
        "sweep",
        help="run workloads as supervised, process-isolated jobs with "
        "deadlines, retries, and checkpoint-based crash recovery",
    )
    sweep.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="Table I workload names (default: the full registry)",
    )
    sweep.add_argument(
        "--backend",
        choices=("reference", "solver", "flexon", "folded"),
        default="reference",
    )
    sweep.add_argument(
        "--solver", default=None, help="reference solver override"
    )
    sweep.add_argument("--scale", type=float, default=0.05)
    sweep.add_argument("--steps", type=int, default=400)
    sweep.add_argument("--dt", type=float, default=DT)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="jobs supervised concurrently (each job retries serially)",
    )
    sweep.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per job after the first attempt",
    )
    sweep.add_argument(
        "--backoff-base",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base delay of the exponential retry backoff",
    )
    sweep.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-job wall-clock deadline before the watchdog kills it",
    )
    sweep.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="kill a worker whose progress heartbeats stall this long",
    )
    sweep.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="wall-clock interval between worker progress heartbeats",
    )
    sweep.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="watchdog poll cadence on the worker pipe",
    )
    sweep.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        metavar="N",
        help="worker checkpoint interval in steps (0 disables recovery)",
    )
    sweep.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="keep job checkpoints here (default: a temp dir per sweep)",
    )
    sweep.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the structured sweep report (repro-sweep/1) as JSON",
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write worker-lifetime spans as a Perfetto-loadable trace",
    )
    sweep.add_argument(
        "--chaos-kill-at",
        type=int,
        default=None,
        metavar="STEP",
        help="inject a worker SIGKILL at STEP on each job's first "
        "attempt (exercises the kill/resume path; used by CI)",
    )
    sweep.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="write the merged supervisor+worker structured log stream "
        "(repro-log/1) as JSON",
    )
    _add_serve_flags(sweep)
    _add_alert_flags(sweep)
    _add_ledger_flags(sweep)

    profile = sub.add_parser(
        "profile",
        help="measure per-phase/per-population latency and telemetry "
        "overhead; write BENCH_profile.json",
    )
    profile.add_argument(
        "--workloads",
        default=None,
        metavar="A,B,C",
        help="comma-separated Table I workload names "
        "(default: Brunel, Izhikevich, Nowotny et al.)",
    )
    profile.add_argument(
        "--backend",
        choices=("reference", "flexon", "folded", "event-driven"),
        default="reference",
    )
    profile.add_argument("--steps", type=int, default=240)
    profile.add_argument("--scale", type=float, default=0.1)
    profile.add_argument("--reps", type=int, default=3)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--quick",
        action="store_true",
        help="CI preset: caps steps/scale/reps for a fast smoke profile",
    )
    profile.add_argument(
        "--output",
        default="BENCH_profile.json",
        help="where to write the machine-readable profile",
    )
    profile.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="also save the first workload's instrumented trace",
    )
    _add_ledger_flags(profile)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name",
        choices=(
            "figure3", "figures4to8", "table3", "table5", "figure12",
            "table6", "figure13", "validation", "resilience", "all",
        ),
    )
    experiment.add_argument("--scale", type=float, default=0.03)
    experiment.add_argument("--steps", type=int, default=400)

    simulate = sub.add_parser(
        "simulate", help="run a declarative front-end spec (JSON)"
    )
    simulate.add_argument("spec", help="path to a JSON network spec")
    simulate.add_argument("--steps", type=int, default=1000)

    sub.add_parser("example-spec", help="print a ready-to-run JSON spec")

    serve = sub.add_parser(
        "serve",
        help="run a workload with the live observability plane attached "
        "and keep serving until interrupted",
    )
    serve.add_argument(
        "workload",
        nargs="?",
        default="Brunel",
        help="Table I workload to simulate (default: Brunel)",
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="SPEC",
        help="PORT, :PORT or HOST:PORT (port 0 = ephemeral; default)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once serving (for scripts)",
    )
    serve.add_argument(
        "--backend",
        choices=("reference", "flexon", "folded"),
        default="reference",
    )
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--steps", type=int, default=5000)
    serve.add_argument("--dt", type=float, default=DT)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--linger",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep serving this long after the run "
        "(default: until Ctrl-C)",
    )
    serve.add_argument(
        "--ledger",
        default=_default_ledger_path(),
        metavar="PATH",
        help="run-provenance ledger served on GET /runs",
    )

    top = sub.add_parser(
        "top", help="live console view of a serving run or sweep"
    )
    top.add_argument(
        "url", help="server address (URL or HOST:PORT) printed by --serve"
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single snapshot and exit (CI/script friendly)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen",
    )

    bench = sub.add_parser(
        "bench",
        help="measure steps/sec per workload, append to "
        "BENCH_history.jsonl, and (--compare) fail on regressions",
    )
    bench.add_argument(
        "--workloads",
        default=None,
        metavar="A,B,C",
        help="comma-separated workload names (default: the workloads "
        "in the committed BENCH_engine.json baseline)",
    )
    bench.add_argument(
        "--backend",
        choices=("reference", "solver", "flexon", "folded"),
        default="reference",
    )
    bench.add_argument("--steps", type=int, default=400)
    bench.add_argument("--scale", type=float, default=0.05)
    bench.add_argument("--seed", type=int, default=5)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI preset: caps steps/scale/reps for a fast smoke bench",
    )
    bench.add_argument(
        "--plasticity",
        action="store_true",
        help="measure lazy-STDP overhead (off vs lazy vs dense) instead "
        "of raw throughput; fails if lazy and dense spike digests "
        "diverge or no trace updates were deferred",
    )
    bench.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="the append-only JSONL throughput history",
    )
    bench.add_argument(
        "--engine-baseline",
        default="BENCH_engine.json",
        metavar="PATH",
        help="committed engine export seeding the comparison baseline",
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="exit non-zero when any workload regressed more than "
        "--threshold vs the best prior record",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="fractional steps/sec loss that fails --compare "
        "(default 0.15)",
    )
    bench.add_argument(
        "--no-engine-seed",
        action="store_true",
        help="compare against history only (e.g. in CI, where the "
        "committed baseline's host is not comparable)",
    )
    bench.add_argument(
        "--no-append",
        action="store_true",
        help="measure and compare without recording to the history",
    )
    _add_ledger_flags(bench)

    runs = sub.add_parser(
        "runs",
        help="query the run-provenance ledger (what ran, with which "
        "config, producing which spike digest)",
    )
    runs.add_argument(
        "--ledger",
        default=_default_ledger_path(),
        metavar="PATH",
        help="the ledger file to query (default: %(default)s)",
    )
    runs_sub = runs.add_subparsers(dest="action", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="list recorded runs, newest first"
    )
    runs_list.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most N runs (default 20)",
    )
    runs_list.add_argument(
        "--kind", default=None,
        choices=("run", "sweep", "bench", "profile"),
        help="only runs of this kind",
    )
    runs_list.add_argument(
        "--workload", default=None, metavar="NAME",
        help="only runs whose workload contains NAME",
    )
    runs_list.add_argument(
        "--json",
        action="store_true",
        help="print one full ledger record per line (newest first) "
        "instead of the summary table — jq/script friendly",
    )
    runs_show = runs_sub.add_parser(
        "show", help="print one run's full ledger entry as JSON"
    )
    runs_show.add_argument(
        "run_id", help="full run id or unique prefix"
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two runs field by field; exits 1 when their "
        "spike digests diverge",
    )
    runs_diff.add_argument("run_a", help="run id or unique prefix")
    runs_diff.add_argument("run_b", help="run id or unique prefix")
    return parser


def _default_ledger_path() -> str:
    """The ledger every ``--ledger`` flag defaults to.

    Read when the parser is built, not when this module is imported,
    so a test can point it elsewhere for the length of one call.
    """
    from repro.provenance import ledger

    return ledger.DEFAULT_LEDGER_PATH


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default=_default_ledger_path(),
        metavar="PATH",
        help="append this invocation's provenance entry here "
        "(query with `repro runs`; default: %(default)s)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this invocation in the run ledger",
    )


def _add_alert_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alerts",
        default=None,
        metavar="SPEC.json",
        help="evaluate these alert rules (repro-alerts/1 JSON) against "
        "the live run: pending -> firing after each rule's for_seconds, "
        "served on GET /alerts and recorded in the ledger entry",
    )


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serve",
        default=None,
        metavar="SPEC",
        help="serve the live observability plane while running: PORT, "
        ":PORT or HOST:PORT (port 0 = ephemeral)",
    )
    parser.add_argument(
        "--serve-port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once serving (for scripts)",
    )
    parser.add_argument(
        "--serve-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the plane serving this long after the work finishes",
    )


_COMMANDS = {
    "workloads": _cmd_workloads,
    "models": _cmd_models,
    "microcode": _cmd_microcode,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "experiment": _cmd_experiment,
    "simulate": _cmd_simulate,
    "example-spec": _cmd_example_spec,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "bench": _cmd_bench,
    "runs": _cmd_runs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not a failure.
        # Detach stdout so interpreter shutdown doesn't warn about the
        # unflushable stream.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
