"""The run ledger: ``ledger.jsonl``, schema ``repro-ledger/1``.

Every ``repro run`` / ``sweep`` / ``bench`` / ``profile`` appends one
entry recording what ran and what it produced: the config digest (a
SHA-256 over the canonical JSON of the resolved configuration), seed,
backend, the spike digest that pins bit-identity, the outcome, wall
duration, a metrics snapshot, and the paths of every artifact the
command wrote. The file is append-only through
:func:`repro.io.append_jsonl` (``O_APPEND`` + ``flock`` + single
write), so concurrent commands interleave whole lines, and loads are
torn-line-tolerant like ``BENCH_history.jsonl`` — a crash mid-append
costs at most the final line.

Entries are open records: readers use ``.get`` for every field and
ignore keys they do not know, so lines written by older versions (for
example with a ``shards`` count or inline ``trace_rings``) still load,
list, show and diff.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.io import append_jsonl, load_jsonl

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "DIFF_FIELDS",
    "LEDGER_SCHEMA",
    "append_entry",
    "config_digest",
    "diff_entries",
    "find_entry",
    "load_ledger",
    "make_entry",
    "runs_document",
    "summarize_entry",
]

LEDGER_SCHEMA = "repro-ledger/1"

#: Default ledger location, relative to the working directory (the
#: same convention as ``BENCH_history.jsonl``).
DEFAULT_LEDGER_PATH = "ledger.jsonl"

#: Fields ``repro runs diff`` compares, in report order.
DIFF_FIELDS = (
    "kind",
    "workload",
    "backend",
    "steps",
    "scale",
    "seed",
    "dt",
    "config_digest",
    "spike_digest",
    "outcome",
)


def config_digest(config: dict) -> str:
    """SHA-256 over the canonical JSON of a resolved configuration.

    Canonical = sorted keys, no whitespace variance — so two runs with
    the same effective configuration digest identically regardless of
    argument order or dict construction history.
    """
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_entry(
    kind: str,
    run_id: str,
    config: dict,
    *,
    workload: Optional[str] = None,
    backend: Optional[str] = None,
    steps: int = 0,
    scale: float = 0.0,
    seed: int = 0,
    dt: float = 0.0,
    spike_digest: Optional[str] = None,
    outcome: str = "completed",
    duration: float = 0.0,
    metrics: Optional[dict] = None,
    artifacts: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Build one ledger entry (pure; append with :func:`append_entry`)."""
    entry = {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id,
        "ts": time.time(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "kind": kind,
        "workload": workload,
        "backend": backend,
        "steps": int(steps),
        "scale": float(scale),
        "seed": int(seed),
        "dt": float(dt),
        "config_digest": config_digest(config),
        "config": config,
        "spike_digest": spike_digest,
        "outcome": outcome,
        "duration": float(duration),
        "metrics": metrics or {},
        "artifacts": {
            key: value
            for key, value in (artifacts or {}).items()
            if value
        },
    }
    if extra:
        entry.update(extra)
    return entry


def append_entry(path: str, entry: dict) -> None:
    """Append one entry to the ledger (concurrency-safe, atomic line)."""
    append_jsonl(path, entry)


def load_ledger(path: str) -> List[dict]:
    """Load a ledger, skipping torn lines and foreign schemas."""
    return load_jsonl(path, schema=LEDGER_SCHEMA)


def find_entry(entries: Iterable[dict], run_id: str) -> dict:
    """Resolve ``run_id`` (full id or unique prefix) to one entry.

    A repeated run id (e.g. a sweep and its jobs sharing one id) is
    resolved to the *latest* matching entry; an ambiguous prefix
    matching different ids is an error listing the candidates.
    """
    exact = [e for e in entries if e.get("run_id") == run_id]
    if exact:
        return exact[-1]
    matches = [
        e for e in entries if str(e.get("run_id", "")).startswith(run_id)
    ]
    distinct = sorted({str(e.get("run_id")) for e in matches})
    if len(distinct) > 1:
        raise ReproError(
            f"run id prefix {run_id!r} is ambiguous: "
            + ", ".join(distinct)
        )
    if not matches:
        raise ReproError(f"no ledger entry matches run id {run_id!r}")
    return matches[-1]


def diff_entries(a: dict, b: dict) -> List[Tuple[str, object, object]]:
    """Field-by-field differences between two entries.

    Returns ``(field, a_value, b_value)`` tuples for every
    :data:`DIFF_FIELDS` member that differs — the caller decides which
    differences are benign (backend, duration) and which are alarming
    (``spike_digest`` with matching config).
    """
    differences = []
    for field in DIFF_FIELDS:
        left, right = a.get(field), b.get(field)
        if left != right:
            differences.append((field, left, right))
    return differences


def summarize_entry(entry: dict) -> dict:
    """Compact row for ``repro runs list`` and ``GET /runs``."""
    digest = entry.get("spike_digest")
    return {
        "run_id": entry.get("run_id"),
        "timestamp": entry.get("timestamp"),
        "kind": entry.get("kind"),
        "workload": entry.get("workload"),
        "backend": entry.get("backend"),
        "steps": entry.get("steps"),
        "seed": entry.get("seed"),
        "outcome": entry.get("outcome"),
        "duration": entry.get("duration"),
        "config_digest": (entry.get("config_digest") or "")[:12] or None,
        "spike_digest": (digest or "")[:12] or None,
    }


def runs_document(
    entries: Sequence[dict], limit: Optional[int] = None
) -> dict:
    """The ``GET /runs`` payload: newest first, summaries only."""
    ordered = sorted(
        entries, key=lambda e: float(e.get("ts", 0.0)), reverse=True
    )
    if limit is not None:
        ordered = ordered[:limit]
    return {
        "schema": LEDGER_SCHEMA,
        "n_runs": len(entries),
        "runs": [summarize_entry(entry) for entry in ordered],
    }
