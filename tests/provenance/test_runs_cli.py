"""``repro runs``: list/show/diff against a synthetic ledger."""

import json
import time

import pytest

from repro.cli import main
from repro.provenance import (
    LEDGER_SCHEMA,
    append_entry,
    config_digest,
    make_entry,
)

#: A line as older versions wrote it: a ``shards`` count and inline
#: per-process ``trace_rings``, two fields no longer recorded.
LEGACY_CONFIG = {"workload": "Brunel", "seed": 3, "shards": 2}
LEGACY_ENTRY = {
    "schema": LEDGER_SCHEMA,
    "run_id": "run-bbbb33334444",
    "timestamp": "2026-01-01T00:00:01+0000",
    "kind": "run",
    "workload": "Brunel",
    "backend": "reference",
    "shards": 2,
    "steps": 300,
    "scale": 0.05,
    "seed": 3,
    "dt": 1e-4,
    "config_digest": config_digest(LEGACY_CONFIG),
    "config": LEGACY_CONFIG,
    "spike_digest": "a" * 64,
    "outcome": "completed",
    "duration": 3.0,
    "metrics": {},
    "artifacts": {},
    "trace_rings": [
        {
            "label": "coordinator", "pid": 1, "offset": 0.0,
            "spans": [
                {"name": "barrier e0", "cat": "barrier", "ts": 1.0,
                 "dur": 0.1, "flow_in": [0]},
            ],
            "dropped": 0,
        },
        {
            "label": "shard0#a0", "pid": 2, "offset": 0.5,
            "spans": [
                {"name": "window e0", "cat": "window", "ts": 1.2,
                 "dur": 0.3, "flow_out": [0]},
            ],
            "dropped": 0,
        },
    ],
}


@pytest.fixture()
def ledger(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    append_entry(path, make_entry(
        "run", "run-aaaa11112222",
        {"workload": "Brunel", "seed": 3},
        workload="Brunel", backend="reference", steps=300,
        scale=0.05, seed=3, dt=1e-4, spike_digest="a" * 64,
        outcome="completed", duration=2.0,
    ))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(dict(LEGACY_ENTRY, ts=time.time())) + "\n")
    append_entry(path, make_entry(
        "run", "run-cccc55556666",
        {"workload": "Brunel", "seed": 99},
        workload="Brunel", backend="reference", steps=300,
        scale=0.05, seed=99, dt=1e-4, spike_digest="c" * 64,
        outcome="completed", duration=2.0,
    ))
    return path


class TestList:
    def test_lists_all_runs(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "list"]) == 0
        out = capsys.readouterr().out
        assert "run-aaaa11112222" in out
        assert "run-bbbb33334444" in out
        assert "3 of 3 run(s)" in out

    def test_kind_filter(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "list", "--kind", "sweep"]
        ) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_empty_ledger(self, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        assert main(["runs", "--ledger", path, "list"]) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_json_emits_one_entry_per_line_newest_first(
        self, ledger, capsys
    ):
        assert main(["runs", "--ledger", ledger, "list", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [e["run_id"] for e in entries] == [
            "run-cccc55556666", "run-bbbb33334444", "run-aaaa11112222",
        ]
        # Full machine-readable entries, not the table's summary rows.
        assert entries[0]["spike_digest"] == "c" * 64

    def test_json_respects_limit_and_kind_filter(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "list", "--json", "--limit", "1"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert main(
            ["runs", "--ledger", ledger, "list", "--json",
             "--kind", "sweep"]
        ) == 0
        assert capsys.readouterr().out.strip() == ""


class TestShow:
    def test_show_by_prefix_prints_entry_json(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "show", "run-aaaa"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["run_id"] == "run-aaaa11112222"
        assert entry["spike_digest"] == "a" * 64

    def test_unknown_id_exits_2(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "show", "run-zz"]) == 2
        assert "no ledger entry" in capsys.readouterr().err


class TestDiff:
    def test_matching_digests_exit_0(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "diff", "run-aaaa", "run-bbbb"]
        ) == 0
        out = capsys.readouterr().out
        assert "spike digests match" in out
        assert "config_digest" in out  # benign difference still listed

    def test_digest_divergence_exits_1(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "diff", "run-aaaa", "run-cccc"]
        ) == 1
        assert "SPIKE DIGEST DIVERGENCE" in capsys.readouterr().out

    def test_ambiguous_prefix_exits_2(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "diff", "run", "run-aaaa"]
        ) == 2
        assert "ambiguous" in capsys.readouterr().err


class TestLegacyEntries:
    def test_old_entry_lists_shows_and_diffs(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "list"]) == 0
        assert "run-bbbb33334444" in capsys.readouterr().out
        assert main(["runs", "--ledger", ledger, "show", "run-bbbb"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["shards"] == 2
        assert entry["trace_rings"] == "<2 ring(s) omitted>"
        assert main(
            ["runs", "--ledger", ledger, "diff", "run-bbbb", "run-cccc"]
        ) == 1
        assert "SPIKE DIGEST DIVERGENCE" in capsys.readouterr().out
