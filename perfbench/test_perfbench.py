"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import dataclasses
import random

import pytest

import cases
import hostspeed
import stats
import tracing
from run import run_episode


def test_p99_needs_ten_samples_beyond_it():
    rng = random.Random(3)
    for n in range(100, 1600, 37):
        samples = [rng.random() for _ in range(n)]
        try:
            value = stats.tail_percentile(samples, 99)
        except ValueError:
            assert n < 1000
            continue
        assert stats.samples_beyond(samples, value) >= stats.MIN_TAIL
        assert n > 900
    with pytest.raises(ValueError):
        stats.tail_percentile([1.0] * 5000, 99)


def test_steps_are_scaled_by_the_probes_around_their_chunk():
    every, ref = hostspeed.PROBE_EVERY, hostspeed.REFERENCE_PROBE_S
    probes = [ref, 3 * ref, 2 * ref]
    steps = range(1, 3 * every)
    scaled = hostspeed.scale([1.0] * len(steps), probes, first_step=1)
    by_step = dict(zip(steps, scaled))
    assert by_step[1] == pytest.approx(1 / 2)  # between ref and 3 ref
    assert by_step[every] == pytest.approx(1 / 2.5)
    assert by_step[3 * every - 1] == pytest.approx(1 / 2)  # last chunk


@pytest.fixture(scope="module")
def folded_default_output():
    case = cases.CASES["microcircuit-folded"]
    observed, host, scaled = run_episode(case, cases.DEFAULT_SEED)
    assert len(host) == len(scaled) == case.steps - 2
    return observed


def test_pinned_output_matches_and_tampered_pin_fails(folded_default_output):
    pinned = cases.load_pins()["microcircuit-folded"]
    assert len(pinned) == cases.CASES["microcircuit-folded"].networks
    tampered = dict(pinned[0], spike_digest="0" * 64)
    check = cases.OutputCheck([pinned[0], tampered])
    assert check.record("episode 0", folded_default_output)
    assert not check.record("episode 1", folded_default_output, network=1)
    assert (check.attempted, check.failed) == (2, 1)
    assert "spike_digest" in check.failures[0]


def test_unpinned_seed_checks_runs_against_each_other(folded_default_output):
    check = cases.OutputCheck()
    assert check.record("episode 0", folded_default_output)
    assert check.record("episode 1", dict(folded_default_output))
    assert not check.record(
        "episode 2", dict(folded_default_output, total_cycles=0)
    )
    other = dict(folded_default_output, spike_digest="1" * 64)
    assert check.record("episode 3", other, network=1)  # its own reference
    check.record_error("episode 4", RuntimeError("boom"))
    assert (check.attempted, check.failed) == (5, 2)


def test_traced_self_times_partition_the_step():
    case = dataclasses.replace(cases.CASES["microcircuit-folded"], steps=40)
    tracer = tracing.Tracer()
    untraced = run_episode(case, cases.HELDOUT_SEED)[0]
    traced = run_episode(case, cases.HELDOUT_SEED, tracer)[0]
    assert traced == untraced
    summary = tracer.summary()
    assert summary["steps"] == case.steps - tracer.first_step
    assert abs(tracing.self_time_gap(summary)) < 1e-6 * summary[
        "simulator.step.busy_us"
    ]
    metrics = tracing.layer_metrics(summary)
    assert metrics["hardware.calls"] == 8
    assert metrics["engine.calls"] == 0
    assert metrics["hardware.cycles"] == traced["total_cycles"] / case.steps
    assert 0 < metrics["stimulus.hit_ratio"] <= 1
