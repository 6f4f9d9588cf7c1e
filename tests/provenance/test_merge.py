"""Process rings: clock-offset math and span-dump adoption."""

import pytest

from repro.provenance import (
    ProcessRing,
    SpanRecorder,
    TraceContext,
    estimate_offset,
)


class TestEstimateOffset:
    def test_no_samples_means_zero(self):
        assert estimate_offset([]) == 0.0

    def test_single_sample_lower_bound(self):
        # worker clock 5s ahead, 0.1s latency: s - r = 5 - 0.1
        assert estimate_offset([(105.0, 100.1)]) == pytest.approx(4.9)

    def test_max_over_samples_tightens_the_bound(self):
        # the smallest-latency sample gives the tightest lower bound
        samples = [(105.0, 100.5), (106.0, 101.05), (107.0, 102.3)]
        assert estimate_offset(samples) == 106.0 - 101.05

    def test_negative_offset(self):
        assert estimate_offset([(99.0, 100.0)]) == -1.0


class TestProcessRing:
    def test_from_dump_uses_context_label(self):
        recorder = SpanRecorder(TraceContext(run_id="r", job_id="Brunel"))
        recorder.record("w", "window", 1.0, 0.5)
        ring = ProcessRing.from_dump(recorder.dump(), offset=0.125)
        assert ring.label == "worker:Brunel#a0"
        assert ring.offset == 0.125
        assert len(ring.spans) == 1
