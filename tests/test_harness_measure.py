"""Tests for the throughput measurements (``repro.harness.measure``)."""

import pytest

from repro.harness import sustained_throughput, throughput_timeline, time_to_reach


class FakeNF:
    def __init__(self, times):
        self.processing_log = [(t, i) for i, t in enumerate(times)]


class TestThroughputTimeline:
    def test_empty_log(self):
        assert throughput_timeline([FakeNF([])]) == []

    def test_counts_per_bucket(self):
        nf = FakeNF([10.0, 20.0, 30.0, 60.0])
        timeline = throughput_timeline([nf], bucket_ms=50.0)
        # bucket 0: 3 packets in 50 ms -> 60 pps; bucket 1: 1 -> 20 pps.
        assert timeline[0] == (0.0, 60.0)
        assert timeline[1] == (50.0, 20.0)

    def test_merges_multiple_nfs(self):
        a = FakeNF([10.0, 20.0])
        b = FakeNF([30.0, 40.0])
        timeline = throughput_timeline([a, b], bucket_ms=50.0)
        assert timeline[0] == (0.0, 80.0)

    def test_until_extends_horizon(self):
        nf = FakeNF([10.0])
        timeline = throughput_timeline([nf], bucket_ms=50.0, until=200.0)
        assert len(timeline) == 5
        assert timeline[-1][1] == 0.0


class TestSustainedThroughput:
    def test_window_average(self):
        timeline = [(0.0, 100.0), (50.0, 200.0), (100.0, 300.0)]
        assert sustained_throughput(timeline, 0.0, 100.0) == 150.0
        assert sustained_throughput(timeline, 50.0) == 250.0

    def test_empty_window(self):
        assert sustained_throughput([], 0.0) == 0.0


class TestTimeToReach:
    def test_finds_sustained_run(self):
        timeline = [(0.0, 10.0), (50.0, 90.0), (100.0, 95.0), (150.0, 96.0)]
        t = time_to_reach(timeline, 90.0, sustain_buckets=2)
        assert t == 50.0

    def test_single_spike_not_sustained(self):
        timeline = [(0.0, 10.0), (50.0, 95.0), (100.0, 10.0), (150.0, 10.0)]
        assert time_to_reach(timeline, 90.0, sustain_buckets=2) is None

    def test_after_ms_skips_early_run(self):
        timeline = [(0.0, 95.0), (50.0, 95.0), (100.0, 10.0),
                    (150.0, 95.0), (200.0, 95.0)]
        t = time_to_reach(timeline, 90.0, after_ms=100.0, sustain_buckets=2)
        assert t == 150.0
