"""Sim-clock windowed time-series, the run snapshot, and the reporter.

The scale story: fixed memory (ring of closed windows), O(1) per
record, a cardinality guard matching the metrics registry, and a
strictly passive reporter that derives per-NF rates from counter
deltas instead of touching the per-packet hot path.
"""

import json
import warnings

import pytest

from repro.harness import run_move_experiment
from repro.obs import ProgressReporter, TimeSeriesHub, format_top, snapshot_top
from repro.obs.timeseries import TimeSeries


pytestmark = pytest.mark.obs


class TestTimeSeries:
    def test_records_fold_into_aligned_windows(self):
        ts = TimeSeries("evt", {}, window_ms=100.0)
        ts.record(10.0, 2.0)
        ts.record(60.0, 4.0)
        ts.record(150.0, 1.0)  # rolls the [0, 100) window into the ring
        closed = ts.windows(include_open=False)
        assert closed == [(0.0, 2, 6.0, 2.0, 4.0, 4.0)]
        start, count, total, vmin, vmax, last = ts.windows()[-1]
        assert (start, count, total) == (100.0, 1, 1.0)

    def test_min_max_last_track_within_a_window(self):
        ts = TimeSeries("depth", {}, kind="gauge", window_ms=100.0)
        for value in (5.0, 1.0, 9.0, 3.0):
            ts.record(40.0, value)
        _start, count, total, vmin, vmax, last = ts.latest()
        assert (count, total, vmin, vmax, last) == (4, 18.0, 1.0, 9.0, 3.0)

    def test_ring_is_bounded(self):
        ts = TimeSeries("evt", {}, window_ms=10.0, max_windows=3)
        for index in range(10):
            ts.record(index * 10.0)
        closed = ts.windows(include_open=False)
        assert len(closed) == 3
        # Oldest evicted first: only the most recent closed windows stay.
        assert [window[0] for window in closed] == [60.0, 70.0, 80.0]

    def test_rate_and_last_value(self):
        ts = TimeSeries("evt", {}, window_ms=200.0)
        assert ts.rate_per_s() == 0.0
        assert ts.last_value() is None
        ts.record(0.0)
        ts.record(1.0)
        assert ts.rate_per_s() == pytest.approx(2 / 0.2)
        assert ts.last_value() == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries("x", {}, kind="histogram")
        with pytest.raises(ValueError):
            TimeSeries("x", {}, window_ms=0.0)


class TestTimeSeriesHub:
    def test_series_identity_per_name_and_labels(self):
        hub = TimeSeriesHub()
        a = hub.series("evt", shard="0")
        assert hub.series("evt", shard="0") is a
        assert hub.series("evt", shard="1") is not a

    def test_cardinality_guard_collapses_overflow(self):
        hub = TimeSeriesHub(max_series=2)
        hub.series("evt", shard="0")
        hub.series("evt", shard="1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            overflow = hub.series("evt", shard="2")
            again = hub.series("evt", shard="3")
        assert overflow is again
        assert overflow.labels == {"overflow": "other"}
        assert hub.series_overflowed == 2
        # One warning only, however many label sets overflow.
        assert len([w for w in caught
                    if issubclass(w.category, RuntimeWarning)]) == 1

    def test_snapshot_and_jsonl_roundtrip(self, tmp_path):
        hub = TimeSeriesHub(window_ms=100.0)
        hub.inc("evt", shard="0")
        hub.gauge("depth", 7.0, shard="0")
        entries = hub.snapshot()
        assert {entry["name"] for entry in entries} == {"evt", "depth"}
        path = tmp_path / "ts.jsonl"
        written = hub.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert written == len(lines) == len(entries)
        parsed = [json.loads(line) for line in lines]
        assert all(entry["type"] == "timeseries" for entry in parsed)

    def test_render_prometheus_shapes(self):
        hub = TimeSeriesHub(window_ms=100.0)
        hub.inc("ctrl.events", shard="0")
        hub.gauge("inbox.depth", 3.0, shard="0")
        text = hub.render_prometheus()
        assert 'ctrl_events_rate_per_s{shard="0"} 10' in text
        assert 'ctrl_events_total{shard="0"} 1' in text
        assert 'inbox_depth_last{shard="0"} 3' in text
        assert 'inbox_depth_avg{shard="0"} 3' in text


class TestSnapshotTopAndReporter:
    def _run(self, **kwargs):
        frames = []
        reporters = []

        def on_deployment(dep):
            reporter = ProgressReporter(
                dep, interval_ms=25.0, sink=frames.append
            )
            reporters.append(reporter.start())
            assert reporter.start() is reporter  # idempotent re-arm

        result = run_move_experiment(
            "lf", n_flows=20, seed=5, timeseries=True, sampling=True,
            on_deployment=on_deployment, **kwargs
        )
        return result, frames, reporters[0]

    def test_snapshot_top_reads_without_mutating(self):
        result, _frames, _reporter = self._run()
        dep = result.deployment
        first = snapshot_top(dep)
        second = snapshot_top(dep)
        assert first == second
        assert first["time_ms"] == dep.sim.now
        assert set(first["nfs"]) == {"inst1", "inst2"}
        assert 0 in first["shards"]
        assert "sampling" in first

    def test_reporter_ticks_derive_rates_and_disarm(self):
        result, frames, reporter = self._run()
        dep = result.deployment
        assert reporter.ticks == len(frames) >= 2
        # Rates come from counter deltas between ticks, and packets
        # flowed to inst1 during the run, so some tick saw a rate.
        rates = [frame["nfs"]["inst1"]["rate_per_s"] for frame in frames]
        assert all(rate >= 0.0 for rate in rates)
        assert any(rate > 0.0 for rate in rates)
        # The same rates land in the hub as a gauge series.
        assert "nf_processed_rate_last" in \
            dep.obs.timeseries.render_prometheus()
        # The reporter disarmed on the tick that found the queue empty
        # (it alone can never keep sim.run() alive), and the run ended.
        assert not reporter._armed
        assert not dep.sim.pending

    def test_format_top_renders_every_section(self):
        _result, frames, _reporter = self._run()
        text = format_top(frames[-1])
        assert text.startswith("t=")
        assert "shard 0:" in text
        assert "nf inst1:" in text
        assert "pkt/s" in text
        assert "sampling:" in text

    def test_reporter_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(None, interval_ms=0.0)
