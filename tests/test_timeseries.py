"""The sim-clock series: ``repro top``'s run snapshot and the reporter.

A strictly passive reporter that derives per-NF rates from counter
deltas instead of touching the per-packet hot path.
"""

import pytest

from repro.harness import run_move_experiment
from repro.obs import ProgressReporter, format_top, snapshot_top


pytestmark = pytest.mark.obs


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
            "lf", n_flows=20, seed=5, sampling=True,
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
