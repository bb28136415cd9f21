"""Determinism: identical seeds must yield bit-identical experiment runs.

The whole reproducibility story rests on this — every race in the
simulator is deterministic given the seed, so a failing property test
can always be replayed.
"""

import pytest

from repro.harness import run_move_experiment
from repro.net.packet import reset_uid_counter
from repro.obs import ProgressReporter


def snapshot(result):
    dep = result.deployment
    return {
        "duration": result.report.duration_ms,
        "phases": dict(result.report.phases),
        "dropped": result.report.packets_dropped,
        "evented": result.report.packets_in_events,
        "affected": sorted(result.report.affected_uids),
        "logs": {
            name: list(nf.processing_log) for name, nf in dep.nfs.items()
        },
        "forward_log": list(dep.switch.forward_log),
        "latency": sorted(result.latency.samples),
    }


class TestDeterminism:
    @pytest.mark.parametrize("guarantee", ["ng", "lf", "op"])
    def test_same_seed_same_world(self, guarantee):
        reset_uid_counter()
        first = snapshot(run_move_experiment(guarantee, n_flows=40, seed=5))
        reset_uid_counter()
        second = snapshot(run_move_experiment(guarantee, n_flows=40, seed=5))
        assert first == second

    def test_different_seed_different_trace(self):
        reset_uid_counter()
        first = snapshot(run_move_experiment("lf", n_flows=40, seed=5))
        reset_uid_counter()
        second = snapshot(run_move_experiment("lf", n_flows=40, seed=6))
        assert first["logs"] != second["logs"]


@pytest.mark.obs
class TestObservedDeterminism:
    """Observation must be deterministic — and must not perturb the run."""

    def _observed_snapshot(self, **kwargs):
        reset_uid_counter()
        result = run_move_experiment(observe=True, **kwargs)
        obs = result.deployment.obs
        return {
            "spans": [span.to_dict() for span in obs.exporter.spans],
            "records": list(obs.exporter.records),
            "metrics": obs.metrics.snapshot(),
            "phases": dict(result.report.phases),
        }

    @pytest.mark.parametrize("guarantee", ["lf", "op"])
    def test_same_seed_same_trace(self, guarantee):
        first = self._observed_snapshot(guarantee=guarantee, n_flows=40,
                                        seed=5)
        second = self._observed_snapshot(guarantee=guarantee, n_flows=40,
                                         seed=5)
        assert first == second

    def test_observation_does_not_perturb_the_world(self):
        """Tracing only records; the simulated timeline is untouched."""
        reset_uid_counter()
        plain = snapshot(run_move_experiment("op", n_flows=40, seed=5))
        reset_uid_counter()
        seen = snapshot(
            run_move_experiment("op", n_flows=40, seed=5, observe=True)
        )
        assert plain == seen


@pytest.mark.obs
class TestTelemetryDeterminism:
    """Full telemetry (the top view's frames + the stored trace) is passive.

    The scale-ready claim rests on this: a progress reporter ticking
    every 25 ms, the full trace and the bounded histograms left on
    must leave the operation timeline byte-identical to a bare run — on
    a single controller, on a sharded control plane, and with the
    data-plane offload engaged.
    """

    @staticmethod
    def _telemetered(**extra):
        frames = []

        def on_deployment(dep):
            ProgressReporter(dep, interval_ms=25.0, sink=frames.append).start()

        reset_uid_counter()
        result = run_move_experiment("lf", n_flows=40, seed=5, observe=True,
                                     on_deployment=on_deployment, **extra)
        return result, frames

    @pytest.mark.parametrize("extra", [
        {},
        {"shards": 2},
        {"offload": True},
    ], ids=["single", "shards2", "offload"])
    def test_telemetry_does_not_perturb_the_world(self, extra):
        reset_uid_counter()
        plain = snapshot(
            run_move_experiment("lf", n_flows=40, seed=5, **extra)
        )
        result, frames = self._telemetered(**extra)
        assert len(frames) == 11
        assert plain == snapshot(result)

    def test_same_seed_same_telemetry(self):
        def capture():
            result, frames = self._telemetered()
            obs = result.deployment.obs
            return {
                "frames": frames,
                "prometheus": obs.metrics.render_prometheus(),
                "records": list(obs.exporter.records),
            }

        assert capture() == capture()
