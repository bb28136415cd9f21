"""Tests for the paper-sketched extensions: compression and P2P transfer."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import (
    LOCAL_NET_FILTER,
    build_multi_instance_deployment,
    check_loss_free,
    run_move_experiment,
)
from repro.nf import NFClient, Scope, StateChunk
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator
from tests.conftest import make_packet


class TestChunkCompression:
    def test_compressed_size_smaller_for_redundant_state(self):
        chunk = StateChunk(Scope.PERFLOW, None, {"blob": "a" * 2000})
        assert chunk.compressed_size_bytes < chunk.size_bytes

    def test_preset_large_sizes_use_paper_ratio(self):
        chunk = StateChunk(Scope.MULTIFLOW, None, {"url": "/x"},
                           size_bytes=1_000_000)
        assert chunk.compressed_size_bytes == 620_000

    def test_wire_size_follows_flag(self):
        chunk = StateChunk(Scope.PERFLOW, None, {"blob": "b" * 2000})
        assert chunk.wire_size_bytes == chunk.size_bytes
        chunk.compressed = True
        assert chunk.wire_size_bytes == chunk.compressed_size_bytes

    def test_get_with_compress_marks_chunks(self, sim, flow):
        nf = AssetMonitor(sim, "mon")
        nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        client = NFClient(sim, nf)
        done = client.get_perflow(Filter.wildcard(), compress=True)
        sim.run()
        assert all(chunk.compressed for chunk in done.value)

    def test_compressed_move_is_loss_free_and_smaller_on_wire(self):
        result = run_move_experiment(
            n_flows=60,
            operation=lambda dep: dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf",
                compress=True,
            ),
        )
        assert result.loss_free, result.loss_free_detail
        assert result.report.total_wire_bytes < result.report.total_bytes
        assert result.deployment.nfs["inst2"].conn_count() == 60

    def test_compression_costs_cpu_time(self, sim, flow):
        plain_nf = AssetMonitor(sim, "plain")
        squeeze_nf = AssetMonitor(sim, "squeeze")
        for nf in (plain_nf, squeeze_nf):
            nf.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        start = sim.now
        plain = plain_nf.sb_get(Scope.PERFLOW, Filter.wildcard())
        sim.run()
        plain_elapsed = sim.now - start
        start = sim.now
        squeezed = squeeze_nf.sb_get(Scope.PERFLOW, Filter.wildcard(),
                                     compress=True)
        sim.run()
        squeezed_elapsed = sim.now - start
        assert squeezed_elapsed > plain_elapsed


class TestPeerToPeerTransfer:
    def test_requires_streaming(self, two_monitor_deployment):
        dep, _src, _dst = two_monitor_deployment
        with pytest.raises(ValueError):
            dep.controller.move(
                "prads1", "prads2", Filter.wildcard(),
                parallel=False, peer_to_peer=True,
            )

    def test_p2p_move_is_loss_free(self):
        result = run_move_experiment(
            n_flows=60,
            operation=lambda dep: dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf",
                peer_to_peer=True,
            ),
        )
        assert result.loss_free, result.loss_free_detail
        assert result.deployment.nfs["inst2"].conn_count() == 60
        assert result.report.total_chunks == 60

    def test_p2p_bypasses_controller_inbox(self):
        relayed = run_move_experiment(n_flows=80, guarantee="lf")
        p2p = run_move_experiment(
            n_flows=80,
            operation=lambda dep: dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf",
                peer_to_peer=True,
            ),
        )
        relayed_handled, p2p_handled = (
            result.deployment.controller.replicas[0].inbox.items_handled
            for result in (relayed, p2p)
        )
        # The relayed move pushes every chunk through the inbox; P2P only
        # the events.
        assert p2p_handled < relayed_handled

    def test_p2p_with_early_release(self):
        result = run_move_experiment(
            n_flows=80, rate_pps=4000.0,
            operation=lambda dep: dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf",
                peer_to_peer=True, early_release=True,
            ),
        )
        assert result.loss_free, result.loss_free_detail
        # Early release worked: fewer evented packets than the op window
        # would otherwise accumulate at this rate.
        plain = run_move_experiment(n_flows=80, rate_pps=4000.0,
                                    guarantee="lf")
        assert (result.report.packets_in_events
                < plain.report.packets_in_events)

    def test_p2p_compressed_combination(self):
        result = run_move_experiment(
            n_flows=40,
            operation=lambda dep: dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf",
                peer_to_peer=True, compress=True,
            ),
        )
        assert result.loss_free
        assert result.report.total_wire_bytes < result.report.total_bytes


class TestChannelModel:
    def test_bandwidth_is_shared_across_messages(self, sim):
        from repro.net.channel import ControlChannel

        channel = ControlChannel(sim, latency_ms=1.0,
                                 bandwidth_bytes_per_ms=100.0)
        arrivals = []
        # Three 200-byte messages sent back-to-back: transmissions must
        # serialize (2 ms each), not overlap.
        for _ in range(3):
            channel.send(200, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [3.0, 5.0, 7.0]

    def test_idle_channel_recovers(self, sim):
        from repro.net.channel import ControlChannel

        channel = ControlChannel(sim, latency_ms=1.0,
                                 bandwidth_bytes_per_ms=100.0)
        seen = []
        channel.send(200, lambda: seen.append(sim.now))
        sim.run()
        channel.send(200, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0, 6.0]  # second message starts fresh at t=3
