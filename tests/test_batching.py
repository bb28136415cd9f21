"""Tests for the batched control-plane transport (§8.3).

Covers the :class:`BatchConfig`/``queue_send`` fast path at the channel
level, the zero-perturbation requirement (batching off must be
bit-identical to the classic transport), batched move correctness and
message reduction, and frame-as-a-unit behavior under injected faults.
"""

import pytest

from repro.faults.plan import Verdict
from repro.flowspace import Filter, FiveTuple
from repro.harness import run_move_experiment
from repro.net.channel import BatchConfig, ControlChannel
from repro.net.packet import Packet, reset_uid_counter
from repro.nf import NFClient
from repro.nfs.monitor import AssetMonitor
from repro.nf.protocol import FRAME_OVERHEAD_BYTES, batch_frame_size
from repro.sim import Simulator

from tests.test_determinism import snapshot


def total_control_messages(dep):
    total = 0
    for client in dep.controller.clients.values():
        total += client.to_nf.messages_sent + client.from_nf.messages_sent
    switch_client = dep.controller.switch_client
    total += switch_client.to_switch.messages_sent
    total += switch_client.from_switch.messages_sent
    return total


class TestBatchConfig:
    def test_defaults_are_enabled(self):
        config = BatchConfig()
        assert config.batch_max_msgs >= 1

    @pytest.mark.parametrize("kwargs", [
        {"batch_max_msgs": 0},
        {"batch_max_bytes": 0},
        {"flush_interval_ms": -1.0},
        {"pipeline_window": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)


class TestChannelBatching:
    def _channel(self, sim, config=None, **kwargs):
        channel = ControlChannel(sim, name="test", **kwargs)
        channel.batching = config
        return channel

    def test_queue_send_without_config_is_send(self, sim):
        batched = self._channel(sim)
        plain = self._channel(sim)
        got = []
        batched.queue_send(200, got.append, "a")
        plain.send(200, got.append, "b")
        sim.run()
        assert got == ["a", "b"]
        assert batched.messages_sent == plain.messages_sent == 1
        assert batched.bytes_sent == plain.bytes_sent
        assert batched.frames_sent == 0

    def test_flush_on_max_msgs(self, sim):
        channel = self._channel(sim, BatchConfig(batch_max_msgs=3))
        got = []
        for index in range(3):
            channel.queue_send(100, got.append, index)
        # The third message tripped the msgs threshold synchronously.
        assert channel.frames_sent == 1
        assert channel.messages_coalesced == 3
        sim.run()
        assert got == [0, 1, 2]
        # One message on the wire, not three.
        assert channel.messages_sent == 1

    def test_flush_on_max_bytes(self, sim):
        channel = self._channel(
            sim, BatchConfig(batch_max_msgs=100, batch_max_bytes=250)
        )
        got = []
        channel.queue_send(100, got.append, "a")
        assert channel.frames_sent == 0
        channel.queue_send(200, got.append, "b")
        assert channel.frames_sent == 1
        sim.run()
        assert got == ["a", "b"]

    def test_interval_flush(self, sim):
        channel = self._channel(
            sim, BatchConfig(batch_max_msgs=100, flush_interval_ms=2.0)
        )
        got = []
        channel.queue_send(100, lambda: got.append(sim.now))
        sim.run()
        assert channel.frames_sent == 1
        # Queued for flush_interval_ms, then transferred.
        assert got[0] >= 2.0

    def test_plain_send_is_an_ordering_barrier(self, sim):
        channel = self._channel(sim, BatchConfig(batch_max_msgs=100))
        order = []
        channel.queue_send(100, order.append, "queued")
        channel.send(100, order.append, "direct")
        # The pending frame was flushed by the plain send...
        assert channel.frames_sent == 1
        sim.run()
        # ...and delivered first: FIFO holds across both paths.
        assert order == ["queued", "direct"]

    def test_frame_smaller_than_sum_of_messages(self, sim):
        config = BatchConfig(batch_max_msgs=4)
        batched = self._channel(sim, config)
        plain = self._channel(sim)
        for index in range(4):
            batched.queue_send(200, lambda: None)
            plain.send(200, lambda: None)
        sim.run()
        assert batched.frames_sent == 1
        assert batched.bytes_sent == batch_frame_size([200] * 4)
        assert batched.bytes_sent < plain.bytes_sent
        # One framing overhead total instead of one per message.
        assert batched.bytes_sent == (
            FRAME_OVERHEAD_BYTES + 4 * ((200 - FRAME_OVERHEAD_BYTES) + 4)
        )

    def test_coalesced_group_delivered_as_one_call(self, sim):
        channel = self._channel(sim, BatchConfig(batch_max_msgs=100))
        calls = []

        def group_handler(items):
            calls.append(list(items))

        for index in range(3):
            channel.queue_send(100, lambda _c: None, index,
                               coalesce=group_handler)
        channel.flush()
        sim.run()
        # One handler invocation with all three payloads, not three.
        assert calls == [[0, 1, 2]]

    def test_coalesce_groups_split_by_interleaved_traffic(self, sim):
        channel = self._channel(sim, BatchConfig(batch_max_msgs=100))
        calls = []
        plain = []

        def group_handler(items):
            calls.append(list(items))

        channel.queue_send(100, lambda _c: None, "a", coalesce=group_handler)
        channel.queue_send(100, plain.append, "x")
        channel.queue_send(100, lambda _c: None, "b", coalesce=group_handler)
        channel.flush()
        sim.run()
        # The interleaved plain message splits the run; order preserved.
        assert calls == [["a"], ["b"]]
        assert plain == ["x"]

    def test_coalesce_requires_single_payload(self, sim):
        channel = self._channel(sim, BatchConfig())
        with pytest.raises(ValueError):
            channel.queue_send(100, lambda a, b: None, 1, 2,
                               coalesce=lambda items: None)


class _DuplicateEverything:
    """A fault injector stub that duplicates every message."""

    def on_send(self, now):
        return Verdict(deliver=True, copies=2)


class TestFrameFaultUnit:
    def test_duplicated_frame_dedups_as_a_unit(self, sim):
        channel = ControlChannel(sim, name="dup-test")
        channel.batching = BatchConfig(batch_max_msgs=3)
        channel.faults = _DuplicateEverything()
        got = []
        for index in range(3):
            channel.queue_send(100, got.append, index)
        sim.run()
        # The frame was sent twice by the injector but applied once:
        # none of the three messages double-applied.
        assert got == [0, 1, 2]
        assert channel.frames_deduplicated == 1


class TestZeroPerturbation:
    """Batching off must be bit-identical to the classic transport."""

    @pytest.mark.parametrize("guarantee", ["ng", "lf", "op"])
    def test_batching_off_is_bit_identical(self, guarantee):
        reset_uid_counter()
        plain = snapshot(run_move_experiment(guarantee, n_flows=40, seed=5))
        reset_uid_counter()
        disabled = snapshot(
            run_move_experiment(guarantee, n_flows=40, seed=5,
                                batching=False)
        )
        assert plain == disabled

    def test_disabled_config_is_normalized_away(self):
        result = run_move_experiment("lf", n_flows=10, seed=5,
                                     batching=False)
        assert result.deployment.controller.batching is None


class TestBatchedMove:
    def _pair(self, guarantee, **kwargs):
        reset_uid_counter()
        off = run_move_experiment(guarantee, n_flows=120, rate_pps=5000.0,
                                  seed=5, **kwargs)
        reset_uid_counter()
        on = run_move_experiment(guarantee, n_flows=120, rate_pps=5000.0,
                                 seed=5, batching=True, **kwargs)
        return off, on

    def test_lf_move_halves_control_messages(self):
        off, on = self._pair("lf")
        assert on.loss_free, on.loss_free_detail
        assert on.report.aborted is None
        off_msgs = total_control_messages(off.deployment)
        on_msgs = total_control_messages(on.deployment)
        assert on_msgs * 2 <= off_msgs, (
            "expected >=2x fewer control messages, got %d vs %d"
            % (on_msgs, off_msgs)
        )

    def test_lf_move_not_slower(self):
        off, on = self._pair("lf")
        assert on.duration_ms <= off.duration_ms * 1.02

    def test_op_move_stays_order_preserving(self):
        _off, on = self._pair("op")
        assert on.loss_free, on.loss_free_detail
        assert on.order_preserving, on.order_detail

    def test_batched_transfer_uses_frames(self):
        _off, on = self._pair("lf")
        channels = []
        for client in on.deployment.controller.clients.values():
            channels.extend([client.to_nf, client.from_nf])
        assert sum(ch.frames_sent for ch in channels) > 0
        assert sum(ch.messages_coalesced for ch in channels) > 0


class TestBatchedGet:
    """A streamed get over a bare stub, one chunk per message against
    frames: the half of the deleted ``bench_smoke`` no golden cell pins
    on its own (a batched move's golden total only sums it in)."""

    def _get(self, batch):
        sim = Simulator()
        src = AssetMonitor(sim, "src")
        for index in range(120):
            flow = FiveTuple("10.0.%d.%d" % (1 + index // 250,
                                             1 + index % 250),
                             20000 + index, "203.0.113.5", 80)
            src.receive(Packet(flow, tcp_flags=("SYN",)))
            src.receive(Packet(flow, tcp_flags=("ACK",), payload="pp"))
        sim.run()
        client = NFClient(sim, src, batch=batch)
        received, start = [], sim.now
        if batch is None:
            done = client.get_perflow(Filter.wildcard(),
                                      stream=received.append)
        else:
            done = client.get_perflow(Filter.wildcard(),
                                      stream_frame=received.extend)
        finished = []
        done.add_callback(lambda _evt: finished.append(sim.now))
        sim.run()
        assert len(received) == 120
        return round(finished[0] - start, 3), client.from_nf.messages_sent

    def test_streamed_get_ships_frames_not_chunks(self):
        assert self._get(None) == (24.26, 121)
        assert self._get(BatchConfig()) == (24.276, 9)


class TestBatchedUnderFaults:
    """Batched transport composes with the fault plans of the faults PR."""

    @pytest.mark.parametrize("spec", [
        "seed=3,drop=0.05",
        "seed=5,dup=0.08",
        "seed=7,drop=0.04,dup=0.04,delay=0.02",
    ])
    def test_exactly_once_processing(self, spec):
        result = run_move_experiment("op", n_flows=60, rate_pps=5000.0,
                                     seed=3, batching=True, fault_plan=spec)
        assert result.report.aborted is None
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail
        counts = result.deployment.processed_uid_counts()
        duplicates = [uid for uid, n in counts.items() if n > 1]
        assert not duplicates, (
            "retransmitted frames double-applied packets: %s" % duplicates
        )

    def test_dropped_frames_recovered_by_retry(self):
        result = run_move_experiment("lf", n_flows=60, rate_pps=5000.0,
                                     seed=3, batching=True,
                                     fault_plan="seed=3,drop=0.08")
        assert result.report.aborted is None
        assert result.loss_free, result.loss_free_detail
        # Losses actually happened and the retry machinery covered them.
        plan = result.deployment.faults
        assert plan.messages_dropped > 0
        assert result.report.retries > 0
