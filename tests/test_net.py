"""Tests for packets, links, flow tables, the switch, and channels."""

import gc

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.net import (
    CONTROLLER_PORT,
    ControlChannel,
    FlowTable,
    HIGH_PRIORITY,
    LOW_PRIORITY,
    Link,
    MID_PRIORITY,
    Packet,
    Switch,
)
from repro.net.packet import HEADER_OVERHEAD_BYTES
from repro.nfs.redup import RE_TOKEN_HEADER, REDecoder
from repro.sim import Simulator
from repro.sim.rng import derive_rng
from tests.conftest import make_packet


class TestPacket:
    def test_uids_unique_and_increasing(self, flow):
        a, b = Packet(flow), Packet(flow)
        assert b.uid == a.uid + 1

    def test_size_includes_headers(self, flow):
        assert Packet(flow).size_bytes == HEADER_OVERHEAD_BYTES
        assert Packet(flow, payload="abcd").size_bytes == HEADER_OVERHEAD_BYTES + 4

    def test_headers_include_flags(self, flow):
        packet = Packet(flow, tcp_flags=("SYN",))
        assert packet.headers()["tcp_flags"] == frozenset({"SYN"})

    def test_headers_omit_flags_when_empty(self, flow):
        assert "tcp_flags" not in Packet(flow).headers()

    def test_marks(self, flow):
        packet = Packet(flow)
        assert not packet.has_mark("do-not-buffer")
        packet.mark("do-not-buffer")
        assert packet.has_mark("do-not-buffer")

    def test_is_syn(self, flow):
        assert Packet(flow, tcp_flags=("SYN",)).is_syn()
        assert not Packet(flow, tcp_flags=("SYN", "ACK")).is_syn()
        assert not Packet(flow).is_syn()

    def test_is_fin_or_rst(self, flow):
        assert Packet(flow, tcp_flags=("FIN", "ACK")).is_fin_or_rst()
        assert Packet(flow, tcp_flags=("RST",)).is_fin_or_rst()
        assert not Packet(flow, tcp_flags=("ACK",)).is_fin_or_rst()


class TestPacketHeaders:
    """A packet holds no header dict until a header is written."""

    @staticmethod
    def holds_a_dict(packet):
        return any(isinstance(ref, dict) for ref in gc.get_referents(packet))

    def test_reads_make_no_dict(self, flow):
        packet = Packet(flow, tcp_flags=("ACK",), payload="data")
        packet.headers()
        packet.match_keys()
        assert packet.extra_header(RE_TOKEN_HEADER) is None
        REDecoder(Simulator(), "dec").process_packet(packet)
        assert not self.holds_a_dict(packet)

    def test_a_written_header_reaches_headers_and_match_keys(self, flow):
        plain = Packet(flow)
        packet = Packet(flow)
        packet.extra_headers["tp_dst"] = 8080
        assert self.holds_a_dict(packet)
        assert packet.headers()["tp_dst"] == 8080
        assert packet.extra_header("tp_dst") == 8080
        assert packet.match_keys() != plain.match_keys()
        assert not self.holds_a_dict(plain)

    def test_constructor_headers_are_honoured(self, flow):
        headers = {"http_url": "/x"}
        packet = Packet(flow, extra_headers=headers)
        assert packet.extra_headers is headers
        assert packet.headers()["http_url"] == "/x"
        assert packet.extra_header("http_url") == "/x"
        assert not self.holds_a_dict(Packet(flow, extra_headers={}))


class TestLink:
    def test_delivers_after_latency(self, sim, flow):
        link = Link(sim, latency_ms=3.0)
        seen = []
        link.send(Packet(flow), lambda p: seen.append((sim.now, p.uid)))
        sim.run()
        assert seen == [(3.0, 1)]
        assert link.delivered == 1

    def test_fifo_for_equal_latency(self, sim, flow):
        link = Link(sim, latency_ms=1.0)
        seen = []
        for _ in range(3):
            link.send(Packet(flow), lambda p: seen.append(p.uid))
        sim.run()
        assert seen == [1, 2, 3]

    def test_loss_requires_rng(self, sim):
        with pytest.raises(ValueError):
            Link(sim, loss_rate=0.5)

    def test_lossy_link_drops_deterministically(self, sim, flow):
        link = Link(sim, latency_ms=1.0, loss_rate=0.5, rng=derive_rng(1, "loss"))
        delivered = []
        for _ in range(100):
            link.send(Packet(flow), lambda p: delivered.append(p))
        sim.run()
        assert 0 < len(delivered) < 100
        assert link.dropped + link.delivered == 100

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(ValueError):
            Link(sim, jitter_ms=1.0)

    def test_jitter_can_reorder(self, sim, flow):
        link = Link(sim, latency_ms=1.0, jitter_ms=5.0, rng=derive_rng(3, "jit"))
        seen = []
        for _ in range(20):
            link.send(Packet(flow), lambda p: seen.append(p.uid))
        sim.run()
        assert sorted(seen) == list(range(1, 21))
        assert seen != sorted(seen)  # seed 3 produces at least one inversion


class TestFlowTable:
    def test_lookup_highest_priority_wins(self, sim, flow):
        table = FlowTable()
        table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        table.install(Filter({"tp_dst": 80}), HIGH_PRIORITY, ["b"], 0.0)
        entry = table.lookup(make_packet(flow))
        assert entry.actions == ("b",)

    def test_lookup_falls_through_to_lower_priority(self, sim, flow):
        table = FlowTable()
        table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        table.install(Filter({"tp_dst": 443}), HIGH_PRIORITY, ["b"], 0.0)
        assert table.lookup(make_packet(flow)).actions == ("a",)

    def test_no_match_returns_none(self, flow):
        table = FlowTable()
        table.install(Filter({"tp_dst": 443}), LOW_PRIORITY, ["a"], 0.0)
        assert table.lookup(make_packet(flow)) is None

    def test_install_replaces_same_filter_and_priority(self, flow):
        table = FlowTable()
        table.install(Filter.wildcard(), MID_PRIORITY, ["a"], 0.0)
        table.install(Filter.wildcard(), MID_PRIORITY, ["b"], 1.0)
        assert len(table) == 1
        assert table.lookup(make_packet(flow)).actions == ("b",)

    def test_newest_wins_among_equal_priority(self, flow):
        table = FlowTable()
        table.install(Filter({"nw_proto": 6}), MID_PRIORITY, ["a"], 0.0)
        table.install(Filter({"tp_dst": 80}), MID_PRIORITY, ["b"], 1.0)
        assert table.lookup(make_packet(flow)).actions == ("b",)

    def test_remove_by_filter_and_priority(self, flow):
        table = FlowTable()
        table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        table.install(Filter.wildcard(), HIGH_PRIORITY, ["b"], 0.0)
        assert table.remove(Filter.wildcard(), HIGH_PRIORITY) == 1
        assert table.lookup(make_packet(flow)).actions == ("a",)

    def test_remove_all_priorities(self):
        table = FlowTable()
        table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        table.install(Filter.wildcard(), HIGH_PRIORITY, ["b"], 0.0)
        assert table.remove(Filter.wildcard()) == 2
        assert len(table) == 0

    def test_counters_accumulate(self, flow):
        table = FlowTable()
        entry = table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        packet = make_packet(flow, payload="xy")
        entry.count(packet)
        entry.count(packet)
        assert entry.packets == 2
        assert entry.bytes == 2 * packet.size_bytes

    def test_entries_overlapping(self):
        table = FlowTable()
        table.install(Filter({"nw_src": "10.0.0.0/8"}), LOW_PRIORITY, ["a"], 0.0)
        table.install(Filter({"nw_src": "192.168.0.0/16"}), LOW_PRIORITY, ["b"], 0.0)
        overlapping = table.entries_overlapping(Filter({"nw_src": "10.5.0.0/16"}))
        assert [e.actions for e in overlapping] == [("a",)]


def build_switch(sim, **kwargs):
    switch = Switch(sim, **kwargs)
    received = {"a": [], "b": []}
    switch.attach("a", lambda p: received["a"].append(p), Link(sim, latency_ms=0.5))
    switch.attach("b", lambda p: received["b"].append(p), Link(sim, latency_ms=0.5))
    return switch, received


class TestSwitch:
    def test_forwards_by_flow_table(self, sim, flow):
        switch, received = build_switch(sim)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        switch.inject(make_packet(flow))
        sim.run()
        assert len(received["a"]) == 1
        assert received["b"] == []

    def test_miss_counts_and_drops(self, sim, flow):
        switch, received = build_switch(sim)
        switch.inject(make_packet(flow))
        sim.run()
        assert switch.table_misses == 1
        assert received["a"] == []

    def test_multi_output_duplicates(self, sim, flow):
        switch, received = build_switch(sim)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a", "b"], 0.0)
        switch.inject(make_packet(flow))
        sim.run()
        assert len(received["a"]) == 1 and len(received["b"]) == 1

    def test_controller_action_sends_packet_in(self, sim, flow):
        switch, _ = build_switch(sim)
        seen = []
        switch.set_packet_in_handler(lambda p: seen.append(p.uid))
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, [CONTROLLER_PORT], 0.0)
        switch.inject(make_packet(flow))
        sim.run()
        assert seen == [1]

    def test_flowmod_applies_after_delay(self, sim, flow):
        switch, received = build_switch(sim, flowmod_delay_ms=10.0)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        done = switch.install(Filter.wildcard(), ["b"], MID_PRIORITY)
        # A packet injected before the delay elapses uses the old rule.
        sim.schedule(5.0, lambda: switch.inject(make_packet(flow)))
        sim.schedule(15.0, lambda: switch.inject(make_packet(flow)))
        sim.run()
        assert done.triggered
        assert len(received["a"]) == 1
        assert len(received["b"]) == 1

    def test_remove_applies_after_delay(self, sim, flow):
        switch, received = build_switch(sim, flowmod_delay_ms=5.0)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        switch.remove(Filter.wildcard(), LOW_PRIORITY)
        sim.schedule(10.0, lambda: switch.inject(make_packet(flow)))
        sim.run()
        assert received["a"] == []
        assert switch.table_misses == 1

    def test_packet_out_rate_limited(self, sim, flow):
        switch, received = build_switch(sim, packet_out_rate_pps=1000.0)  # 1/ms
        times = []
        switch.attach(
            "sink", lambda p: times.append(sim.now), Link(sim, latency_ms=0.0)
        )
        for _ in range(4):
            switch.packet_out(make_packet(flow), "sink")
        sim.run()
        assert times == [1.0, 2.0, 3.0, 4.0]

    def test_counters_readable(self, sim, flow):
        switch, _ = build_switch(sim)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        packet = make_packet(flow, payload="xyz")
        switch.inject(packet)
        packets, size = switch.counters(Filter.wildcard(), LOW_PRIORITY)
        assert packets == 1 and size == packet.size_bytes
        assert switch.counters(Filter({"tp_dst": 1}), LOW_PRIORITY) == (0, 0)

    def test_forward_log_records_order(self, sim, flow):
        switch, _ = build_switch(sim)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["a"], 0.0)
        first, second = make_packet(flow), make_packet(flow)
        switch.inject(first)
        switch.inject(second)
        assert [uid for (_t, uid, _a) in switch.forward_log] == [first.uid, second.uid]

    def test_unknown_port_raises(self, sim, flow):
        switch, _ = build_switch(sim)
        switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["nope"], 0.0)
        with pytest.raises(KeyError):
            switch.inject(make_packet(flow))


class TestControlChannel:
    def test_delivery_includes_latency_and_transmission(self, sim):
        channel = ControlChannel(sim, latency_ms=2.0, bandwidth_bytes_per_ms=1000.0)
        seen = []
        channel.send(3000, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_fifo_even_when_sizes_differ(self, sim):
        channel = ControlChannel(sim, latency_ms=1.0, bandwidth_bytes_per_ms=100.0)
        seen = []
        channel.send(1000, lambda: seen.append("big"))  # 11 ms
        channel.send(1, lambda: seen.append("small"))  # nominally ~1 ms
        sim.run()
        assert seen == ["big", "small"]

    def test_counters(self, sim):
        channel = ControlChannel(sim)
        channel.send(100, lambda: None)
        channel.send(50, lambda: None)
        assert channel.messages_sent == 2
        assert channel.bytes_sent == 150
