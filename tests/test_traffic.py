"""Tests for traffic generation and replay."""

import copy
import dataclasses
import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flowspace.fivetuple import FiveTuple
from repro.harness import Deployment
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator
from repro.traffic import (
    MALWARE_BODY,
    TraceConfig,
    TraceReplayer,
    build_datacenter_trace,
    build_university_cloud_trace,
    http_exchange,
    PacketBlueprint,
    ftp_session,
    malware_signatures,
    port_scan,
    tcp_flow,
)
from repro.net.packet import Packet
from tests.conftest import make_packet
from tests.oracles import eager_schedule_each


class TestFlowBuilders:
    def test_tcp_flow_structure(self):
        flow = tcp_flow(FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80),
                        data_packets=4)
        flags = [b.tcp_flags for b in flow.packets]
        assert flags[0] == ("SYN",)
        assert flags[1] == ("SYN", "ACK")
        assert any("FIN" in f for f in flags)
        assert len(flow) == 3 + 4 + 2

    def test_tcp_flow_without_close(self):
        flow = tcp_flow(FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80), close=False)
        assert not any("FIN" in b.tcp_flags for b in flow.packets)

    def test_http_exchange_request_and_reply(self):
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             url="/obj", reply_body="B" * 3000, reply_chunk=1000)
        request = [b for b in flow.packets if b.payload.startswith("GET ")]
        assert len(request) == 1
        assert "/obj" in request[0].payload
        reply_data = [b for b in flow.packets
                      if b.five_tuple.src_ip == "203.0.113.5" and b.payload]
        assert len(reply_data) == 4  # header+3000B at 1000B/chunk
        # Sequence offsets contiguous.
        offsets = sorted(b.seq for b in reply_data)
        assert offsets[0] == 0

    def test_port_scan_one_packet_flows(self):
        probes = port_scan("1.2.3.4", ["10.0.0.1", "10.0.0.2"], ports=(22, 80))
        assert len(probes) == 4
        assert all(len(p) == 1 for p in probes)
        src_ports = {p.packets[0].five_tuple.src_port for p in probes}
        assert len(src_ports) == 4  # distinct flows

    def test_blueprints_build_fresh_packets(self):
        flow = tcp_flow(FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80))
        first = flow.packets[0].build(1.0)
        second = flow.packets[0].build(2.0)
        assert first.uid != second.uid
        assert second.created_at == 2.0


class TestTraces:
    def test_university_trace_deterministic(self):
        config = TraceConfig(seed=5, n_flows=30)
        a = build_university_cloud_trace(config)
        b = build_university_cloud_trace(config)
        assert [x.payload for x in a.packets] == [x.payload for x in b.packets]
        assert a.flow_count == 30

    def test_different_seeds_differ(self):
        a = build_university_cloud_trace(TraceConfig(seed=1, n_flows=30))
        b = build_university_cloud_trace(TraceConfig(seed=2, n_flows=30))
        assert [x.payload for x in a.packets] != [x.payload for x in b.packets]

    def test_malware_flows_present(self):
        trace = build_university_cloud_trace(
            TraceConfig(seed=3, n_flows=100, malware_fraction=0.2)
        )
        malicious = [f for f in trace.flows if f.kind.startswith("http-malware")]
        assert malicious
        assert any(MALWARE_BODY in b.payload for f in malicious for b in f.packets
                   if b.payload)

    def test_scanners_add_probe_flows(self):
        trace = build_university_cloud_trace(
            TraceConfig(seed=3, n_flows=10, n_scanners=2, scan_targets=8)
        )
        assert [f for f in trace.flows if f.kind == "scan"]

    def test_interleaving_keeps_flows_concurrent(self):
        trace = build_university_cloud_trace(TraceConfig(seed=4, n_flows=10))
        first_sources = {b.five_tuple.canonical() for b in trace.packets[:10]}
        assert len(first_sources) == 10  # round-robin across all flows

    def test_datacenter_trace_mix(self):
        trace = build_datacenter_trace(TraceConfig(seed=6, n_flows=50))
        kinds = {f.kind for f in trace.flows}
        assert "mice" in kinds
        assert trace.flow_count == 50

    def test_signatures_match_malware_body(self):
        import hashlib

        assert hashlib.md5(MALWARE_BODY.encode()).hexdigest() in \
            malware_signatures()


def content_digest(blueprints):
    """sha256 over each blueprint's five-tuple, flags, seq and payload."""
    digest = hashlib.sha256()
    for bp in blueprints:
        ft = bp.five_tuple
        digest.update(repr((ft.src_ip, ft.src_port, ft.dst_ip, ft.dst_port,
                            ft.proto, bp.tcp_flags, bp.seq,
                            bp.payload)).encode("utf-8"))
    return digest.hexdigest()


def dp_steady_packets():
    """The blueprints the ledger's ``dp_steady`` workload replays."""
    return build_university_cloud_trace(
        TraceConfig(seed=7, n_flows=2000, data_packets=3)
    ).packets[:12000]


class TestTraceContent:
    """Each distinct piece of trace content is held once, and the bytes
    every trace carries are those of the per-packet builders."""

    #: Pinned from the builders that made one string per packet.
    PINS = {
        "dp_steady": "b74854af61e81ae8d912300b22ea8e63346e4976c64815510cce6a2b9fc90fca",
        "conformance": "990c146d7a27eab610a3738c9e518e7835f4264b4e5e9cc7883a0123af2ba93e",
        "datacenter": "36da0bda9fb46419fff7dcf675c36a09760438bfb44201e5136d7dc647ed78e1",
    }

    def test_content_is_byte_identical(self):
        assert content_digest(dp_steady_packets()) == self.PINS["dp_steady"]
        conformance = build_university_cloud_trace(
            TraceConfig(seed=11, n_flows=6, data_packets=3))
        assert content_digest(conformance.packets) == self.PINS["conformance"]
        datacenter = build_datacenter_trace(TraceConfig(seed=5, n_flows=200))
        assert content_digest(datacenter.packets) == self.PINS["datacenter"]

    def test_fillers_are_shared_across_flows(self):
        a = tcp_flow(FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80))
        b = tcp_flow(FiveTuple("10.0.0.3", 1001, "10.0.0.4", 80))
        for first, second in zip(a.packets, b.packets):
            assert first.payload is second.payload
        assert {len(bp.payload) for bp in a.packets} == {0, 512}
        _, data = ftp_session("10.0.0.1", "10.0.0.2")
        _, other = ftp_session("10.0.0.5", "10.0.0.6", data_port=50300)
        assert data.packets[2].payload is other.packets[2].payload

    def test_reply_segments_are_shared_across_benign_flows(self):
        trace = build_university_cloud_trace(
            TraceConfig(seed=3, n_flows=40, data_packets=3))
        benign = [f for f in trace.flows if f.kind == "http"]
        assert len(benign) >= 2
        replies = [
            [bp for bp in flow.packets if bp.payload and bp.five_tuple
             is not flow.five_tuple]
            for flow in benign[:2]
        ]
        assert len(replies[0]) == len(replies[1]) > 1
        for first, second in zip(*replies):
            assert first.payload is second.payload
            assert first.seq == second.seq

    def test_dp_steady_input_fits_its_memory_budget(self):
        """6.8 MB under tracemalloc when every packet held its own
        payload string, 2.1 MB with the content shared."""
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already tracing")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            packets = dp_steady_packets()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(packets) == 12000
        assert retained < 2.8e6, retained


class TestPacketBlueprint:
    def blueprint(self, **overrides):
        fields = dict(five_tuple=FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80),
                      tcp_flags=("ACK",), seq=7, payload="abc")
        fields.update(overrides)
        return PacketBlueprint(**fields)

    def test_holds_no_instance_dict(self):
        assert not hasattr(self.blueprint(), "__dict__")

    def test_assignment_raises(self):
        bp = self.blueprint()
        for name in ("payload", "seq", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bp, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del bp.payload
        assert bp.payload == "abc"

    def test_equality_and_hash_are_on_the_four_fields(self):
        bp = self.blueprint()
        ft = bp.five_tuple
        assert bp == self.blueprint()
        assert hash(bp) == hash((ft, ("ACK",), 7, "abc"))
        for change in (dict(tcp_flags=("SYN",)), dict(seq=8),
                       dict(payload="abd"),
                       dict(five_tuple=FiveTuple("10.0.0.1", 1001,
                                                 "10.0.0.2", 80))):
            assert bp != self.blueprint(**change)
        assert bp != (ft, ("ACK",), 7, "abc")
        assert copy.deepcopy(bp) == bp
        assert repr(bp) == (
            "PacketBlueprint(five_tuple=%r, tcp_flags=('ACK',), seq=7, "
            "payload='abc')" % (ft,))

    def test_defaults_and_built_packet(self):
        ft = FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80)
        bp = PacketBlueprint(ft)
        assert (bp.tcp_flags, bp.seq, bp.payload) == ((), 0, "")
        packet = self.blueprint().build(created_at=2.5)
        assert packet.tcp_flags == frozenset({"ACK"})
        assert (packet.seq, packet.payload, packet.created_at) == (7, "abc", 2.5)


class TestReplayer:
    def test_replay_at_rate(self, sim):
        trace = build_university_cloud_trace(TraceConfig(seed=1, n_flows=5))
        injected_times = []
        replayer = TraceReplayer(
            sim, lambda p: injected_times.append(sim.now),
            trace.packets, rate_pps=1000.0,
        )
        replayer.start()
        sim.run()
        assert len(injected_times) == len(trace.packets)
        assert injected_times[1] - injected_times[0] == pytest.approx(1.0)
        assert replayer.finished.triggered

    def test_replay_records_injected_packets(self, sim):
        trace = build_university_cloud_trace(TraceConfig(seed=1, n_flows=3))
        replayer = TraceReplayer(sim, lambda p: None, trace.packets,
                                 rate_pps=2500.0)
        replayer.start()
        sim.run()
        assert len(replayer.injected) == len(trace.packets)
        assert replayer.injected[0].created_at == 0.0

    def test_double_start_rejected(self, sim):
        replayer = TraceReplayer(sim, lambda p: None, [], rate_pps=100.0)
        replayer.start()
        with pytest.raises(RuntimeError):
            replayer.start()

    def test_duration_property(self, sim):
        trace = build_university_cloud_trace(TraceConfig(seed=1, n_flows=5))
        replayer = TraceReplayer(sim, lambda p: None, trace.packets,
                                 rate_pps=2000.0)
        assert replayer.duration_ms == pytest.approx(len(trace.packets) * 0.5)
        replayer.start()
        sim.run()
        assert replayer.injected[3].created_at == 1.5

    @pytest.mark.parametrize("rate_pps", [0, 0.0, -5.0, float("nan")])
    def test_non_positive_rate_rejected_up_front(self, sim, rate_pps):
        trace = build_university_cloud_trace(TraceConfig(seed=1, n_flows=2))
        with pytest.raises(ValueError, match="rate_pps"):
            TraceReplayer(sim, lambda p: None, trace.packets,
                          rate_pps=rate_pps)
        assert not sim.pending

    def test_empty_trace_finishes_at_now(self, sim):
        sim.run(until=3.0)
        replayer = TraceReplayer(sim, lambda p: None, [], rate_pps=100.0)
        replayer.start()
        assert sim.pending == 1
        sim.run()
        assert replayer.finished.triggered and sim.now == 3.0
        assert replayer.duration_ms == 0.0 and len(replayer.injected) == 0

    def test_reads_rebuild_each_packet_across_a_uid_gap(self):
        """A burst injected mid-replay draws uids between two of the
        replay's, so the replay's uids have a gap. Every packet read
        back still carries the uid the NF processed it under and the
        time it was emitted at, and reading mints no uid."""
        trace = build_university_cloud_trace(TraceConfig(seed=2, n_flows=6))
        dep = Deployment()
        monitor = AssetMonitor(dep.sim, "mon")
        dep.add_nf(monitor)
        dep.set_default_route("mon")
        emitted = []

        def inject(packet):
            emitted.append((packet, dep.sim.now))
            dep.inject(packet)

        replayer = TraceReplayer(dep.sim, inject, trace.packets,
                                 rate_pps=3000.0).start()
        burst = FiveTuple("10.0.9.1", 4000, "203.0.113.5", 80)
        dep.inject_at(replayer.duration_ms / 2,
                      lambda: [make_packet(burst) for _ in range(5)])
        dep.sim.run()
        view = replayer.injected
        assert len(view) == len(emitted) == len(trace.packets)
        uids = [p.uid for p in view]
        assert any(b - a > 1 for a, b in zip(uids, uids[1:]))
        processed = [uid for _when, uid in monitor.processing_log]
        assert [uid for uid in processed if uid in set(uids)] == uids
        assert len(processed) == len(uids) + 5
        for packet, (original, now) in zip(view, emitted):
            assert (packet.uid, packet.created_at) == (original.uid, now)
            assert packet.five_tuple is original.five_tuple
            assert (packet.tcp_flags, packet.seq, packet.payload) == (
                original.tcp_flags, original.seq, original.payload)
        assert [p.uid for p in view[3:9]] == uids[3:9]
        assert view[-1].uid == uids[-1]
        with pytest.raises(IndexError):
            view[len(uids)]
        assert Packet(burst).uid == max(processed) + 1

    def test_the_queue_holds_what_is_in_flight_not_the_trace(self):
        trace = build_university_cloud_trace(
            TraceConfig(seed=3, n_flows=400, data_packets=3))
        packets = trace.packets[:2000]
        assert len(packets) == 2000
        dep = Deployment(record_ground_truth=False)
        monitor = AssetMonitor(dep.sim, "mon")
        dep.add_nf(monitor)
        dep.set_default_route("mon")
        sim = dep.sim
        sim.run()
        assert not sim.pending
        replayer = TraceReplayer(sim, dep.inject, packets, rate_pps=5000.0)
        replayer.start()
        assert sim.pending == 1  # armed and idle: one entry, not 2 001
        deepest = 0
        while sim.pending:
            sim.run(max_events=100)
            deepest = max(deepest, sim.pending)
        assert deepest <= 64
        assert replayer.finished.triggered and not sim.pending
        assert monitor.packets_processed == 2000

    @given(
        n=st.integers(0, 40),
        rate_pps=st.sampled_from([1000.0, 2500.0, 3000.0, 7000.0]),
        start=st.sampled_from([0.0, 0.1, 12.7]),
        slice_events=st.integers(1, 9),
    )
    def test_replay_runs_exactly_as_the_eager_loop(
        self, n, rate_pps, start, slice_events
    ):
        """Same clock, same order against competing events on exact ties."""
        blueprints = build_university_cloud_trace(
            TraceConfig(seed=1, n_flows=8)).packets[:n]
        interval_ms = 1000.0 / rate_pps

        def play(eager):
            sim = Simulator()
            log = []

            def note(tag):
                log.append((sim.now, tag))

            def inject(packet):
                note(("pkt", packet.created_at, packet.five_tuple))
                sim.schedule(0.0, note, "delivered")

            sim.run(until=start)
            for k in range(n + 2):
                sim.schedule(k * interval_ms, note, "tick-before")
            if eager:
                eager_schedule_each(
                    sim, [k * interval_ms for k in range(n)],
                    lambda k: inject(blueprints[k].build(sim.now)),
                )
                sim.schedule(n * interval_ms, note, "finished")
            else:
                replayer = TraceReplayer(sim, inject, blueprints, rate_pps)
                replayer.finished.add_callback(lambda _e: note("finished"))
                replayer.start()
            for k in range(n + 2):
                sim.schedule(k * interval_ms, note, "tick-after")
            while sim.pending:
                sim.run(max_events=slice_events)
                note(sim.events_processed)
            return log

        assert play(eager=False) == play(eager=True)

