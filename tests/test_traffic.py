"""Tests for traffic generation and replay."""

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
    build_cellular_trace,
    build_datacenter_trace,
    build_university_cloud_trace,
    http_exchange,
    malware_signatures,
    port_scan,
    tcp_flow,
)
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
        assert trace.flows_of_kind("scan")

    def test_interleaving_keeps_flows_concurrent(self):
        trace = build_university_cloud_trace(TraceConfig(seed=4, n_flows=10))
        first_sources = {b.five_tuple.canonical() for b in trace.packets[:10]}
        assert len(first_sources) == 10  # round-robin across all flows

    def test_datacenter_trace_mix(self):
        trace = build_datacenter_trace(TraceConfig(seed=6, n_flows=50))
        kinds = {f.kind for f in trace.flows}
        assert "mice" in kinds
        assert trace.flow_count == 50

    def test_cellular_trace_long_tail(self):
        trace = build_cellular_trace(
            TraceConfig(seed=8, n_flows=100, long_flow_fraction=0.4)
        )
        long_flows = trace.flows_of_kind("cellular-long")
        assert 25 <= len(long_flows) <= 55  # ~40 % of flows
        # Long flows are much longer than the m2m heartbeats.
        m2m = trace.flows_of_kind("cellular-m2m")
        assert m2m
        assert len(long_flows[0]) > 5 * len(m2m[0])

    def test_cellular_trace_deterministic(self):
        config = TraceConfig(seed=4, n_flows=20)
        a = build_cellular_trace(config)
        b = build_cellular_trace(config)
        assert [x.payload for x in a.packets] == [x.payload for x in b.packets]

    def test_signatures_match_malware_body(self):
        import hashlib

        assert hashlib.md5(MALWARE_BODY.encode()).hexdigest() in \
            malware_signatures()


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
        assert replayer.time_of_packet(3) == 1.5

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
        assert replayer.duration_ms == 0.0 and replayer.injected == []

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


class TestTraceSerialization:
    def test_roundtrip(self, tmp_path):
        from repro.traffic import load_trace, save_trace

        trace = build_university_cloud_trace(TraceConfig(seed=2, n_flows=12))
        path = str(tmp_path / "trace.jsonl")
        written = save_trace(trace, path)
        assert written == len(trace.packets)
        loaded = load_trace(path)
        assert len(loaded.packets) == len(trace.packets)
        assert [b.payload for b in loaded.packets] == \
            [b.payload for b in trace.packets]
        assert [b.tcp_flags for b in loaded.packets] == \
            [b.tcp_flags for b in trace.packets]
        assert loaded.flow_count == trace.flow_count

    def test_loaded_trace_replays_identically(self, sim, tmp_path):
        from repro.traffic import load_trace, save_trace

        trace = build_university_cloud_trace(TraceConfig(seed=3, n_flows=5))
        path = str(tmp_path / "trace.jsonl")
        save_trace(trace, path)
        loaded = load_trace(path)
        seen = []
        TraceReplayer(sim, lambda p: seen.append(p.payload),
                      loaded.packets, 1000.0).start()
        sim.run()
        assert seen == [b.payload for b in trace.packets]

    def test_rejects_foreign_files(self, tmp_path):
        from repro.traffic import load_trace

        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_rejects_truncated_trace(self, tmp_path):
        from repro.traffic import load_trace, save_trace

        trace = build_university_cloud_trace(TraceConfig(seed=3, n_flows=3))
        path = str(tmp_path / "trace.jsonl")
        save_trace(trace, path)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-2])
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_empty_file(self, tmp_path):
        from repro.traffic import load_trace

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(str(path))
