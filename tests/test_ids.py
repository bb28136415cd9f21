"""Tests for the Bro-like IDS: analyzers, detections, state handlers."""

import hashlib

import pytest

from repro.baselines import full_state_size
from repro.flowspace import Filter, FiveTuple, FlowId
from repro.nf import Scope
from repro.nfs.ids import (
    Connection,
    HttpAnalyzer,
    IntrusionDetector,
    ScanRecord,
    SignatureDB,
    TcpReassembler,
    is_outdated_browser,
)
from repro.traffic import (
    MALWARE_BODY,
    OUTDATED_AGENT,
    http_exchange,
    malware_signatures,
    port_scan,
)
from tests.conftest import make_packet


class TestTcpReassembler:
    def test_in_order_delivery(self):
        out = []
        reasm = TcpReassembler(out.append)
        reasm.segment(0, "abc")
        reasm.segment(3, "def")
        assert "".join(out) == "abcdef"
        assert reasm.gaps == 0

    def test_out_of_order_buffered_then_delivered(self):
        out = []
        reasm = TcpReassembler(out.append)
        reasm.segment(3, "def")
        assert out == []
        assert reasm.has_hole()
        reasm.segment(0, "abc")
        assert "".join(out) == "abcdef"
        assert not reasm.has_hole()

    def test_duplicate_segment_ignored(self):
        out = []
        reasm = TcpReassembler(out.append)
        reasm.segment(0, "abc")
        reasm.segment(0, "abc")
        assert "".join(out) == "abc"

    def test_partial_overlap_trimmed(self):
        out = []
        reasm = TcpReassembler(out.append)
        reasm.segment(0, "abcd")
        reasm.segment(2, "cdef")
        assert "".join(out) == "abcdef"

    def test_skip_gap_records_and_resumes(self):
        out = []
        reasm = TcpReassembler(out.append)
        reasm.segment(0, "abc")
        reasm.segment(6, "ghi")
        assert reasm.skip_gap()
        assert reasm.gaps == 1
        assert "".join(out) == "abcghi"

    def test_skip_gap_without_pending_is_noop(self):
        reasm = TcpReassembler()
        assert not reasm.skip_gap()
        assert reasm.gaps == 0

    def test_serialization_roundtrip(self):
        reasm = TcpReassembler()
        reasm.segment(0, "abc")
        reasm.segment(10, "xyz")
        clone = TcpReassembler.from_dict(reasm.to_dict())
        assert clone.next_seq == 3
        assert clone.pending == {10: "xyz"}
        out = []
        clone.set_sink(out.append)
        for seq in range(3, 10):
            clone.segment(seq, "-")
        assert "".join(out).endswith("xyz")


class TestHttpAnalyzer:
    def make_request(self, ua="Mozilla/5.0"):
        return (
            "GET /x HTTP/1.1\r\nHost: h.example\r\nUser-Agent: %s\r\n\r\n" % ua
        )

    def test_request_parsed(self):
        requests = []
        analyzer = HttpAnalyzer(on_request=requests.append)
        analyzer.request_data(self.make_request())
        assert len(requests) == 1
        assert requests[0].url == "/x"
        assert requests[0].host == "h.example"

    def test_request_split_across_segments(self):
        requests = []
        analyzer = HttpAnalyzer(on_request=requests.append)
        data = self.make_request()
        analyzer.request_data(data[:10])
        analyzer.request_data(data[10:])
        assert len(requests) == 1

    def test_reply_body_hashed(self):
        bodies = []
        analyzer = HttpAnalyzer(on_body=lambda d, s: bodies.append((d, s)))
        body = "hello-body"
        analyzer.reply_data(
            "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        digest = hashlib.md5(body.encode()).hexdigest()
        assert bodies == [(digest, len(body))]

    def test_reply_body_chunked_delivery(self):
        bodies = []
        analyzer = HttpAnalyzer(on_body=lambda d, s: bodies.append(s))
        body = "A" * 1000
        stream = "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n" + body
        for i in range(0, len(stream), 100):
            analyzer.reply_data(stream[i : i + 100])
        assert bodies == [1000]

    def test_zero_length_body_completes(self):
        bodies = []
        analyzer = HttpAnalyzer(on_body=lambda d, s: bodies.append(s))
        analyzer.reply_data("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
        assert bodies == [0]

    def test_status_codes_recorded(self):
        analyzer = HttpAnalyzer()
        analyzer.reply_data("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
        assert analyzer.status_codes == [404]

    def test_serialization_mid_body(self):
        analyzer = HttpAnalyzer()
        analyzer.reply_data("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")
        clone = HttpAnalyzer.from_dict(analyzer.to_dict())
        bodies = []
        clone.on_body = lambda d, s: bodies.append(s)
        clone.reply_data("defghij")
        assert bodies == [10]


class TestConnectionStateMachine:
    def test_handshake_states(self, sim, flow):
        conn = Connection(flow, 0.0)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 0.0)
        assert conn.state == "S0"
        conn.on_packet(make_packet(flow.reversed(), flags=("SYN", "ACK")), 1.0)
        assert conn.state == "S1"
        conn.on_packet(make_packet(flow, flags=("ACK",), payload="x"), 2.0)
        assert conn.state == "EST"

    def test_fin_both_directions_closes(self, flow):
        conn = Connection(flow, 0.0)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 0.0)
        conn.on_packet(make_packet(flow, flags=("FIN", "ACK")), 1.0)
        assert not conn.closed
        conn.on_packet(make_packet(flow.reversed(), flags=("FIN", "ACK")), 2.0)
        assert conn.closed and conn.state == "SF"

    def test_rst_closes_immediately(self, flow):
        conn = Connection(flow, 0.0)
        conn.on_packet(make_packet(flow, flags=("RST",)), 0.0)
        assert conn.closed and conn.state == "RST"

    def test_syn_inside_connection_weird(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_packet(make_packet(flow, payload="data"), 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 1.0)
        assert weirds == ["SYN_inside_connection"]

    def test_log_entry_abnormal_when_unclosed_with_data(self, flow):
        conn = Connection(flow, 0.0)
        conn.on_packet(make_packet(flow, payload="data"), 0.0)
        assert conn.log_entry(5.0)["abnormal"]
        conn.moved = True
        assert not conn.log_entry(5.0)["abnormal"]

    def test_serialization_roundtrip_preserves_counters(self, flow):
        conn = Connection(flow, 0.0)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 0.0)
        conn.on_packet(make_packet(flow.reversed(), payload="yo"), 1.0)
        clone = Connection.from_dict(conn.to_dict())
        assert clone.orig_packets == 1
        assert clone.resp_packets == 1
        assert clone.history == conn.history


class TestScanRecord:
    def test_attempts_counted_distinctly(self):
        record = ScanRecord("1.2.3.4", 0.0)
        record.attempt("10.0.0.1", 80, 0.0)
        record.attempt("10.0.0.1", 80, 1.0)
        record.attempt("10.0.0.2", 80, 2.0)
        assert record.attempt_count == 2

    def test_alert_threshold(self):
        record = ScanRecord("1.2.3.4", 0.0)
        for i in range(20):
            record.attempt("10.0.0.%d" % i, 22, float(i))
        assert record.should_alert(20)
        record.alerted = True
        assert not record.should_alert(20)

    def test_merge_unions_targets(self):
        a = ScanRecord("1.2.3.4", 0.0)
        b = ScanRecord("1.2.3.4", 1.0)
        a.attempt("10.0.0.1", 22, 0.0)
        b.attempt("10.0.0.2", 22, 1.0)
        a.merge_from(b.to_dict())
        assert a.attempt_count == 2
        a.merge_from(b.to_dict())  # idempotent
        assert a.attempt_count == 2


def drive_flow(sim, ids, flow_blueprint):
    for blueprint in flow_blueprint.packets:
        ids.receive(blueprint.build(sim.now))
    sim.run()


class TestAlertOrder:
    """One packet raising a weird and a content alert: the weird comes
    first and names the packet's direction, the content alert names
    the connection's originator."""

    def alerts(self, ids):
        return [(alert.kind, alert.subject, alert.flow) for alert in ids.alerts]

    def test_request_direction(self, sim, flow):
        ids = IntrusionDetector(sim, "bro")
        request = "GET / HTTP/1.1\r\nHost: x\r\nUser-Agent: %s\r\n\r\n" % (
            OUTDATED_AGENT
        )
        ids.receive(make_packet(flow, flags=("ACK", "PSH"), payload=request))
        sim.run()
        assert self.alerts(ids) == [
            ("weird:data_before_established", str(flow), flow),
            ("outdated_browser", flow.src_ip, flow),
        ]

    def test_reply_direction(self, sim, flow):
        ids = IntrusionDetector(sim, "bro", SignatureDB(malware_signatures()))
        server = flow.reversed()
        reply = "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
            len(MALWARE_BODY), MALWARE_BODY
        )
        ids.receive(make_packet(flow, flags=("ACK",)))  # opens it, no data
        ids.receive(make_packet(server, flags=("ACK",), payload=reply))
        sim.run()
        assert self.alerts(ids) == [
            ("weird:data_before_established", str(server), server),
            ("malware", str(flow), flow),
        ]


class TestIntrusionDetector:
    def test_malware_detected_on_complete_reply(self, sim):
        ids = IntrusionDetector(sim, "bro", SignatureDB(malware_signatures()))
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             reply_body=MALWARE_BODY)
        drive_flow(sim, ids, flow)
        assert len(ids.alerts_of("malware")) == 1

    def test_benign_reply_no_alert(self, sim):
        ids = IntrusionDetector(sim, "bro", SignatureDB(malware_signatures()))
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5", reply_body="benign")
        drive_flow(sim, ids, flow)
        assert ids.alerts_of("malware") == []

    def test_malware_missed_when_packet_lost(self, sim):
        ids = IntrusionDetector(sim, "bro", SignatureDB(malware_signatures()))
        flow = http_exchange(
            "10.0.1.2", 1234, "203.0.113.5", reply_body=MALWARE_BODY * 4,
            reply_chunk=200,
        )
        packets = [b.build(0.0) for b in flow.packets]
        dropped = [p for p in packets if not (p.seq == 200 and p.payload and
                                              p.five_tuple.src_ip == "203.0.113.5")]
        assert len(dropped) == len(packets) - 1
        for packet in dropped:
            ids.receive(packet)
        sim.run()
        assert ids.alerts_of("malware") == []

    def test_outdated_browser_alert(self, sim):
        ids = IntrusionDetector(sim, "bro")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             user_agent=OUTDATED_AGENT, reply_body="x")
        drive_flow(sim, ids, flow)
        alerts = ids.alerts_of("outdated_browser")
        assert len(alerts) == 1
        assert alerts[0].flow is not None

    def test_port_scan_alert(self, sim):
        ids = IntrusionDetector(sim, "bro", scan_threshold=10)
        probes = port_scan("198.51.100.9", ["10.0.0.%d" % i for i in range(5)],
                           ports=(22, 80))
        for probe in probes:
            drive_flow(sim, ids, probe)
        assert len(ids.alerts_of("port_scan")) == 1

    def test_weird_alert_on_reordered_syn(self, sim, flow):
        ids = IntrusionDetector(sim, "bro")
        ids.receive(make_packet(flow, flags=("ACK",), payload="data"))
        ids.receive(make_packet(flow, flags=("SYN",)))
        sim.run()
        assert len(ids.alerts_of("weird:SYN_inside_connection")) == 1

    def test_conn_log_on_close(self, sim):
        ids = IntrusionDetector(sim, "bro")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5", reply_body="x",
                             close=True)
        drive_flow(sim, ids, flow)
        assert len(ids.conn_log) == 1
        assert ids.conn_log[0]["state"] == "SF"
        assert not ids.conn_log[0]["abnormal"]

    def test_abrupt_termination_logged_as_incorrect(self, sim):
        ids = IntrusionDetector(sim, "bro")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5", reply_body="x" * 2000,
                             close=False)
        drive_flow(sim, ids, flow)
        ids.finalize_logs()
        assert len(ids.incorrect_log_entries()) == 1

    def test_moved_flag_suppresses_incorrect_entry(self, sim):
        ids = IntrusionDetector(sim, "bro")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5", reply_body="x" * 2000,
                             close=False)
        drive_flow(sim, ids, flow)
        for key in list(ids.conns):
            ids.delete_by_flowid(Scope.PERFLOW, key)
        ids.finalize_logs()
        assert ids.incorrect_log_entries() == []
        assert ids.conn_count() == 0

    def test_state_move_resumes_detection(self, sim):
        """The headline behaviour: move mid-flow, malware still caught."""
        signatures = SignatureDB(malware_signatures())
        src = IntrusionDetector(sim, "src", signatures)
        dst = IntrusionDetector(sim, "dst", signatures)
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             reply_body=MALWARE_BODY, reply_chunk=100)
        packets = [b.build(0.0) for b in flow.packets]
        half = len(packets) // 2
        for packet in packets[:half]:
            src.receive(packet)
        sim.run()
        keys = src.state_keys(Scope.PERFLOW, Filter.wildcard())
        for key in keys:
            chunk = src.export_chunk(Scope.PERFLOW, key)
            src.delete_by_flowid(Scope.PERFLOW, key)
            dst.import_chunk(chunk)
        for packet in packets[half:]:
            dst.receive(packet)
        sim.run()
        assert len(dst.alerts_of("malware")) == 1
        assert src.alerts_of("malware") == []

    def test_multiflow_export_respects_ip_relevance(self, sim):
        ids = IntrusionDetector(sim, "bro")
        probes = port_scan("198.51.100.9", ["10.0.0.1"], ports=(22,))
        for probe in probes:
            drive_flow(sim, ids, probe)
        # tp_dst is irrelevant for host counters: still matches on IP.
        keys = ids.state_keys(
            Scope.MULTIFLOW,
            Filter({"nw_src": "198.51.100.0/24", "tp_dst": 9999}),
        )
        assert FlowId.for_host("198.51.100.9") in keys

    def test_allflows_stats_merge(self, sim, flow):
        a = IntrusionDetector(sim, "a")
        b = IntrusionDetector(sim, "b")
        a.receive(make_packet(flow))
        b.receive(make_packet(flow))
        sim.run()
        chunk = a.export_chunk(Scope.ALLFLOWS, "stats")
        b.import_chunk(chunk)
        assert b.stats["packets"] == 2

    def test_state_size_grows_with_traffic(self, sim):
        ids = IntrusionDetector(sim, "bro")
        empty_size = full_state_size(ids)
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             reply_body="y" * 5000)
        drive_flow(sim, ids, flow)
        assert full_state_size(ids) > empty_size

    def test_is_outdated_browser(self):
        assert is_outdated_browser("Mozilla/4.0 (compatible; MSIE 6.0)")
        assert not is_outdated_browser("Mozilla/5.0 (X11; Linux)")


class TestConnLogRendering:
    def test_tsv_output(self, sim, tmp_path):
        from repro.nfs.ids.logs import write_conn_log

        ids = IntrusionDetector(sim, "bro")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             reply_body="x", close=True)
        drive_flow(sim, ids, flow)
        path = str(tmp_path / "conn.log")
        count = write_conn_log(ids, path)
        assert count == 1
        text = open(path).read()
        assert text.startswith("#separator")
        assert "#fields\tts\tid" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1
        record = lines[0].split("\t")
        assert record[2] == "tcp"
        assert record[4] == "SF"
        assert record[-1] == "F"  # not abnormal

    def test_abnormal_flag_rendered(self, sim, tmp_path):
        from repro.nfs.ids.logs import render_conn_log

        ids = IntrusionDetector(sim, "bro")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             reply_body="x" * 500, close=False)
        drive_flow(sim, ids, flow)
        ids.finalize_logs()
        text = render_conn_log(ids.conn_log)
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert data_lines[0].endswith("T")  # abnormal
