"""Tests for the extended weird-activity catalog and its control-plane
significance: safe moves are weird-silent, unsafe reroutes are not."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import LOCAL_NET_FILTER, build_multi_instance_deployment
from repro.nfs.ids import Connection, IntrusionDetector
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace
from tests.conftest import make_packet


class TestWeirdCatalog:
    def test_data_before_established(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, payload="mid-stream"), 0.0)
        assert weirds == ["data_before_established"]

    def test_data_after_handshake_is_clean(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 0.0)
        conn.on_packet(make_packet(flow.reversed(), flags=("SYN", "ACK")), 1.0)
        conn.on_packet(make_packet(flow, payload="fine"), 2.0)
        assert weirds == []

    def test_data_before_established_fires_once(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, payload="a"), 0.0)
        conn.on_packet(make_packet(flow, payload="b", seq=1), 1.0)
        assert weirds.count("data_before_established") == 1

    def test_rst_with_data(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 0.0)
        conn.on_packet(make_packet(flow, flags=("RST",), payload="oops"), 1.0)
        assert "RST_with_data" in weirds

    def test_spontaneous_fin(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, flags=("FIN", "ACK")), 0.0)
        assert weirds == ["spontaneous_FIN"]

    def test_fin_after_data_is_clean(self, flow):
        weirds = []
        conn = Connection(flow, 0.0)
        conn.on_weird = lambda name, packet: weirds.append(name)
        conn.on_packet(make_packet(flow, flags=("SYN",)), 0.0)
        conn.on_packet(make_packet(flow, payload="data"), 1.0)
        conn.on_packet(make_packet(flow, flags=("FIN", "ACK")), 2.0)
        assert weirds == []


def weird_count(ids, name):
    return len(ids.alerts_of("weird:%s" % name))


class TestWeirdsAsMoveSafetySignal:
    def _run(self, act):
        dep, (a, b) = build_multi_instance_deployment(
            2, nf_factory=lambda s, n: IntrusionDetector(s, n)
        )
        trace = build_university_cloud_trace(
            TraceConfig(seed=13, n_flows=40, data_packets=20)
        )
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 2500.0)
        replayer.start()
        dep.sim.schedule(replayer.duration_ms / 2, act, dep)
        dep.sim.run()
        return a, b

    def test_lossfree_move_is_weird_silent(self):
        def act(dep):
            dep.controller.move("inst1", "inst2", LOCAL_NET_FILTER,
                                guarantee="lf")

        a, b = self._run(act)
        assert weird_count(b, "data_before_established") == 0
        assert weird_count(b, "SYN_inside_connection") == 0

    def test_stateless_reroute_storms_weirds(self):
        def act(dep):
            dep.switch.table.install(LOCAL_NET_FILTER, 500, ["inst2"],
                                     dep.sim.now)

        a, b = self._run(act)
        # Mid-stream flows arrive at inst2 with no state: every active
        # flow announces itself as weird.
        assert weird_count(b, "data_before_established") > 10
