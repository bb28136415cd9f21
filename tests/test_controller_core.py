"""Tests for controller dispatch, the switch client, and the harness."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import (
    Deployment,
    LatencyReport,
    added_latency,
    build_multi_instance_deployment,
    check_loss_free,
    check_order_preserving,
    completion_times,
)
from repro.net.flowtable import HIGH_PRIORITY, MID_PRIORITY
from repro.nf import EventAction
from repro.nfs.monitor import AssetMonitor
from tests.conftest import make_packet


class TestControllerDispatch:
    def test_event_interest_routing_by_nf_and_filter(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        seen = []
        dep.controller.add_event_interest(
            "inst1", Filter({"tp_dst": 80}), lambda e: seen.append("http")
        )
        dep.controller.add_event_interest(
            "inst1", None, lambda e: seen.append("any")
        )
        dep.controller.client("inst1").enable_events(
            Filter.wildcard(), EventAction.PROCESS
        )
        dep.sim.run()
        a.receive(make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)))
        a.receive(make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 443)))
        dep.sim.run()
        # Newest matching interest wins; http packet hits "any" (newest)
        # too, so both events land on "any".
        assert seen == ["any", "any"]

    def test_interest_removal(self):
        dep, (a, _b) = build_multi_instance_deployment(2)
        seen = []
        handle = dep.controller.add_event_interest(None, None, seen.append)
        dep.controller.remove_interest(handle)
        dep.controller.client("inst1").enable_events(
            Filter.wildcard(), EventAction.PROCESS
        )
        dep.sim.run()
        a.receive(make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)))
        dep.sim.run()
        assert seen == []

    def test_default_event_handler_catches_unclaimed(self):
        dep, (a, _b) = build_multi_instance_deployment(2)
        fallback = []
        dep.controller.default_event_handler = fallback.append
        dep.controller.client("inst1").enable_events(
            Filter.wildcard(), EventAction.PROCESS
        )
        dep.sim.run()
        a.receive(make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)))
        dep.sim.run()
        assert len(fallback) == 1

    def test_client_resolution(self):
        dep, (a, _b) = build_multi_instance_deployment(2)
        client = dep.controller.client("inst1")
        assert dep.controller.client(a) is client
        assert dep.controller.client(client) is client

    def test_port_mapping(self):
        dep, _ = build_multi_instance_deployment(2)
        assert dep.controller.port_of("inst1") == "inst1"
        assert dep.controller.port_of("inst2") == "inst2"

    def test_msg_proc_cost_delays_dispatch(self):
        dep = Deployment(msg_proc_ms=5.0)
        nf = AssetMonitor(dep.sim, "m")
        dep.add_nf(nf)
        dep.set_default_route("m")
        times = []
        dep.controller.add_event_interest(
            None, None, lambda e: times.append(dep.sim.now - e.raised_at)
        )
        dep.controller.client("m").enable_events(
            Filter.wildcard(), EventAction.PROCESS
        )
        dep.sim.run()
        nf.receive(make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)))
        dep.sim.run()
        assert times and times[0] >= 5.0


class TestSwitchClient:
    def test_install_event_fires_when_rule_active(self):
        dep, _ = build_multi_instance_deployment(1)
        done = dep.controller.switch_client.install(
            Filter.wildcard(), ["inst1"], MID_PRIORITY
        )
        dep.sim.run()
        assert done.triggered
        assert dep.switch.table.find(Filter.wildcard(), MID_PRIORITY)

    def test_remove_event(self):
        dep, _ = build_multi_instance_deployment(1)
        dep.controller.switch_client.install(
            Filter.wildcard(), ["inst1"], MID_PRIORITY
        )
        dep.sim.run()
        done = dep.controller.switch_client.remove(Filter.wildcard(),
                                                   MID_PRIORITY)
        dep.sim.run()
        assert done.triggered
        assert dep.switch.table.find(Filter.wildcard(), MID_PRIORITY) is None

    def test_read_counters(self):
        dep, (a,) = build_multi_instance_deployment(1)
        packet = make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80))
        dep.inject(packet)
        dep.sim.run()
        done = dep.controller.switch_client.read_counters(Filter.wildcard())
        dep.sim.run()
        packets, size = done.value
        assert packets == 1 and size == packet.size_bytes

    def test_read_entries(self):
        dep, _ = build_multi_instance_deployment(2)
        done = dep.controller.switch_client.read_entries(
            Filter({"nw_src": "10.0.0.0/8"})
        )
        dep.sim.run()
        entries = done.value
        assert len(entries) == 1  # the wildcard default route overlaps
        flt, priority, actions = entries[0]
        assert actions == ("inst1",)

    def test_packet_out_pays_channel_and_rate_cost(self):
        dep, (a,) = build_multi_instance_deployment(1)
        packet = make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80))
        dep.controller.switch_client.packet_out(packet, "inst1")
        dep.sim.run()
        assert a.packets_processed == 1
        ((done_time, _uid),) = a.processing_log
        assert done_time > dep.switch.packet_out_interval_ms


class TestPropertyCheckers:
    def test_forwarding_order_ignores_controller_copies(self):
        dep, (a,) = build_multi_instance_deployment(1)
        dep.switch.table.remove(Filter.wildcard())
        dep.switch.table.install(Filter.wildcard(), MID_PRIORITY,
                                 ["inst1", "controller"], 0.0)
        packet = make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80))
        dep.inject(packet)
        dep.sim.run()
        loss_free = check_loss_free(dep.switch, [a])
        order = check_order_preserving(dep.switch, [a], [packet])
        assert loss_free == order == (True, "")
        assert loss_free.judged == order.judged == 1

    def test_controller_only_copies_are_not_judged(self):
        dep, (a,) = build_multi_instance_deployment(1)
        packet = make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80))
        dep.switch.forward_log = [(0.0, packet.uid, ("controller",))]
        loss_free = check_loss_free(dep.switch, [a])
        assert loss_free == (True, "") and loss_free.judged == 0
        dep.switch.forward_log.append((1.0, packet.uid, ("inst1",)))
        assert check_loss_free(dep.switch, [a]) == (
            False, "missing=[%d] duplicated=[]" % packet.uid)

    def test_loss_free_checker_detects_missing(self):
        dep, (a,) = build_multi_instance_deployment(1)
        packet = make_packet(FiveTuple("10.0.0.1", 1, "10.0.0.2", 80))
        a.sb_enable_events(Filter.wildcard(), EventAction.DROP, silent=True)
        dep.inject(packet)
        dep.sim.run()
        ok, detail = check_loss_free(dep.switch, [a])
        assert not ok
        assert str(packet.uid) in detail

    def test_order_checker_detects_inversion(self):
        dep, (a,) = build_multi_instance_deployment(1)
        flow = FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)
        first, second = make_packet(flow), make_packet(flow)
        dep.inject(first)
        dep.inject(second)
        dep.sim.run()
        # Forge an inversion in the processing log.
        reversed_uids = [u for (_t, u) in a.processing_log][::-1]
        a.processing_log = list(zip([1.0, 2.0], reversed_uids))
        ok, detail = check_order_preserving(dep.switch, [a], [first, second])
        assert not ok

    def test_processing_order_merges_instances_by_completion(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        flow = FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)
        packets = [make_packet(flow) for _ in range(3)]
        first, second, third = (p.uid for p in packets)
        a.processing_log = [(1.0, first), (3.0, third)]
        b.processing_log = [(2.0, second)]

        def forwarded(*uids):
            dep.switch.forward_log = [(0.0, uid, ("inst1",)) for uid in uids]
            return check_order_preserving(dep.switch, [a, b], packets,
                                          per_flow=False)

        assert forwarded(first, second, third) == (True, "")
        assert forwarded(first, third, second) == (
            False, "at 1 expected uid %d got %d" % (third, second))


class TestLatencyMetrics:
    def test_added_latency_relative_to_baseline(self):
        class FakeNF:
            processing_log = [(10.0, 1), (11.0, 2), (30.0, 3)]

        class FakePacket:
            def __init__(self, uid, created_at):
                self.uid = uid
                self.created_at = created_at

        packets = [FakePacket(1, 9.0), FakePacket(2, 10.0), FakePacket(3, 10.0)]
        report = added_latency([FakeNF()], packets, affected_uids={3})
        assert report.baseline_ms == 1.0
        assert report.affected_count == 1
        assert report.samples == [19.0]
        assert report.average_added_ms == 19.0
        assert report.max_added_ms == 19.0

    def test_empty_report(self):
        report = LatencyReport()
        assert report.average_added_ms == 0.0
        assert report.max_added_ms == 0.0


class TestDeploymentHelpers:
    def test_processed_uid_counts(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        flow = FiveTuple("10.0.0.1", 1, "10.0.0.2", 80)
        packet = make_packet(flow)
        dep.inject(packet)
        dep.sim.run()
        counts = dep.processed_uid_counts()
        assert counts == {packet.uid: 1}
        assert list(completion_times([a, b])) == [packet.uid]

    def test_completion_times_earliest_across_instances(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        a.processing_log = [(2.0, 20), (5.0, 10)]
        b.processing_log = [(1.0, 10)]
        assert completion_times([a, b]) == {20: 2.0, 10: 1.0}


class TestReportToDict:
    def test_roundtrips_to_json(self):
        import json

        from repro.controller.reports import OperationReport

        report = OperationReport(kind="move", guarantee="loss-free",
                                 src="a", dst="b", started_at=1.0,
                                 finished_at=5.0)
        report.add_chunk("perflow", 100, 60)
        report.mark_phase("rerouted", 4.0)
        dumped = json.loads(json.dumps(report.to_dict()))
        assert dumped["duration_ms"] == 4.0
        assert dumped["wire_bytes_moved"] == {"perflow": 60}
        assert dumped["phases"]["rerouted"] == 3.0
        assert dumped["aborted"] is None
