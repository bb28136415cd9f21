"""Tests for copy, share, and notify (§5.2)."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import build_multi_instance_deployment
from repro.nf import EventAction, Scope
from repro.nfs.monitor import AssetMonitor
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace
from tests.conftest import make_packet


def feed(dep, nf, count=10, client="10.0.1.2"):
    for i in range(count):
        flow = FiveTuple(client, 30000 + i, "203.0.113.5", 80)
        nf.receive(make_packet(flow, flags=("SYN",)))
    dep.sim.run()


class TestCopy:
    def test_copy_clones_without_deleting(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 5)
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(), "per")
        dep.sim.run()
        assert op.done.triggered
        assert a.conn_count() == 5  # source keeps its state
        assert b.conn_count() == 5

    def test_copy_multiflow_merges(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 3)
        feed(dep, b, 3, client="10.0.9.9")
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(), "multi")
        dep.sim.run()
        # inst2 has its own assets plus inst1's.
        assert b.asset_for("10.0.1.2") is not None
        assert b.asset_for("10.0.9.9") is not None

    def test_copy_no_forwarding_change(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 2)
        table_size = len(dep.switch.table)
        dep.controller.copy("inst1", "inst2", Filter.wildcard(), "per")
        dep.sim.run()
        assert len(dep.switch.table) == table_size

    def test_copy_report_accounts_bytes(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 4)
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(),
                                 "per+multi")
        dep.sim.run()
        report = op.done.value
        assert report.total_chunks > 4  # per-flow + assets
        assert report.total_bytes > 0

    def test_repeated_copy_is_idempotent_for_assets(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 3)
        for _ in range(3):
            op = dep.controller.copy("inst1", "inst2", Filter.wildcard(),
                                     "multi")
            dep.sim.run()
        asset = b.asset_for("10.0.1.2")
        assert asset.connections == a.asset_for("10.0.1.2").connections

    def test_sequential_copy_matches_parallel_result(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 4)
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(), "per",
                                 parallel=False)
        dep.sim.run()
        assert b.conn_count() == 4


class TestNotify:
    def test_callback_invoked_for_matching_packets(self):
        dep, (a, _b) = build_multi_instance_deployment(2)
        seen = []
        dep.controller.notify(
            Filter({"tcp_flags": "SYN"}), "inst1", True, seen.append
        )
        dep.sim.run()
        feed(dep, a, 3)
        assert len(seen) == 3
        assert all(e.action_taken is EventAction.PROCESS for e in seen)

    def test_packets_still_processed(self):
        dep, (a, _b) = build_multi_instance_deployment(2)
        dep.controller.notify(Filter.wildcard(), "inst1", True, lambda e: None)
        dep.sim.run()
        feed(dep, a, 3)
        assert a.packets_processed == 3

    def test_disable_stops_callbacks(self):
        dep, (a, _b) = build_multi_instance_deployment(2)
        seen = []
        flt = Filter({"tcp_flags": "SYN"})
        handle = dep.controller.notify(flt, "inst1", True, seen.append)
        dep.sim.run()
        feed(dep, a, 1)
        dep.controller.remove_interest(handle)
        dep.controller.notify(flt, "inst1", False)
        dep.sim.run()
        feed(dep, a, 2)
        assert len(seen) == 1

    def test_enable_requires_callback(self):
        dep, _ = build_multi_instance_deployment(2)
        with pytest.raises(ValueError):
            dep.controller.notify(Filter.wildcard(), "inst1", True)


class TestShare:
    def _deployment_with_split_traffic(self, n_flows=24):
        dep, (a, b) = build_multi_instance_deployment(2)
        # Split flows across the two instances by client IP parity.
        dep.switch.table.remove(Filter.wildcard())
        dep.set_default_route("inst1")
        dep.switch.table.install(
            Filter({"nw_src": "10.0.2.0/24"}, symmetric=True),
            500, ["inst2"], 0.0,
        )
        return dep, a, b

    def test_validation(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        with pytest.raises(ValueError):
            dep.controller.share(["inst1"], Filter.wildcard())
        with pytest.raises(ValueError):
            dep.controller.share(["inst1", "inst2"], Filter.wildcard(),
                                 consistency="weak")
        with pytest.raises(ValueError):
            dep.controller.share(["inst1", "inst2"], Filter.wildcard(),
                                 group_by="subnet")

    def test_initial_sync_merges_state(self):
        dep, a, b = self._deployment_with_split_traffic()
        feed(dep, a, 3, client="10.0.1.5")
        feed(dep, b, 3, client="10.0.2.5")
        share = dep.controller.share(
            ["inst1", "inst2"], Filter.wildcard(), scope="multi"
        )
        dep.sim.run()
        assert share.started.triggered
        assert a.asset_for("10.0.2.5") is not None
        assert b.asset_for("10.0.1.5") is not None
        share.stop()
        dep.sim.run()

    def test_strong_share_serializes_and_syncs(self):
        dep, a, b = self._deployment_with_split_traffic()
        share = dep.controller.share(
            ["inst1", "inst2"],
            Filter.wildcard(),
            scope="multi",
            consistency="strong",
            group_by="host",
        )
        dep.sim.run()
        # Two hosts' flows, one to each instance.
        flow_a = FiveTuple("10.0.1.5", 1111, "203.0.113.9", 80)
        flow_b = FiveTuple("10.0.2.5", 2222, "203.0.113.9", 80)
        dep.inject(make_packet(flow_a, flags=("SYN",)))
        dep.inject(make_packet(flow_b, flags=("SYN",)))
        dep.sim.run()
        assert share.packets_serialized == 2
        # Updates made at inst1 are reflected at inst2 and vice versa.
        assert b.asset_for("10.0.1.5") is not None
        assert a.asset_for("10.0.2.5") is not None
        assert share.average_added_latency_ms() > 0
        share.stop()
        dep.sim.run()

    def test_strong_share_per_packet_latency_cost(self):
        dep, a, b = self._deployment_with_split_traffic()
        share = dep.controller.share(
            ["inst1", "inst2"], Filter.wildcard(), scope="multi",
            consistency="strong",
        )
        dep.sim.run()
        flow = FiveTuple("10.0.1.5", 1111, "203.0.113.9", 80)
        for i in range(5):
            dep.inject(make_packet(flow, flags=("ACK",), seq=i))
        dep.sim.run()
        assert share.packets_serialized == 5
        # Serialized processing is an order of magnitude above normal.
        assert share.average_added_latency_ms() > 5.0
        share.stop()
        dep.sim.run()

    def test_strict_share_redirects_rules(self):
        dep, a, b = self._deployment_with_split_traffic()
        share = dep.controller.share(
            ["inst1", "inst2"], Filter.wildcard(), scope="multi",
            consistency="strict",
        )
        dep.sim.run()
        flow = FiveTuple("10.0.1.5", 1111, "203.0.113.9", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        # Processed at its original owner (inst1) despite redirection.
        assert a.packets_processed == 1
        assert share.packets_serialized == 1
        share.stop()
        dep.sim.run()
        # Rules restored after stop: traffic flows directly again.
        dep.inject(make_packet(flow, flags=("ACK",)))
        dep.sim.run()
        assert a.packets_processed == 2

    def test_strict_share_preserves_switch_order(self):
        dep, a, b = self._deployment_with_split_traffic()
        share = dep.controller.share(
            ["inst1", "inst2"], Filter.wildcard(), scope="multi",
            consistency="strict", group_by="all",
        )
        dep.sim.run()
        packets = []
        for i in range(6):
            client = "10.0.1.5" if i % 2 == 0 else "10.0.2.5"
            flow = FiveTuple(client, 3000 + i, "203.0.113.9", 80)
            packet = make_packet(flow, flags=("SYN",))
            packets.append(packet)
            dep.sim.schedule(float(i), lambda p=packet: dep.inject(p))
        dep.sim.run()
        merged = sorted(
            [(t, uid) for nf in (a, b) for (t, uid) in nf.processing_log]
        )
        assert [uid for (_t, uid) in merged] == [p.uid for p in packets]
        share.stop()
        dep.sim.run()

    def test_share_latency_flat_with_more_instances(self):
        def run_with(n):
            dep, instances = build_multi_instance_deployment(n)
            share = dep.controller.share(
                ["inst%d" % (i + 1) for i in range(n)],
                Filter.wildcard(), scope="multi", consistency="strong",
            )
            dep.sim.run()
            flow = FiveTuple("10.0.1.5", 1111, "203.0.113.9", 80)
            for i in range(5):
                dep.inject(make_packet(flow, flags=("ACK",), seq=i))
            dep.sim.run()
            value = share.average_added_latency_ms()
            share.stop()
            dep.sim.run()
            return value

        two = run_with(2)
        six = run_with(6)
        # Puts fan out in parallel: more instances must not grow latency
        # meaningfully (§8.1.1 observed flat latency up to 6 instances).
        assert six < two * 1.25


@pytest.mark.obs
class TestShareUpdateSpans:
    """share(strong) serialization, asserted on the spans themselves."""

    def test_strong_share_updates_do_not_overlap(self):
        dep, (a, b) = build_multi_instance_deployment(2, observe=True)
        dep.switch.table.remove(Filter.wildcard())
        dep.set_default_route("inst1")
        dep.switch.table.install(
            Filter({"nw_src": "10.0.2.0/24"}, symmetric=True),
            500, ["inst2"], 0.0,
        )
        share = dep.controller.share(
            ["inst1", "inst2"], Filter.wildcard(), scope="multi",
            consistency="strong", group_by="all",
        )
        dep.sim.run()
        for index in range(4):
            flow = FiveTuple(
                "10.0.%d.5" % (1 + index % 2), 1000 + index,
                "203.0.113.9", 80,
            )
            dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        share.stop()
        dep.sim.run()

        exporter = dep.obs.exporter
        updates = exporter.find("share.update")
        assert len(updates) == share.packets_serialized
        assert len(updates) >= 4
        root = exporter.find("share")[0]
        assert all(u.parent_id == root.span_id for u in updates)
        assert all(u.attrs["group"] for u in updates)
        # One global group: the update regions must be strictly serial.
        for earlier, later in zip(updates, updates[1:]):
            assert later.start >= earlier.end
        # The initial sync phase closed before any packet was serialized.
        sync = exporter.find("share.sync")[0]
        assert sync.end <= updates[0].start
