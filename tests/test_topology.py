"""Tests for the two-tier (spine + leaf) topology."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness.properties import check_loss_free, check_order_preserving
from repro.net.topology import (
    LEAF_LATENCY_MS,
    NF_LINK_LATENCY_MS,
    TwoTierTopology,
)
from repro.nfs.monitor import AssetMonitor
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace
from tests.conftest import make_packet

LOCAL = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)


def build():
    topo = TwoTierTopology()
    src = AssetMonitor(topo.sim, "prads1")
    dst = AssetMonitor(topo.sim, "prads2")
    topo.add_nf_behind_leaf(src)
    topo.add_nf_behind_leaf(dst)
    topo.set_default_route("prads1")
    return topo, src, dst


class TestTwoTier:
    def test_traffic_traverses_spine_and_leaf(self, flow):
        topo, src, _dst = build()
        topo.inject(make_packet(flow, flags=("SYN",)))
        topo.sim.run()
        assert src.packets_processed == 1
        assert topo.leaves["leaf-prads1"].received == 1

    def test_latency_adds_across_tiers(self, flow):
        topo, src, _dst = build()
        topo.inject(make_packet(flow))
        topo.sim.run()
        done_at = src.processing_log[0][0]
        # spine->leaf link + leaf->nf link + processing, at least.
        assert done_at >= LEAF_LATENCY_MS + NF_LINK_LATENCY_MS

    def test_packet_out_reaches_nf_behind_leaf(self, flow):
        topo, src, _dst = build()
        packet = make_packet(flow)
        topo.controller.switch_client.packet_out(
            packet, topo.controller.port_of("prads1")
        )
        topo.sim.run()
        assert src.packets_processed == 1

    def test_lossfree_move_across_leaves(self):
        topo, src, dst = build()
        trace = build_university_cloud_trace(
            TraceConfig(seed=9, n_flows=60, data_packets=20)
        )
        replayer = TraceReplayer(topo.sim, topo.inject, trace.packets, 2500.0)
        replayer.start()
        holder = {}
        topo.sim.schedule(
            replayer.duration_ms / 2,
            lambda: holder.update(op=topo.controller.move(
                "prads1", "prads2", LOCAL, guarantee="lf")),
        )
        topo.sim.run()
        report = holder["op"].done.value
        assert report.aborted is None
        assert report.packets_dropped == 0
        assert dst.conn_count() == 60
        ok, detail = check_loss_free(topo.spine, [src, dst])
        # The spine's forward_log uses leaf-port actions; adapt the check
        # by leaf naming: the property helper needs NF-port names, so we
        # check using the leaf ports.
        from repro.harness.properties import switch_forwarding_order

        forwarded = switch_forwarding_order(
            topo.spine, ["leaf-prads1", "leaf-prads2"]
        )
        processed = {uid for nf in (src, dst) for (_t, uid) in nf.processing_log}
        assert set(forwarded) <= processed

    def test_order_preserving_move_across_leaves(self):
        topo, src, dst = build()
        trace = build_university_cloud_trace(
            TraceConfig(seed=9, n_flows=40, data_packets=20)
        )
        replayer = TraceReplayer(topo.sim, topo.inject, trace.packets, 4000.0)
        replayer.start()
        holder = {}
        topo.sim.schedule(
            replayer.duration_ms / 2,
            lambda: holder.update(op=topo.controller.move(
                "prads1", "prads2", LOCAL, guarantee="op")),
        )
        topo.sim.run()
        report = holder["op"].done.value
        assert report.aborted is None
        # Per-flow processing order must match spine forwarding order.
        from repro.harness.properties import (
            merged_processing_order,
            switch_forwarding_order,
        )

        uid_set = {p.uid for p in replayer.injected}
        forwarded = switch_forwarding_order(
            topo.spine, ["leaf-prads1", "leaf-prads2"], uid_set
        )
        processed = merged_processing_order([src, dst], uid_set)
        processed_set = set(processed)
        forwarded = [uid for uid in forwarded if uid in processed_set]
        # Build per-flow sequences.
        by_flow = {}
        for packet in replayer.injected:
            key = packet.five_tuple.canonical()
            by_flow.setdefault(key, []).append(packet.uid)
        fwd_rank = {uid: i for i, uid in enumerate(forwarded)}
        proc_rank = {uid: i for i, uid in enumerate(processed)}
        for uids in by_flow.values():
            fwd = sorted((u for u in uids if u in fwd_rank),
                         key=lambda u: fwd_rank[u])
            prc = sorted((u for u in uids if u in proc_rank),
                         key=lambda u: proc_rank[u])
            assert fwd == prc
