"""Tests for the two-tier (spine + leaf) topology, and the judges'
negative controls on it and on one switch."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import Deployment
from repro.harness.properties import (
    check_loss_free,
    check_order_preserving,
    nf_ports,
)
from repro.net.topology import (
    LEAF_LATENCY_MS,
    NF_LINK_LATENCY_MS,
    TwoTierTopology,
)
from repro.nfs.monitor import AssetMonitor
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace
from tests.conftest import clear_log, make_packet

LOCAL = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)


def build(topology=TwoTierTopology, **modes):
    topo = topology(**modes)
    src = AssetMonitor(topo.sim, "prads1")
    dst = AssetMonitor(topo.sim, "prads2")
    topo.add_nf(src)
    topo.add_nf(dst)
    topo.set_default_route("prads1")
    return topo, src, dst


def swap_two_of_one_flow(nf, injected):
    """Forge ``nf``'s processing log with the completions of two packets
    of one flow swapped: the order judge's known-bad twin of a run."""
    flow_of = {p.uid: p.flow_key() for p in injected}
    rows = list(nf.processing_log)
    first = {}
    for index, (_when, uid) in enumerate(rows):
        earlier = first.setdefault(flow_of[uid], index)
        if earlier != index:
            (t_a, uid_a), (t_b, uid_b) = rows[earlier], rows[index]
            rows[earlier], rows[index] = (t_a, uid_b), (t_b, uid_a)
            nf.processing_log = rows
            return
    raise AssertionError("%s processed no two packets of one flow" % nf.name)


def move_across_leaves(guarantee, n_flows=60, rate=2500.0,
                       data_packets=20, **deployment):
    """A move of prads1's flows to prads2 halfway through a replay."""
    topo, src, dst = build(**deployment)
    trace = build_university_cloud_trace(
        TraceConfig(seed=9, n_flows=n_flows, data_packets=data_packets)
    )
    replayer = TraceReplayer(topo.sim, topo.inject, trace.packets, rate)
    replayer.start()
    holder = {}
    topo.sim.schedule(
        replayer.duration_ms / 2,
        lambda: holder.update(op=topo.controller.move(
            "prads1", "prads2", LOCAL, guarantee=guarantee)),
    )
    topo.sim.run()
    return topo, src, dst, replayer, holder["op"].done.value


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
        ((done_at, _uid),) = src.processing_log
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
        topo, src, dst, _replayer, report = move_across_leaves("lf")
        assert report.aborted is None
        assert report.packets_dropped == 0
        assert dst.conn_count() == 60
        assert nf_ports(topo.switch, [src, dst]) == [
            "leaf-prads1", "leaf-prads2"]
        ok, detail = check_loss_free(topo.switch, [src, dst])
        assert ok, detail

    def test_order_preserving_move_across_leaves(self):
        topo, src, dst, replayer, report = move_across_leaves(
            "op", n_flows=40, rate=4000.0)
        assert report.aborted is None
        ok, detail = check_order_preserving(
            topo.switch, [src, dst], replayer.injected)
        assert ok, detail


class TestTwoTierJudgesAreNotBlind:
    """Negative controls: a judge reading NF names as spine ports saw
    no forwarding on two tiers and passed whatever was lost."""

    def test_a_cleared_processing_log_fails_the_judge(self):
        topo, src, dst, _replayer, _report = move_across_leaves("ng")
        clear_log(src.processing_log)
        ok, detail = check_loss_free(topo.switch, [src, dst])
        assert not ok
        assert detail.startswith("missing=")


#: {two-tier, one switch} x {classic, shards 2, batching, offload,
#: faults}; the two-tier cells keep their mode's name as their id.
MODE_GRID = [
    pytest.param(topology, modes, id=prefix + (",".join(modes) or "classic"))
    for topology, prefix in (
        (TwoTierTopology, ""), (Deployment, "one-switch-"))
    for modes in ({}, {"shards": 2}, {"batching": True}, {"offload": True},
                  {"faults": "seed=3,drop=0.05"})
]


@pytest.mark.parametrize("topology, modes", MODE_GRID)
def test_every_deployment_mode_runs_across_leaves(topology, modes):
    """The spine is the deployment's switch, so a mode applies as on
    one switch: a loss-free move across leaves still loses nothing, and
    the judges pass it. Its known-bad twin, the same run with its
    forward log cleared, fails both judges for judging nothing."""
    topo, src, dst, replayer, report = move_across_leaves(
        "lf", n_flows=30, data_packets=10, topology=topology,
        observe=True, audit=True, **modes)
    assert report.aborted is None
    assert dst.conn_count() == 30
    assert topo.obs.violations() == []
    processed = {uid for nf in (src, dst) for (_t, uid) in nf.processing_log}
    assert {p.uid for p in replayer.injected} <= processed
    assert check_loss_free(topo.switch, [src, dst]) == (True, "")
    clear_log(topo.switch.forward_log)
    for ok, detail in (
        check_loss_free(topo.switch, [src, dst]),
        check_order_preserving(topo.switch, [src, dst], replayer.injected),
    ):
        assert not ok and detail.startswith("judged no packet"), detail


@pytest.mark.parametrize("topology, modes", MODE_GRID)
def test_a_no_guarantee_move_fails_the_judge_in_every_mode(topology, modes):
    topo, src, dst, _replayer, report = move_across_leaves(
        "ng", topology=topology, **modes)
    assert report.packets_dropped > 0
    ok, detail = check_loss_free(topo.switch, [src, dst])
    assert not ok and detail.startswith("missing="), detail


@pytest.mark.parametrize("topology, modes", MODE_GRID)
def test_swapped_completions_fail_the_order_judge_in_every_mode(
        topology, modes):
    """An order-preserving move passes the order judge over the replay's
    packets; its known-bad twin, the same run with two completions of
    one flow swapped, fails it."""
    topo, src, dst, replayer, report = move_across_leaves(
        "op", n_flows=30, data_packets=10, topology=topology, **modes)
    assert report.aborted is None
    verdict = check_order_preserving(
        topo.switch, [src, dst], replayer.injected)
    assert verdict == (True, "") and verdict.judged > 0, verdict
    swap_two_of_one_flow(src, replayer.injected)
    ok, detail = check_order_preserving(
        topo.switch, [src, dst], replayer.injected)
    assert not ok and detail.startswith("flow "), detail
