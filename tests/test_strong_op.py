"""Tests for the technical-report strong order-preserving move."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.move import Guarantee
from repro.flowspace import Filter
from repro.harness import (
    LOCAL_NET_FILTER,
    build_multi_instance_deployment,
    check_loss_free,
    check_order_preserving,
    run_move_experiment,
)
from repro.net.link import Link
from repro.net.packet import reset_uid_counter
from repro.sim.rng import derive_rng
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace


class TestStrongOrderPreserving:
    def test_parse_alias(self):
        assert Guarantee.parse("op-strong") is \
            Guarantee.ORDER_PRESERVING_STRONG

    def test_loss_free_and_globally_ordered(self):
        result = run_move_experiment("op-strong", n_flows=60,
                                     rate_pps=4000.0, seed=3)
        assert result.report.aborted is None
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail
        dep = result.deployment
        ok, detail = check_order_preserving(
            dep.switch, [dep.nfs["inst1"], dep.nfs["inst2"]],
            result.replayer.injected, per_flow=False,
        )
        assert ok, detail

    def test_redirect_phase_recorded(self):
        result = run_move_experiment("op-strong", n_flows=30, seed=5)
        phases = result.report.phases
        assert "redirected" in phases
        assert phases["redirected"] < phases["state-transferred"]
        assert "dst-released" in phases

    def test_quiescent_flowspace_completes(self, two_monitor_deployment):
        dep, _src, _dst = two_monitor_deployment
        op = dep.controller.move(
            "prads1", "prads2", Filter.wildcard(), guarantee="op-strong"
        )
        dep.sim.run()
        assert op.done.triggered
        assert op.done.value.aborted is None

    def test_detours_traffic_through_controller(self):
        strong = run_move_experiment("op-strong", n_flows=60,
                                     rate_pps=4000.0, seed=3)
        dep = strong.deployment
        # The redirect rule sent a substantial stream of packet-ins to
        # the controller (the price of not trusting the sw→src path).
        assert dep.controller.packet_ins_received > 50
        assert strong.report.affected_uids

    def test_survives_wire_jitter_loss_free(self):
        """With a reordering sw→src path (the classic variant's excluded
        assumption), strong OP still loses nothing, and every packet the
        controller sequenced is in order."""
        reset_uid_counter()
        dep, (a, b) = build_multi_instance_deployment(2)
        rng = derive_rng(11, "strong-jitter")
        dep.switch._ports["inst1"].link = Link(
            dep.sim, latency_ms=0.2, jitter_ms=0.5, rng=rng
        )
        trace = build_university_cloud_trace(
            TraceConfig(seed=11, n_flows=40, data_packets=15)
        )
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 4000.0)
        replayer.start()
        holder = {}
        dep.sim.schedule(
            replayer.duration_ms / 2,
            lambda: holder.update(op=dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="op-strong")),
        )
        dep.sim.run()
        report = holder["op"].done.value
        assert report.aborted is None
        assert report.packets_dropped == 0
        ok, detail = check_loss_free(dep.switch, [a, b])
        assert ok, detail
        # Packets the controller sequenced (processed at the destination)
        # are in switch-arrival order among themselves.
        dst_uids = {uid for (_t, uid) in b.processing_log}
        at_dst = [p for p in replayer.injected if p.uid in dst_uids]
        verdict = check_order_preserving(dep.switch, [b], at_dst,
                                         per_flow=False)
        assert verdict == (True, ""), verdict
        assert verdict.judged == len(dst_uids) > 0

    @given(seed=st.integers(0, 300),
           rate=st.sampled_from([2000.0, 5000.0]))
    @settings(max_examples=8)
    def test_property_sweep(self, seed, rate):
        reset_uid_counter()
        result = run_move_experiment("op-strong", n_flows=25,
                                     rate_pps=rate, seed=seed,
                                     data_packets=8)
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail
