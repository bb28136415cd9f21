"""End-to-end tests for the move operation (§5.1)."""

import pytest

from repro.controller.move import Guarantee
from repro.flowspace import Filter, FiveTuple
from repro.harness import run_move_experiment
from repro.nf import Scope
from tests.conftest import counter_total, make_packet


class TestGuaranteeParsing:
    def test_aliases(self):
        assert Guarantee.parse("ng") is Guarantee.NONE
        assert Guarantee.parse("loss-free") is Guarantee.LOSS_FREE
        assert Guarantee.parse("LF") is Guarantee.LOSS_FREE
        assert Guarantee.parse("lf+op") is Guarantee.ORDER_PRESERVING
        assert Guarantee.parse(Guarantee.NONE) is Guarantee.NONE

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            Guarantee.parse("super-safe")


class TestMoveValidation:
    def test_early_release_requires_parallel(self, two_monitor_deployment):
        dep, _src, _dst = two_monitor_deployment
        with pytest.raises(ValueError):
            dep.controller.move(
                "prads1", "prads2", Filter.wildcard(),
                parallel=False, early_release=True,
            )

    def test_early_release_single_scope_only(self, two_monitor_deployment):
        dep, _src, _dst = two_monitor_deployment
        with pytest.raises(ValueError):
            dep.controller.move(
                "prads1", "prads2", Filter.wildcard(),
                scope="per+multi", early_release=True,
            )


class TestNoGuaranteeMove:
    def test_moves_state_and_reroutes(self):
        result = run_move_experiment("ng", n_flows=40)
        assert result.report.total_chunks == 40
        dep = result.deployment
        assert dep.nfs["inst2"].conn_count() == 40
        assert dep.nfs["inst1"].conn_count() == 0

    def test_drops_packets(self):
        result = run_move_experiment("ng", n_flows=40)
        assert result.report.packets_dropped > 0
        assert not result.loss_free

    def test_parallel_faster_than_sequential(self):
        sequential = run_move_experiment("ng", parallel=False, n_flows=60)
        parallel = run_move_experiment("ng", parallel=True, n_flows=60)
        assert parallel.duration_ms < sequential.duration_ms

    def test_drop_count_scales_with_rate(self):
        slow = run_move_experiment("ng", n_flows=40, rate_pps=1000.0)
        fast = run_move_experiment("ng", n_flows=40, rate_pps=8000.0)
        assert fast.report.packets_dropped > slow.report.packets_dropped


class TestLossFreeMove:
    def test_no_packet_loss(self):
        result = run_move_experiment("lf", n_flows=40)
        assert result.report.packets_dropped == 0
        assert result.loss_free, result.loss_free_detail

    def test_events_carry_affected_packets(self):
        result = run_move_experiment("lf", n_flows=40)
        assert result.report.packets_in_events > 0
        assert result.report.affected_uids

    def test_state_updates_reflected_at_destination(self):
        result = run_move_experiment("lf", n_flows=40)
        dep = result.deployment
        # Loss-free first half: every packet of every flow is reflected in
        # exactly one instance's connection counters.
        total = sum(
            record.packets
            for nf in dep.nfs.values()
            for record in nf.conns.values()
        )
        processed = sum(nf.packets_processed for nf in dep.nfs.values())
        assert total == processed

    def test_slower_than_ng_but_safe(self):
        ng = run_move_experiment("ng", n_flows=60)
        lf = run_move_experiment("lf", n_flows=60)
        assert lf.duration_ms > ng.duration_ms
        assert lf.report.packets_dropped == 0

    def test_affected_packets_pay_latency(self):
        result = run_move_experiment("lf", n_flows=60)
        assert result.latency.affected_count > 0
        assert result.latency.average_added_ms > 0

    def test_early_release_reduces_added_latency(self):
        plain = run_move_experiment("lf", n_flows=80, rate_pps=4000.0)
        released = run_move_experiment(
            "lf", early_release=True, n_flows=80, rate_pps=4000.0
        )
        assert released.loss_free
        assert (
            released.latency.average_added_ms < plain.latency.average_added_ms
        )

    @pytest.mark.parametrize("clients, server", [
        ("10.0.1.%d", "203.0.113.6"),   # clients sort first
        ("192.168.1.%d", "10.9.9.9"),   # the server does
    ])
    def test_late_locked_rules_are_all_disabled(
            self, two_monitor_deployment, clients, server):
        """Late locking enables one DROP rule per flow, stored in
        canonical orientation; the closing ``disableEvents`` of the
        (symmetric, client-prefix) move filter must cover every one of
        them whichever endpoint sorts first."""
        dep, src, dst = two_monitor_deployment
        flows = [FiveTuple(clients % i, 40000 + i, server, 80)
                 for i in range(1, 13)]
        for round_ in range(30):
            for index, flow in enumerate(flows):
                at = 0.5 * (round_ * len(flows) + index)
                packet = make_packet(
                    flow if round_ % 2 == 0 else flow.reversed(),
                    flags=("ACK",) if round_ else ("SYN",), created_at=at)
                dep.sim.schedule(at, dep.inject, packet)
        ops = []
        dep.sim.schedule(40.0, lambda: ops.append(dep.controller.move(
            "prads1", "prads2",
            Filter({"nw_src": clients % 0 + "/24"}, symmetric=True),
            scope="per", guarantee="lf", early_release=True)))
        dep.sim.run()
        assert ops[0].report.aborted is None
        assert (src.conn_count(), dst.conn_count()) == (0, 12)
        assert src.event_rule_count == 0

    def test_sequential_loss_free_also_safe(self):
        result = run_move_experiment("lf", parallel=False, n_flows=40)
        assert result.loss_free, result.loss_free_detail


class TestOrderPreservingMove:
    def test_loss_free_and_order_preserving(self):
        result = run_move_experiment("op", n_flows=40)
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail

    def test_buffers_packets_at_destination(self):
        result = run_move_experiment("op", n_flows=60, rate_pps=5000.0)
        assert result.report.packets_buffered_at_dst > 0
        # ... and the destination keeps no record of them past the move.
        assert result.deployment.nfs["inst2"]._buffer_watches == {}

    def test_costs_more_than_lf(self):
        lf = run_move_experiment("lf", n_flows=60)
        op = run_move_experiment("op", n_flows=60)
        assert op.duration_ms > lf.duration_ms

    def test_phases_recorded(self):
        result = run_move_experiment("op", n_flows=30)
        phases = result.report.phases
        assert "phase1-installed" in phases
        assert "phase2-installed" in phases
        assert "dst-released" in phases
        assert phases["phase1-installed"] < phases["phase2-installed"]

    def test_op_with_early_release(self):
        result = run_move_experiment("op", early_release=True, n_flows=40)
        assert result.loss_free
        assert result.order_preserving, result.order_detail

    def test_quiescent_flowspace_does_not_wedge(self, two_monitor_deployment):
        # No traffic at all: the two-phase update must still complete via
        # the first-packet timeout.
        dep, src, dst = two_monitor_deployment
        op = dep.controller.move(
            "prads1", "prads2", Filter.wildcard(), guarantee="op"
        )
        dep.sim.run()
        assert op.done.triggered
        assert op.done.value.packets_in_events == 0


class TestMoveScopes:
    def test_multiflow_scope_moves_assets(self):
        result = run_move_experiment("lf", scope="multi", n_flows=30)
        dep = result.deployment
        assert result.report.chunks_moved.get("multiflow", 0) > 0
        assert len(dep.nfs["inst2"].assets) > 0

    def test_per_and_multi_scope(self):
        result = run_move_experiment("lf", scope="per+multi", n_flows=30)
        assert result.report.chunks_moved.get("perflow") == 30
        assert result.report.chunks_moved.get("multiflow", 0) > 0

    def test_filter_granularity_single_host(self, two_monitor_deployment):
        from repro.traffic import TraceConfig, TraceReplayer, \
            build_university_cloud_trace

        dep, src, dst = two_monitor_deployment
        trace = build_university_cloud_trace(TraceConfig(seed=2, n_flows=40))
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 2500.0)
        replayer.start()
        one_client = trace.flows[0].five_tuple.src_ip
        flt = Filter({"nw_src": one_client}, symmetric=True)
        holder = {}
        dep.sim.schedule(
            replayer.duration_ms / 2,
            lambda: holder.update(op=dep.controller.move(
                "prads1", "prads2", flt, guarantee="lf")),
        )
        dep.sim.run()
        report = holder["op"].done.value
        assert 0 < report.total_chunks < 40
        assert src.conn_count() + dst.conn_count() == 40


class TestAllflowsScope:
    @pytest.mark.parametrize("guarantee", ["ng", "lf", "op"])
    def test_move_including_allflows_completes(self, guarantee,
                                               two_monitor_deployment):
        from repro.nf import Scope

        dep, src, dst = two_monitor_deployment
        flow = __import__("repro").FiveTuple("10.0.1.2", 1, "203.0.113.5", 80)
        from tests.conftest import make_packet

        src.receive(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        op = dep.controller.move(
            "prads1", "prads2", Filter.wildcard(),
            scope=(Scope.PERFLOW, Scope.ALLFLOWS),
            guarantee=guarantee,
        )
        dep.sim.run()
        assert op.done.triggered
        report = op.done.value
        assert report.aborted is None
        assert report.chunks_moved.get("allflows") == 1
        assert dst.stats["packets"] == 1

    def test_internal_errors_fail_done_loudly(self, two_monitor_deployment):
        dep, src, dst = two_monitor_deployment

        # Sabotage the source client so the delete explodes with a
        # non-NFCrash error mid-operation (raised inside the op process).
        def broken_delete(flowids):
            raise RuntimeError("injected fault")

        dep.controller.client("prads1").del_perflow = broken_delete
        from tests.conftest import make_packet

        flow = __import__("repro").FiveTuple("10.0.1.2", 1, "203.0.113.5", 80)
        src.receive(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        op = dep.controller.move("prads1", "prads2", Filter.wildcard(),
                                 guarantee="lf")
        dep.sim.run()
        assert op.done.triggered
        assert not op.done.ok
        assert "injected fault" in str(op.done.exception)
        assert op.report.aborted is not None


@pytest.mark.obs
class TestTraceBackedInvariants:
    """The no-double-processing invariant, checked from the trace itself.

    Every ``nf.process`` point record carries the packet uid and the
    instance that processed it; a loss-free order-preserving move must
    leave every uid processed exactly once across both instances.
    """

    @pytest.mark.parametrize("guarantee", ["lf", "op", "op-strong"])
    def test_no_packet_processed_twice(self, guarantee):
        result = run_move_experiment(
            guarantee=guarantee, n_flows=40, observe=True
        )
        assert result.report.aborted is None
        exporter = result.deployment.obs.exporter
        counts = {}
        for record in exporter.records:
            if record["name"] == "nf.process":
                counts[record["uid"]] = counts.get(record["uid"], 0) + 1
        assert counts, "expected nf.process records from an observed run"
        doubles = {uid: n for uid, n in counts.items() if n != 1}
        assert doubles == {}
        # The trace-derived view agrees with the NFs' own processing logs.
        assert counts == result.deployment.processed_uid_counts()

    def test_trace_and_switch_agree_on_forwarded_events(self):
        result = run_move_experiment(guarantee="lf", n_flows=30, observe=True)
        metrics = result.deployment.obs.metrics
        # Every buffered-then-released packet left via the packet-out path.
        released = counter_total(metrics, "ctrl.move.buffered_packets_released")
        packet_outs = counter_total(metrics, "ctrl.packet_outs")
        assert packet_outs >= released > 0
