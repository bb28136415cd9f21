"""Fault injection and control-plane reliability (unreliable-network PR).

Covers the seeded :class:`~repro.faults.FaultPlan` machinery end to end:

* spec parsing and per-channel injector determinism;
* the zero-perturbation contract — no plan installed means the classic
  code paths run byte-for-byte unchanged;
* at-most-once southbound RPCs (request ids + NF-side dedup) so a
  replayed ``put_perflow`` never double-applies;
* the headline acceptance run — a loss-free + order-preserving move
  completes under 5% control-channel loss with every packet processed
  exactly once and a nonzero retry count;
* failure semantics of the operations themselves: aborted copies report
  how many chunks already landed, crash-during-share keeps the live
  replicas convergent, and the failover app's health loop/subscriptions
  do not leak.
"""

import pytest

from repro.apps import FastFailureRecovery
from repro.faults import ChannelFaults, CrashSpec, FaultPlan
from repro.flowspace import Filter, FiveTuple
from repro.harness import (
    Deployment,
    build_multi_instance_deployment,
    run_move_experiment,
)
from repro.net.packet import reset_uid_counter
from repro.nf import EventAction
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator

from tests.conftest import make_packet
from tests.test_determinism import snapshot

pytestmark = pytest.mark.faults


def feed(dep, nf, count=5, client="10.0.1.2"):
    for i in range(count):
        flow = FiveTuple(client, 30000 + i, "203.0.113.5", 80)
        nf.receive(make_packet(flow, flags=("SYN",)))
    dep.sim.run()


class TestFaultPlanSpec:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=9,drop=0.1,dup=0.05,delay=0.2,delay_ms=15,"
            "partition=10:40;90:95,crash=inst2@55,crash=inst3#7"
        )
        assert plan.seed == 9
        rule = plan.channels[0]
        assert rule.drop_p == 0.1
        assert rule.dup_p == 0.05
        assert rule.delay_p == 0.2
        assert rule.delay_ms == 15.0
        assert rule.partitions == [(10.0, 40.0), (90.0, 95.0)]
        crashes = {c.nf_name: c for c in plan.crashes}
        assert crashes["inst2"].at_ms == 55.0
        assert crashes["inst3"].on_nth_rpc == 7
        assert plan.crashes_for("inst2") == [crashes["inst2"]]
        assert plan.crashes_for("nobody") == []

    def test_default_channels_exclude_switch(self):
        plan = FaultPlan.from_spec("drop=0.5")
        assert plan.injector_for("ctrl->inst1") is not None
        assert plan.injector_for("inst1->ctrl") is not None
        assert plan.injector_for("ctrl->sw") is None
        assert plan.injector_for("sw->ctrl") is None

    def test_explicit_channels_override_default(self):
        plan = FaultPlan.from_spec("drop=0.5,channels=ctrl->inst2")
        assert plan.injector_for("ctrl->inst2") is not None
        assert plan.injector_for("ctrl->inst1") is None

    def test_delay_probability_defaults_magnitude(self):
        plan = FaultPlan.from_spec("delay=0.3")
        assert plan.channels[0].delay_ms == 10.0

    def test_inert_spec_has_no_rules(self):
        plan = FaultPlan.from_spec("seed=4")
        assert plan.channels == []
        assert plan.injector_for("ctrl->inst1") is None

    @pytest.mark.parametrize("spec", [
        "bogus=1",
        "drop",
        "crash=inst1",
        "drop=2.0",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_crash_spec_validation(self):
        with pytest.raises(ValueError):
            CrashSpec("inst1").validate()
        with pytest.raises(ValueError):
            CrashSpec("inst1", at_ms=5.0, on_nth_rpc=2).validate()
        with pytest.raises(ValueError):
            CrashSpec("inst1", on_nth_rpc=0).validate()

    def test_partition_window_drops_everything(self):
        rule = ChannelFaults(pattern="*", partitions=[(10.0, 20.0)])
        plan = FaultPlan(seed=1, channels=[rule])
        injector = plan.injector_for("ctrl->inst1")
        assert injector.on_send(15.0).deliver is False
        assert injector.on_send(25.0).deliver is True
        assert injector.on_send(20.0).deliver is True  # half-open window
        assert injector.dropped == 1

    def test_same_seed_same_verdicts(self):
        def verdicts():
            injector = FaultPlan.from_spec(
                "seed=11,drop=0.3,dup=0.3,delay=0.3"
            ).injector_for("ctrl->inst1")
            return [
                (v.deliver, v.copies, v.extra_delay_ms)
                for v in (injector.on_send(0.0) for _ in range(200))
            ]

        assert verdicts() == verdicts()

    def test_channels_draw_independent_streams(self):
        plan = FaultPlan.from_spec("seed=11,drop=0.3")
        a = plan.injector_for("ctrl->inst1")
        b = plan.injector_for("ctrl->inst2")
        drops_a = [a.on_send(0.0).deliver for _ in range(100)]
        drops_b = [b.on_send(0.0).deliver for _ in range(100)]
        assert drops_a != drops_b


class TestNoPlanIsInert:
    """Without a fault plan the reliability layer must not exist."""

    def test_no_plan_keeps_runs_identical(self):
        reset_uid_counter()
        first = snapshot(run_move_experiment("op", n_flows=40, seed=5))
        reset_uid_counter()
        second = snapshot(run_move_experiment("op", n_flows=40, seed=5))
        assert first == second

    def test_classic_mode_machinery_off(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 3)
        op = dep.controller.move("inst1", "inst2", Filter.wildcard(),
                                 guarantee="lf")
        dep.sim.run()
        assert op.done.triggered
        assert dep.controller.reliable is False
        for client in dep.controller.clients.values():
            assert client.stats["retries"] == 0
            assert client.stats["timeouts"] == 0
            assert not client.nf._rpc_seen  # no request ids were issued
            assert client.to_nf.faults is None
            assert client.from_nf.faults is None
        assert op.done.value.retries == 0

    def test_plan_switches_reliable_mode_on(self):
        dep, _ = build_multi_instance_deployment(
            2, deployment_kwargs={"faults": "seed=1"}
        )
        assert dep.controller.reliable is True
        assert dep.faults is not None


class TestIdempotentReplay:
    def test_rpc_deliver_is_at_most_once(self):
        sim = Simulator()
        nf = AssetMonitor(sim, "nf1")
        calls = []
        nf.rpc_deliver(1, lambda: calls.append("run"))
        assert calls == ["run"]
        # A duplicate arriving while the call is in flight is absorbed.
        nf.rpc_deliver(1, lambda: calls.append("run"))
        assert calls == ["run"]
        # Once the response is cached, a replay re-sends it instead of
        # re-executing the handler.
        nf.rpc_complete(1, lambda: calls.append("resend"))
        nf.rpc_deliver(1, lambda: calls.append("run"))
        assert calls == ["run", "resend"]
        assert nf.rpcs_deduplicated == 2
        assert nf.rpcs_delivered == 3

    def test_duplicated_put_applies_once(self):
        """Satellite: a replayed put_perflow must never double-apply."""
        dep, (a, b) = build_multi_instance_deployment(
            2, deployment_kwargs={"faults": "seed=2,dup=0.7"}
        )
        feed(dep, a, 4)
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(), "per")
        dep.sim.run()
        assert op.done.triggered
        plan = dep.faults
        assert plan.messages_duplicated > 0
        assert a.rpcs_deduplicated + b.rpcs_deduplicated > 0
        # State landed exactly once despite the duplicate deliveries.
        assert b.conn_count() == a.conn_count() == 4

    def test_duplicated_multiflow_copy_does_not_inflate(self):
        dep, (a, b) = build_multi_instance_deployment(
            2, deployment_kwargs={"faults": "seed=2,dup=0.7"}
        )
        feed(dep, a, 3)
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(), "multi")
        dep.sim.run()
        assert op.done.triggered
        asset = b.asset_for("10.0.1.2")
        assert asset is not None
        assert asset.connections == a.asset_for("10.0.1.2").connections


    def test_dedup_table_is_bounded(self):
        """Entries leave once no caller can still ask for them."""
        dep, (a,) = build_multi_instance_deployment(
            1, deployment_kwargs={"faults": "seed=4,drop=0.1"}
        )
        client = dep.controller.clients["inst1"]
        sizes = []
        for _ in range(2000):
            done = client.enable_events(Filter.wildcard(), EventAction.DROP)
            dep.sim.run()
            assert done.ok
            sizes.append(len(a._rpc_seen))
        assert client.stats["retries"] > 0
        # One retry budget's worth of calls, however many came before.
        assert max(sizes) < 100
        assert max(sizes[1000:]) <= max(sizes[:1000])
        # A replay of a long-evicted id is absorbed: not re-run, no error.
        rules, deduplicated = a.event_rule_count, a.rpcs_deduplicated
        a.rpc_deliver(1, lambda: pytest.fail("evicted request re-ran"))
        assert a.event_rule_count == rules
        assert a.rpcs_deduplicated == deduplicated + 1


class TestFaultedSwitchChannel:
    """Flow-mods retry and dedup once the switch channel itself faults."""

    @pytest.mark.parametrize("guarantee", ["lf", "op"])
    def test_lossy_switch_channel_never_wedges(self, guarantee):
        result = run_move_experiment(
            guarantee=guarantee, n_flows=30,
            fault_plan="seed=1,drop=0.2,channels=ctrl->sw",
        )
        report = result.report  # done fired: the run did not wedge
        switch_client = result.deployment.controller.switch_client
        assert result.deployment.faults.messages_dropped > 0
        assert switch_client.stats["retries"] > 0
        assert report.aborted is None or "to sw gave up" in report.aborted

    @pytest.mark.parametrize("guarantee", ["lf", "op"])
    def test_dead_switch_channel_aborts_naming_the_switch(self, guarantee):
        result = run_move_experiment(
            guarantee=guarantee, n_flows=30,
            fault_plan="seed=1,partition=0:100000,channels=ctrl->sw",
        )
        assert "to sw gave up after 7 attempts" in result.report.aborted
        assert result.deployment.controller.switch_client.stats["failures"] == 1

    def test_retried_install_applies_once(self):
        """First attempt lost, the retry delivered twice: one flow-mod."""
        dep = Deployment(
            faults="seed=1,dup=1.0,partition=0:10,channels=ctrl->sw"
        )
        applied = []
        real_install = dep.switch.install
        dep.switch.install = lambda *args: (
            applied.append(args), real_install(*args))[1]
        flt = Filter({"nw_src": "10.0.1.0/24"})
        done = dep.controller.switch_client.install(flt, ["inst1"], 300)
        dep.sim.run()
        assert done.ok
        assert dep.controller.switch_client.stats["retries"] == 1
        assert dep.faults.messages_duplicated == 1
        assert len(applied) == 1
        assert dep.switch.table.find(flt, 300) is not None


class TestLossyMoveAcceptance:
    """The headline criterion: LF+OP under 5% control-channel loss."""

    def test_exactly_once_under_loss(self):
        result = run_move_experiment(
            guarantee="op",
            n_flows=100,
            rate_pps=2500.0,
            data_packets=20,
            seed=7,
            fault_plan="seed=3,drop=0.05",
        )
        report = result.report
        assert report.aborted is None, report.aborted
        assert report.retries > 0
        counts = result.deployment.processed_uid_counts()
        missing = [p.uid for p in result.replayer.injected
                   if p.uid not in counts]
        duplicated = {uid: n for uid, n in counts.items() if n > 1}
        assert missing == []
        assert duplicated == {}
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail
        assert result.deployment.faults.messages_dropped > 0

    def test_loss_with_duplication_and_delay(self):
        result = run_move_experiment(
            guarantee="lf",
            n_flows=50,
            rate_pps=2000.0,
            seed=7,
            fault_plan="seed=5,drop=0.03,dup=0.05,delay=0.1,delay_ms=5",
        )
        assert result.report.aborted is None, result.report.aborted
        counts = result.deployment.processed_uid_counts()
        assert all(n == 1 for n in counts.values())
        assert result.loss_free, result.loss_free_detail


class TestCrashSemantics:
    def test_crash_spec_kills_nf_at_time(self):
        dep, (a, b) = build_multi_instance_deployment(
            2, deployment_kwargs={"faults": "crash=inst2@5"}
        )
        dep.sim.run(until=10.0)
        assert b.failed
        assert not a.failed

    def test_move_to_crashed_dst_aborts_with_restore(self):
        dep, (a, b) = build_multi_instance_deployment(
            2, deployment_kwargs={"faults": "crash=inst2#2"}
        )
        feed(dep, a, 4)
        op = dep.controller.move("inst1", "inst2", Filter.wildcard(),
                                 guarantee="lf")
        dep.sim.run()
        report = op.done.value
        assert report.aborted is not None
        # Source state restored so traffic keeps flowing at inst1.
        assert a.conn_count() == 4

    def test_aborted_copy_reports_partial_chunks(self):
        """Satellite: the report says how many chunks already landed."""
        dep, (a, b) = build_multi_instance_deployment(
            2, deployment_kwargs={"faults": "crash=inst2#3"}
        )
        feed(dep, a, 6)
        op = dep.controller.copy("inst1", "inst2", Filter.wildcard(), "per")
        dep.sim.run()
        report = op.done.value
        assert report.aborted is not None
        assert report.partial_chunks >= 1
        assert any("chunks already delivered" in n for n in report.notes)

    def test_crash_during_strong_share_keeps_replicas_convergent(self):
        """Satellite: strong consistency means all live replicas apply
        an update or none of them do — a mid-session crash must not
        leave the survivors divergent."""
        dep, (a, b, c) = build_multi_instance_deployment(
            3, deployment_kwargs={"faults": "crash=inst2@18"}
        )
        share = dep.controller.share(
            ["inst1", "inst2", "inst3"],
            Filter.wildcard(),
            scope="multi",
            consistency="strong",
            group_by="host",
        )
        dep.sim.run()
        assert share.started.triggered
        # Default route sends everything to inst1; its updates fan out
        # to inst2 until the crash, then to inst3 alone.
        for i in range(8):
            flow = FiveTuple("10.0.1.5", 40000 + i, "203.0.113.9", 80)
            dep.inject(make_packet(flow, flags=("SYN",)))
            dep.sim.run(until=dep.sim.now + 6.0)
        dep.sim.run()
        assert b.failed
        # Every live replica holds the same view of the shared host.
        asset_a = a.asset_for("10.0.1.5")
        asset_c = c.asset_for("10.0.1.5")
        assert asset_a is not None and asset_c is not None
        assert asset_a.connections == asset_c.connections
        share.stop()
        dep.sim.run()
        assert not c.failed and not a.failed


class TestFailoverHygiene:
    """Satellites: subscription cleanup and health-loop termination."""

    def _deployment(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        app = FastFailureRecovery(dep.controller, health_poll_ms=10.0)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        return dep, app, a, b

    def test_stop_releases_subscriptions(self):
        dep, app, a, b = self._deployment()
        ctrl = dep.controller
        before = len(ctrl._packet_interests) + len(ctrl._event_interests)
        assert before >= 3  # the three notify() subscriptions
        app.stop()
        dep.sim.run()
        after = len(ctrl._packet_interests) + len(ctrl._event_interests)
        assert after == before - 3
        assert app._subscriptions == {}

    def test_failover_releases_primary_subscriptions(self):
        dep, app, a, b = self._deployment()
        ctrl = dep.controller
        before = len(ctrl._packet_interests) + len(ctrl._event_interests)
        a.failed = True
        app.recover("inst1")
        dep.sim.run()
        after = len(ctrl._packet_interests) + len(ctrl._event_interests)
        assert after == before - 3
        assert "inst1" not in app._subscriptions

    def test_health_loop_exits_after_last_recovery(self):
        dep, app, a, b = self._deployment()
        app.watch()
        a.failed = True
        dep.sim.run(until=dep.sim.now + 200.0)
        assert app.recoveries == 1
        assert app._watching is False  # loop ended, queue can drain
        # With no watcher alive the sim must now run dry on its own.
        dep.sim.run()
