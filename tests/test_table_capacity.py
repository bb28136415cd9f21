"""Tests for the flow-table capacity limit and its baseline implications."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import Deployment
from repro.net import LOW_PRIORITY, MID_PRIORITY, Link, Switch, TableFullError
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator
from tests.conftest import make_packet


class TestCapacityLimit:
    def test_install_beyond_capacity_fails(self, sim):
        switch = Switch(sim, table_capacity=2)
        switch.attach("a", lambda p: None, Link(sim))
        first = switch.install(Filter({"tp_dst": 1}), ["a"], MID_PRIORITY)
        second = switch.install(Filter({"tp_dst": 2}), ["a"], MID_PRIORITY)
        third = switch.install(Filter({"tp_dst": 3}), ["a"], MID_PRIORITY)
        sim.run()
        assert first.ok and second.ok
        assert not third.ok
        assert isinstance(third.exception, TableFullError)
        assert switch.installs_rejected == 1
        assert len(switch.table) == 2

    def test_replacing_existing_rule_always_allowed(self, sim):
        switch = Switch(sim, table_capacity=1)
        switch.attach("a", lambda p: None, Link(sim))
        switch.attach("b", lambda p: None, Link(sim))
        switch.install(Filter.wildcard(), ["a"], MID_PRIORITY)
        sim.run()
        replace = switch.install(Filter.wildcard(), ["b"], MID_PRIORITY)
        sim.run()
        assert replace.ok
        assert switch.table.find(Filter.wildcard(), MID_PRIORITY).actions == \
            ("b",)

    def test_unbounded_by_default(self, sim):
        switch = Switch(sim)
        switch.attach("a", lambda p: None, Link(sim))
        for port in range(50):
            switch.install(Filter({"tp_dst": port}), ["a"], MID_PRIORITY)
        sim.run()
        assert len(switch.table) == 50

    def test_remove_frees_capacity(self, sim):
        switch = Switch(sim, table_capacity=1)
        switch.attach("a", lambda p: None, Link(sim))
        switch.install(Filter({"tp_dst": 1}), ["a"], MID_PRIORITY)
        sim.run()
        switch.remove(Filter({"tp_dst": 1}), MID_PRIORITY)
        sim.run()
        again = switch.install(Filter({"tp_dst": 2}), ["a"], MID_PRIORITY)
        sim.run()
        assert again.ok


class TestRerouteOnlyHitsCapacity:
    def test_pinning_needs_per_flow_rules(self):
        """The reroute-only baseline pins each existing flow with an
        exact-match rule: with a small TCAM it simply cannot scale,
        while OpenNF's move uses O(1) rules regardless of flow count."""
        from repro.baselines import RerouteOnlyScaler
        from repro.harness import LOCAL_NET_FILTER

        dep = Deployment()
        dep.switch.table_capacity = 10
        src = AssetMonitor(dep.sim, "inst1")
        dst = AssetMonitor(dep.sim, "inst2")
        dep.add_nf(src)
        dep.add_nf(dst)
        dep.set_default_route("inst1")
        for index in range(30):
            flow = FiveTuple("10.0.1.%d" % (index + 1), 30000 + index,
                             "203.0.113.5", 80)
            dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()

        scaler = RerouteOnlyScaler(dep.controller)
        scaler.scale_out("inst1", "inst2", LOCAL_NET_FILTER)
        dep.sim.run()
        # Pin rules overflowed the table.
        assert dep.switch.installs_rejected > 0

        # An OpenNF move of the same 30 flows needs a single rule: on a
        # fresh switch with the same tiny capacity, nothing is rejected.
        from repro.net.packet import reset_uid_counter

        reset_uid_counter()
        dep2 = Deployment()
        dep2.switch.table_capacity = 10
        src2 = AssetMonitor(dep2.sim, "inst1")
        dst2 = AssetMonitor(dep2.sim, "inst2")
        dep2.add_nf(src2)
        dep2.add_nf(dst2)
        dep2.set_default_route("inst1")
        for index in range(30):
            flow = FiveTuple("10.0.1.%d" % (index + 1), 30000 + index,
                             "203.0.113.5", 80)
            dep2.inject(make_packet(flow, flags=("SYN",)))
        dep2.sim.run()
        op = dep2.controller.move("inst1", "inst2", LOCAL_NET_FILTER,
                                  guarantee="lf")
        dep2.sim.run()
        assert op.done.triggered
        assert op.done.value.aborted is None
        assert dep2.switch.installs_rejected == 0
        assert dst2.conn_count() == 30


def _thirty_flows(capacity, offload=False):
    """Two monitors, 30 flows of state at ``inst1``, a bounded table."""
    dep = Deployment(offload=offload)
    dep.switch.table_capacity = capacity
    for name in ("inst1", "inst2"):
        dep.add_nf(AssetMonitor(dep.sim, name))
    dep.set_default_route("inst1")
    for index in range(30):
        flow = FiveTuple("10.0.1.%d" % (index + 1), 30000 + index,
                         "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()
    return dep


class TestRejectedFlowModIsNotAckedAsInstalled:
    """``Call.ack`` used to drop the peer-side failure, so a flow-mod the
    switch refused read as installed at the controller."""

    def test_install_on_a_full_table_fails_the_call(self):
        dep = _thirty_flows(capacity=1)
        install = dep.controller.switch_client.install(
            Filter({"nw_src": "10.0.9.0/24"}), ["inst2"], MID_PRIORITY
        )
        batch = dep.controller.switch_client.install_batch([
            (Filter.wildcard(), ["inst1"], LOW_PRIORITY),  # replaces: ok
            (Filter({"nw_src": "10.0.8.0/24"}), ["inst2"], MID_PRIORITY),
        ])
        dep.sim.run()
        for event in (install, batch):
            assert event.triggered and not event.ok
            assert isinstance(event.exception, TableFullError)
        assert dep.switch.installs_rejected == 2

    def test_reroute_only_reports_the_rules_it_could_not_pin(self):
        from repro.baselines import RerouteOnlyScaler
        from repro.harness import LOCAL_NET_FILTER

        dep = _thirty_flows(capacity=10)
        done = RerouteOnlyScaler(dep.controller).scale_out(
            "inst1", "inst2", LOCAL_NET_FILTER
        )
        dep.sim.run()
        # 1 default route + 9 pins fill the table: 21 pins and the broad
        # steering rule are refused — and the report now says so.
        assert dep.switch.installs_rejected == 22
        assert done.value.notes == [
            "broad rule rejected: table full",
            "pin_rules=9",
            "pin_rules_rejected=21",
        ]


class TestRejectedRerouteAbortsTheOperation:
    """A move whose forwarding update the switch refuses used to end
    ``aborted=None`` with its state at the destination and its traffic
    still at the emptied source. It now unwinds as a caller abort does."""

    @pytest.mark.parametrize("guarantee,offload", [
        ("lf", False), ("op", False), ("lf", True), ("op", True),
        ("op-strong", False),
    ])
    def test_move_on_a_full_table_unwinds_to_the_source(self, guarantee,
                                                        offload):
        from repro.harness import LOCAL_NET_FILTER, check_loss_free

        dep = _thirty_flows(capacity=1, offload=offload)
        for index in range(60):  # traffic across the whole operation
            flow = FiveTuple("10.0.1.%d" % (index % 30 + 1),
                             30000 + index % 30, "203.0.113.5", 80)
            dep.inject_at(dep.sim.now + 0.5 * index,
                          [make_packet(flow, flags=("ACK",), seq=index)])
        move = dep.controller.move("inst1", "inst2", LOCAL_NET_FILTER,
                                   guarantee=guarantee)
        queued = dep.controller.move(
            "inst1", "inst2", Filter({"nw_src": "10.0.1.0/28"},
                                     symmetric=True), guarantee="lf")
        assert queued.kind == "deferred"
        dep.sim.run()

        report = move.done.value  # ``done`` fired ok
        assert report.aborted == "sw: flow table full (1 rules)"
        assert [(e.priority, e.actions) for e in dep.switch.table] \
            == [(LOW_PRIORITY, ("inst1",))]
        assert dep.nfs["inst1"].conn_count() == 30
        assert [nf.event_rule_count for nf in dep.nfs.values()] == [0, 0]
        assert dep.switch._xfsm_machines == []
        assert dep.controller._event_interests == []
        assert dep.controller._packet_interests == []
        ok, detail = check_loss_free(dep.switch, list(dep.nfs.values()))
        assert ok, detail
        # The queued overlapping move launched (and met the same table).
        assert queued.operation is not None and queued.done.triggered
        assert all(not shard._admission for shard in dep.controller.replicas)

    def test_chain_with_a_rejected_hop_reroute_rolls_back(self):
        from repro.harness import LOCAL_NET_FILTER, check_chain_loss_free
        from tests.test_chain import (
            DST_MAP,
            build_chain_deployment,
            hop_instance_pairs,
            replay_trace,
        )

        dep, chain, nfs = build_chain_deployment()
        # The chain's multicast rule + one MID reroute fit; the HIGH
        # overlay of the order-preserving nat hop does not.
        dep.switch.table_capacity = 2
        replayer = replay_trace(dep)
        ops = []
        dep.sim.schedule(
            replayer.duration_ms / 2.0,
            lambda: ops.append(dep.controller.move_chain(
                chain, LOCAL_NET_FILTER, DST_MAP, guarantee="lf",
                hop_guarantees={"nat": "op"},
            )),
        )
        dep.sim.run()

        report = ops[0].done.value  # ``done`` fired ok
        assert report.aborted == (
            "chain hop 'nat' aborted: sw: flow table full (2 rules)"
        )
        assert report.notes == ["rolled back hop 'proxy'"]
        assert [(r.src, r.aborted is None) for r in ops[0].hop_reports] \
            == [("p1", True), ("n1", False)]
        assert [hop.active for hop in chain.hops] == ["i1", "n1", "p1"]
        assert {nf.event_rule_count for nf in nfs.values()} == {0}
        ok, detail = check_chain_loss_free(dep.switch,
                                           hop_instance_pairs(nfs))
        assert ok, detail
        assert dep.obs.violations() == []
        assert dep.controller.replicas[0]._admission == {}
