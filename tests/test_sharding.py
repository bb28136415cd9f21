"""Tests for flow-space sharding of the controller.

Covers the shard map (determinism, orientation normalization, prefix
bucketing, balance), the one-class structure (any shard count is the
same controller; timelines are pinned by test_golden_control_path), the
parallelism win (disjoint operations no longer serialize through one
inbox), the cross-shard ownership handshake (including
abort-mid-handoff and the bounded override list), and the plane-wide
registration view.
"""

import repro
from repro.controller.controller import OpenNFController
from repro.controller.operation import when_all
from repro.controller.sharding import ShardMap
from repro.flowspace import Filter, FiveTuple
from repro.harness import Deployment
from repro.net.packet import Packet, reset_uid_counter
from repro.nf.events import EventAction, PacketEvent
from repro.nfs.dummy import DummyNF
from repro.conformance import run_schedule
from repro.conformance.schedule import BurstSpec, OpSpec, ScheduleSpec

import pytest


class TestShardMap:
    def test_deterministic(self):
        m = ShardMap(4)
        flt = Filter({"nw_src": "172.16.0.0/16"}, symmetric=True)
        assert m.shard_for_filter(flt) == m.shard_for_filter(flt)
        assert ShardMap(4).shard_for_filter(flt) == m.shard_for_filter(flt)

    def test_orientations_of_one_flow_agree(self):
        m = ShardMap(8)
        flow = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)
        fwd = Filter.for_flow(flow, symmetric=False)
        rev = Filter.for_flow(flow.reversed(), symmetric=False)
        sym = Filter.for_flow(flow, symmetric=True)
        packet_shard = m.shard_for_packet(Packet(flow))
        assert (m.shard_for_filter(fwd) == m.shard_for_filter(rev)
                == m.shard_for_filter(sym) == packet_shard)

    def test_adjacent_prefixes_cycle_shards(self):
        m = ShardMap(4)
        shards = [
            m.shard_for_filter(
                Filter({"nw_src": "172.%d.0.0/16" % (16 + i)},
                       symmetric=True)
            )
            for i in range(8)
        ]
        # Consecutive /16s land on consecutive shards (round-robin), so
        # a bench splitting traffic across subnets balances perfectly.
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_wildcard_goes_to_shard_zero(self):
        m = ShardMap(4)
        assert m.shard_for_filter(Filter.wildcard()) == 0
        assert m.shard_for_filter(Filter({"nw_proto": 6})) == 0

    def test_exact_flow_balance_roughly_uniform(self):
        m = ShardMap(4)
        counts = [0, 0, 0, 0]
        for i in range(400):
            flow = FiveTuple("10.%d.%d.%d" % (i % 7, i % 11, 1 + i % 250),
                             20000 + i, "203.0.113.5", 80)
            counts[m.shard_for_packet(Packet(flow))] += 1
        assert min(counts) > 400 // 4 // 2  # no shard starves

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardMap(0)


def _cross_shard_operations(plane):
    """Operations admission saw cross a shard boundary."""
    return sum(count for (_home, _kind, crossed), count
               in plane.deferrals.items() if crossed)


def _run_move(n_flows=60):
    """One preloaded DummyNF move; returns (report, deployment)."""
    reset_uid_counter()
    dep = Deployment()
    src = DummyNF(dep.sim, "inst1")
    dst = DummyNF(dep.sim, "inst2")
    dep.add_nf(src)
    dep.add_nf(dst)
    src.preload(n_flows, base_ip="172.16.0.0")
    flt = Filter({"nw_src": "172.16.0.0/16"}, symmetric=True)
    op = dep.controller.move("inst1", "inst2", flt, guarantee="lf")
    dep.sim.run()
    assert op.done.triggered
    return op.report, dep


class TestOneControllerClass:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_any_shard_count_is_the_same_class(self, shards):
        controller = Deployment(shards=shards).controller
        assert type(controller) is OpenNFController
        assert len(controller.replicas) == shards
        assert [s.shard_id for s in controller.replicas] == list(range(shards))

    def test_the_second_class_is_gone(self):
        assert "ShardedControlPlane" not in repro.__all__
        assert "ShardedControlPlane" not in repro.controller.__all__

    def test_single_shard_never_hands_off(self):
        _report, dep = _run_move()
        assert _cross_shard_operations(dep.controller) == 0
        assert dep.controller.handoffs_completed == 0


class TestParallelism:
    def _two_moves(self, shards):
        reset_uid_counter()
        dep = Deployment(shards=shards)
        nfs = {}
        for name in ("inst1", "inst2", "inst3", "inst4"):
            nfs[name] = DummyNF(dep.sim, name)
            dep.add_nf(nfs[name])
        # 172.16/16 homes on shard 0, 172.17/16 on shard 1.
        nfs["inst1"].preload(120, base_ip="172.16.0.0")
        nfs["inst3"].preload(120, base_ip="172.17.0.0")
        left = Filter({"nw_src": "172.16.0.0/16"}, symmetric=True)
        right = Filter({"nw_src": "172.17.0.0/16"}, symmetric=True)
        op1 = dep.controller.move("inst1", "inst2", left, guarantee="lf")
        op2 = dep.controller.move("inst3", "inst4", right, guarantee="lf")
        dep.sim.run()
        assert op1.done.triggered and op2.done.triggered
        return op1.report.duration_ms, op2.report.duration_ms

    def test_disjoint_moves_stop_serializing_across_shards(self):
        """One inbox serializes chunk handling; two inboxes don't.

        Two concurrent 120-chunk moves through the classic controller
        interleave in one ChunkPump, stretching both; on a 2-shard
        plane each move owns a replica and runs at solo speed.
        """
        classic = self._two_moves(shards=1)
        sharded = self._two_moves(shards=2)
        solo_report, _ = _run_move(n_flows=120)
        solo = solo_report.duration_ms
        assert max(sharded) < max(classic) * 0.75
        assert max(sharded) < solo * 1.2
        assert max(classic) > solo * 1.5


SCALING_PAIRS = 8
SCALING_FLOWS = 400
DRAIN_EVENTS = 4000


def _concurrent_moves(shards):
    """(makespan, mean move ms) of 8 simultaneous disjoint 400-flow LF
    moves; pair ``p`` owns ``172.(16+p).0.0/16`` and adjacent /16s cycle
    shards, so 4 shards carry two moves each."""
    dep = Deployment(shards=shards)
    planned = []
    for pair in range(SCALING_PAIRS):
        src = DummyNF(dep.sim, "src%d" % pair)
        dep.add_nf(src)
        dep.add_nf(DummyNF(dep.sim, "dst%d" % pair))
        flt = Filter({"nw_src": "172.%d.0.0/16" % (16 + pair)},
                     symmetric=True)
        dep.set_default_route(src.name, flt)
        src.preload(SCALING_FLOWS, base_ip="172.%d.0.0" % (16 + pair))
        planned.append((src.name, "dst%d" % pair, flt))
    moves = []
    dep.call_at(10.0, lambda: moves.extend(
        dep.controller.move(src, dst, flt, scope="per", guarantee="lf")
        for src, dst, flt in planned
    ))
    dep.sim.run()
    reports = [move.done.value for move in moves]
    assert sum(r.total_chunks for r in reports) == \
        SCALING_PAIRS * SCALING_FLOWS
    return (round(max(r.finished_at for r in reports) - 10.0, 3),
            round(sum(r.duration_ms for r in reports) / SCALING_PAIRS, 3))


def _event_drain_ms(shards):
    """When a 4000-event burst spread over flow space has drained; each
    event is one serialized ``msg_proc_ms`` slot on its owning shard."""
    dep = Deployment(shards=shards)
    dep.add_nf(DummyNF(dep.sim, "gen"))
    dep.controller.default_event_handler = lambda event: None
    for index in range(DRAIN_EVENTS):
        flow = FiveTuple(
            "172.%d.%d.%d" % (16 + index % 8, 1 + index // 250,
                              1 + index % 250),
            20000 + index, "198.18.0.1", 80,
        )
        packet = Packet(flow, tcp_flags=("ACK",), created_at=dep.sim.now)
        dep.controller.handle_nf_event(
            PacketEvent("gen", packet, EventAction.PROCESS, dep.sim.now))
    drained = []
    when_all([shard.inbox.drained() for shard in dep.controller.replicas],
             lambda: drained.append(dep.sim.now))
    dep.sim.run()
    return round(drained[0], 3)


class TestScaling:
    """Fig. 13's serialization wall, removed: at 8 concurrent moves, 4
    shards buy >= 3x aggregate operation throughput and >= 3x event
    throughput over one (both are work / makespan, so the speed-up is
    the makespan ratio)."""

    @pytest.fixture(scope="class")
    def measured(self):
        return {shards: (_concurrent_moves(shards), _event_drain_ms(shards))
                for shards in (1, 2, 4)}

    def test_four_shards_triple_move_and_event_throughput(self, measured):
        (moves_1, _), drain_1 = measured[1]
        (moves_4, _), drain_4 = measured[4]
        assert moves_1 / moves_4 >= 3.0  # 3.62x
        assert drain_1 / drain_4 >= 3.0  # 4.0x

    def test_simulated_clock_is_pinned(self, measured):
        assert measured == {
            1: ((497.291, 496.766), 600.0),
            2: ((257.292, 257.067), 300.0),
            4: ((137.294, 137.218), 150.0),
        }


def _cross_shard_spec(second_op):
    # 10.0.1.0/24 homes on shard 1; 10.0.0.0/8 homes on shard 0 and
    # intersects it -> the second operation needs the handshake.
    return ScheduleSpec(
        nf="monitor",
        seed=11,
        n_flows=6,
        data_packets=3,
        shards=2,
        ops=[
            OpSpec(kind="move", at_ms=6.0, src="inst1", dst="inst2",
                   prefix="10.0.1.0/24", guarantee="lf"),
            second_op,
        ],
        bursts=[BurstSpec(at_ms=8.0, client="10.0.1.77", port=40000,
                          packets=3)],
    )


class TestCrossShard:
    def test_cross_shard_move_audits_clean(self):
        spec = _cross_shard_spec(
            OpSpec(kind="move", at_ms=7.0, src="inst2", dst="inst1",
                   prefix="10.0.0.0/8", guarantee="lf")
        )
        result = run_schedule(spec, keep_deployment=True)
        assert result.ok, result.summary()
        plane = result.deployment.controller
        assert _cross_shard_operations(plane) >= 1
        assert plane.handoffs_completed >= 1

    def test_cross_shard_copy_audits_clean(self):
        spec = _cross_shard_spec(
            OpSpec(kind="copy", at_ms=7.0, src="inst2", dst="inst1",
                   prefix="10.0.0.0/8", scope="multi")
        )
        result = run_schedule(spec, keep_deployment=True)
        assert result.ok, result.summary()
        assert _cross_shard_operations(result.deployment.controller) >= 1

    def test_cross_shard_share_audits_clean(self):
        spec = _cross_shard_spec(
            OpSpec(kind="share", at_ms=7.0, src="inst1", dst="inst2",
                   prefix="10.0.0.0/8", guarantee="strong",
                   scope="multi", stop_at_ms=30.0)
        )
        result = run_schedule(spec, keep_deployment=True)
        assert result.ok, result.summary()
        assert _cross_shard_operations(result.deployment.controller) >= 1

    def test_handoff_transfers_ownership_persistently(self):
        dep = Deployment(shards=2)
        nfs = {}
        for name in ("inst1", "inst2", "inst3", "inst4"):
            nfs[name] = DummyNF(dep.sim, name)
            dep.add_nf(nfs[name])
        nfs["inst3"].preload(40, base_ip="172.17.0.0")
        plane = dep.controller
        right = Filter({"nw_src": "172.17.0.0/16"}, symmetric=True)
        assert plane.shard_map.shard_for_filter(right) == 1
        op1 = dep.controller.move("inst3", "inst4", right, guarantee="lf")
        # Overlapping op homed on shard 0 while op1 runs on shard 1.
        results = []
        dep.sim.schedule(1.0, lambda: results.append(
            dep.controller.move("inst4", "inst2", Filter({"nw_proto": 6}))))
        dep.sim.run()
        op2 = results[0]
        assert op1.done.triggered and op2.done.triggered
        assert plane.handoffs_completed == 1
        # Shard 0 now owns the transferred flow space: traffic that
        # previously routed to shard 1 by hash routes to the new owner.
        packet = Packet(FiveTuple("172.17.0.9", 10000, "198.18.0.1", 80, 6))
        assert plane._route(packet) is plane.replicas[0]
        # Operation-lifetime claims are all released.
        assert plane._claims == []

    def test_abort_mid_handshake_resolves_without_handoff(self):
        dep = Deployment(shards=2)
        nfs = {}
        for name in ("inst1", "inst2", "inst3", "inst4"):
            nfs[name] = DummyNF(dep.sim, name)
            dep.add_nf(nfs[name])
        nfs["inst3"].preload(200, base_ip="172.17.0.0")
        right = Filter({"nw_src": "172.17.0.0/16"}, symmetric=True)
        op1 = dep.controller.move("inst3", "inst4", right, guarantee="lf")
        holder = []
        dep.sim.schedule(1.0, lambda: holder.append(
            dep.controller.move("inst4", "inst2", Filter({"nw_proto": 6}))))
        # Abort while the cross-shard op is still waiting on op1.
        dep.sim.schedule(2.0, lambda: holder[0].abort("changed my mind"))
        dep.sim.run()
        op2 = holder[0]
        assert op1.done.triggered and op2.done.triggered
        assert op2.operation is None
        assert "aborted while deferred" in op2.report.aborted
        assert dep.controller.handoffs_completed == 0
        assert dep.controller._ownership == []
        # Every replica's admission table drained.
        for replica in dep.controller.replicas:
            assert replica._admission == {}


    def test_ownership_overrides_stay_bounded(self):
        """50 handoffs ping-ponging over two prefixes keep two overrides.

        Every completed handoff used to append an override that nothing
        ever removed, while every routed message scans the list.
        """
        dep = Deployment(shards=2)
        for name in ("inst1", "inst2"):
            dep.add_nf(DummyNF(dep.sim, name))
        plane = dep.controller
        # Disjoint prefixes homed on shards 0 and 1, and a bridge filter
        # intersecting both: it homes wherever the newest override pulls
        # it, i.e. on the shard the *other* prefix was last handed to.
        prefixes = [
            Filter({"nw_src": "172.16.0.0/16"}, symmetric=True),
            Filter({"nw_src": "172.17.0.0/16"}, symmetric=True),
        ]
        bridge = Filter({"nw_dst": "198.19.0.0/16"})
        unpruned = []
        for round_ in range(50):
            prefix = prefixes[round_ % 2]
            first = plane.move("inst1", "inst2", bridge, guarantee="lf")
            second = plane.move("inst2", "inst1", prefix, guarantee="lf")
            dep.sim.run()
            assert first.done.triggered and second.done.triggered
            unpruned.append((prefix, second.shard))
        assert plane.handoffs_completed == 50
        assert len(plane._ownership) <= 2

        def route_unpruned(packet):
            for flt, shard in reversed(unpruned):
                if flt.matches_packet(packet):
                    return shard
            return plane.replicas[plane.shard_map.shard_for_packet(packet)]

        for index in range(64):
            packet = Packet(FiveTuple(
                "172.%d.%d.9" % (15 + index % 4, index), 10000 + index,
                "198.%d.0.1" % (18 + index % 2), 80, 6,
            ))
            assert plane._route(packet) is route_unpruned(packet)


class TestSharedView:
    def test_registration_is_plane_wide(self):
        dep = Deployment(shards=4)
        for name in ("inst1", "inst2", "inst3"):
            dep.add_nf(DummyNF(dep.sim, name))
        plane = dep.controller
        assert set(plane.clients) == {"inst1", "inst2", "inst3"}
        assert plane.nf_ports["inst2"] == "inst2"

    def test_duplicate_port_rejected(self):
        dep = Deployment(shards=4)
        plane = dep.controller
        plane.register_nf(DummyNF(dep.sim, "inst1"), port="shared-port")
        with pytest.raises(ValueError, match="already claimed"):
            plane.register_nf(DummyNF(dep.sim, "other"), port="shared-port")

    def test_interest_dispatches_from_any_shard(self):
        """An interest is found whichever shard's inbox carries the event."""
        dep = Deployment(shards=2)
        dep.add_nf(DummyNF(dep.sim, "inst1"))
        plane = dep.controller
        seen = []
        handle = plane.add_event_interest("inst1", None, seen.append)
        for shard, prefix in enumerate(("172.16.0.9", "172.17.0.9")):
            flow = FiveTuple(prefix, 10000, "198.18.0.1", 80, 6)
            assert plane._route(Packet(flow)).shard_id == shard
            plane.handle_nf_event(PacketEvent(
                "inst1", Packet(flow), EventAction.PROCESS, dep.sim.now))
        dep.sim.run()
        assert len(seen) == 2
        assert [s.events_received for s in plane.replicas] == [1, 1]
        plane.remove_interest(handle)
        assert not plane._event_interests
