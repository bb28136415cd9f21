"""Regression tests for the single-controller bugs fixed alongside sharding.

Three bugs, each pinned here:

1. ``_event_reorder`` was never reset when an NF crash-stopped or was
   replaced, so a restarted instance's sequenced events (seq starting
   back at 1) were all silently dropped as duplicates.
2. Deferred operations could starve: a waiting ``DeferredOperation``
   was not in the admission table, so later operations overlapping the
   *deferred* filter (but not the in-flight one) leapfrogged it.
3. ``register_nf`` silently let two NFs claim the same port.

Plus the abort-while-deferred race: an abort landing in the same sim
timestamp as the last conflict's ``done`` must not launch the operation
after its ``done`` already triggered with the deferred-abort report.

And the chain-level twin of that race: a ``ChainOperation.abort``
landing in the same timestamp as the in-flight hop move's completion
must treat that hop as *completed* (one reverse move during rollback),
never forward a stale cancellation into a hop whose release barrier has
already drained.
"""

import pytest

from repro.controller.controller import OpenNFController
from repro.faults import FaultPlan
from repro.flowspace import Filter, FiveTuple
from repro.harness import build_multi_instance_deployment, check_loss_free
from repro.nf.events import EventAction, PacketEvent
from repro.nfs.dummy import DummyNF
from repro.sim import Simulator
from tests.conftest import make_packet


def feed(dep, nf, count=10, net="10.0.1"):
    """``count`` SYNs through the switch to ``nf``, the default route, so
    the loss-free judge has forwarded packets to judge."""
    before = nf.packets_processed
    for index in range(count):
        flow = FiveTuple("%s.%d" % (net, index + 1), 30000 + index,
                         "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()
    assert nf.packets_processed == before + count


def _sequenced_event(sim, nf_name, seq, port=40000):
    flow = FiveTuple("10.0.1.9", port, "203.0.113.5", 80)
    event = PacketEvent(nf_name, make_packet(flow), EventAction.PROCESS,
                        sim.now)
    event.seq = seq
    return event


class TestEventReorderReset:
    def _reliable_controller(self):
        sim = Simulator()
        # An empty fault plan: no injected faults, but the reliable
        # (sequenced/acked) event channel is on.
        ctrl = OpenNFController(sim, faults=FaultPlan(seed=1))
        return sim, ctrl

    def test_replacement_instance_events_not_dropped_as_duplicates(self):
        sim, ctrl = self._reliable_controller()
        received = []
        ctrl.default_event_handler = received.append
        first = DummyNF(sim, "inst1")
        ctrl.register_nf(first, port="p1")
        ctrl.handle_nf_event(_sequenced_event(sim, "inst1", 1))
        ctrl.handle_nf_event(_sequenced_event(sim, "inst1", 2))
        sim.run()
        assert len(received) == 2

        first.fail("power loss")
        # A replacement instance registered under the same name starts
        # its event sequence from 1 again. Before the fix the stale
        # reorder state dropped every one of its events as a duplicate.
        replacement = DummyNF(sim, "inst1")
        ctrl.register_nf(replacement, port="p1")
        ctrl.handle_nf_event(_sequenced_event(sim, "inst1", 1))
        sim.run()
        assert len(received) == 3
        assert sum(ctrl.event_duplicates.values()) == 0

    def test_crash_releases_buffered_out_of_order_events(self):
        sim, ctrl = self._reliable_controller()
        received = []
        ctrl.default_event_handler = received.append
        nf = DummyNF(sim, "inst1")
        ctrl.register_nf(nf, port="p1")
        ctrl.handle_nf_event(_sequenced_event(sim, "inst1", 1))
        # seq 3 arrives with seq 2 missing: buffered, not delivered.
        ctrl.handle_nf_event(_sequenced_event(sim, "inst1", 3))
        sim.run(until=5.0)
        assert len(received) == 1
        # The instance dies; seq 2 will never arrive. The buffered
        # seq-3 event was genuinely raised and must not die with the
        # reorder buffer.
        nf.fail("crash")
        sim.run()
        assert len(received) == 2
        assert ctrl._event_reorder == {}


class TestPortMap:
    def test_register_rejects_duplicate_port(self):
        sim = Simulator()
        ctrl = OpenNFController(sim)
        ctrl.register_nf(DummyNF(sim, "inst1"), port="p1")
        with pytest.raises(ValueError, match="already claimed"):
            ctrl.register_nf(DummyNF(sim, "inst2"), port="p1")
        # The first registration still holds the port.
        assert ctrl._port_to_nf.get("p1") == "inst1"

    def test_instance_at_port_reverse_map(self):
        sim = Simulator()
        ctrl = OpenNFController(sim)
        ctrl.register_nf(DummyNF(sim, "inst1"), port="p1")
        ctrl.register_nf(DummyNF(sim, "inst2"), port="p2")
        assert ctrl._port_to_nf.get("p1") == "inst1"
        assert ctrl._port_to_nf.get("p2") == "inst2"
        assert ctrl._port_to_nf.get("p9") is None

    def test_same_name_reregistration_moves_port(self):
        sim = Simulator()
        ctrl = OpenNFController(sim)
        ctrl.register_nf(DummyNF(sim, "inst1"), port="p1")
        ctrl.register_nf(DummyNF(sim, "inst1"), port="p2")
        assert ctrl._port_to_nf.get("p1") is None
        assert ctrl._port_to_nf.get("p2") == "inst1"
        # The vacated port is claimable again.
        ctrl.register_nf(DummyNF(sim, "inst3"), port="p1")
        assert ctrl._port_to_nf.get("p1") == "inst3"


class TestDeferralFifo:
    def test_deferred_operation_cannot_be_leapfrogged(self):
        """The three-operation starvation pin.

        A (narrow, in flight) blocks B (broad, deferred). C intersects
        only B's filter, not A's — before the fix C started immediately
        and B could starve behind an endless stream of such Cs. Now B's
        reservation makes admission FIFO: C waits for B.
        """
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 5, net="10.0.1")
        feed(dep, a, 5, net="10.0.2")
        narrow_a = Filter({"nw_src": "10.0.1.0/24"}, symmetric=True)
        broad_b = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        narrow_c = Filter({"nw_src": "10.0.2.0/24"}, symmetric=True)
        op_a = dep.controller.move("inst1", "inst2", narrow_a,
                                   guarantee="lf")
        op_b = dep.controller.move("inst1", "inst3", broad_b,
                                   guarantee="lf")
        op_c = dep.controller.move("inst3", "inst2", narrow_c,
                                   guarantee="lf")
        # C intersects no LIVE operation, only deferred B — it must
        # still queue (this is exactly the leapfrog).
        assert dep.controller.operations_queued_for_conflict == 2
        dep.sim.run()
        assert all(op.done.triggered for op in (op_a, op_b, op_c))
        assert op_b.report.started_at >= op_a.done.value.finished_at
        assert op_c.report.started_at >= op_b.done.value.finished_at
        ok, detail = check_loss_free(dep.switch, [a, b, c])
        assert ok, detail
        # Everything drained out of the admission table.
        assert dep.controller.replicas[0]._admission == {}

    def test_fifo_chain_preserves_submission_order(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 6)
        flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        ops = [
            dep.controller.move("inst1", "inst2", flt, guarantee="lf"),
            dep.controller.move("inst2", "inst3", flt, guarantee="lf"),
            dep.controller.move("inst3", "inst1", flt, guarantee="lf"),
        ]
        dep.sim.run()
        starts = [op.report.started_at for op in ops]
        assert starts == sorted(starts)
        assert a.conn_count() == 6


class TestAbortWhileDeferred:
    def test_abort_at_last_conflict_done_timestamp_never_launches(self):
        """Abort racing the conflict's done in the same sim timestamp.

        The conflict's done callback chain (a) decrements the deferred
        op's wait count, scheduling its launch at +0 ms, and (b) runs
        our abort. The launch callback then finds ``done`` already
        triggered and must NOT start the operation.
        """
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 4)
        flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        first = dep.controller.move("inst1", "inst2", flt, guarantee="lf")
        second = dep.controller.move("inst2", "inst3", flt, guarantee="lf")
        first.done.add_callback(
            lambda _evt: second.abort("raced the done callback")
        )
        dep.sim.run()
        assert second.done.triggered
        assert second.operation is None  # never launched
        assert second.report is not None
        assert ("aborted while deferred: raced the done callback"
                == second.report.aborted)
        # The aborted reservation is released; the table is empty.
        assert dep.controller.replicas[0]._admission == {}
        # And the state actually moved only once (first op).
        assert b.conn_count() == 4
        assert c.conn_count() == 0


class TestChainAbortRacingHopCompletion:
    def test_abort_at_hop_done_timestamp_rolls_back_exactly_once(self):
        """Chain abort racing a hop's release barrier in one timestamp.

        The abort fires from the in-flight hop move's own ``done``
        callback — the exact instant the hop completes. The guard on
        ``ChainOperation.abort`` must see ``done.triggered`` and NOT
        forward the cancellation into the hop (its buffered packets are
        released, its state is live at the destination); instead the
        chain's next checkpoint aborts the composite and the completed
        hop is rolled back exactly once by one reverse move.
        """
        from repro.harness import LOCAL_NET_FILTER
        from repro.nfs.monitor import AssetMonitor
        from repro.traffic.replay import TraceReplayer
        from repro.traffic.traces import (
            TraceConfig,
            build_university_cloud_trace,
        )
        from repro.harness.deployment import Deployment

        dep = Deployment()
        nfs = {}
        hops = [("a", ("a1", "a2")), ("b", ("b1", "b2"))]
        for _, names in hops:
            for name in names:
                nf = AssetMonitor(dep.sim, name)
                dep.add_nf(nf)
                nfs[name] = nf
        chain = dep.chain("pair", hops, flt=LOCAL_NET_FILTER)
        trace = build_university_cloud_trace(TraceConfig(
            seed=5, n_flows=30, data_packets=8,
        ))
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                                 rate_pps=2500.0)
        replayer.start()
        holder = {}

        def kickoff():
            holder["op"] = dep.controller.move_chain(
                chain, LOCAL_NET_FILTER, {"a": "a2", "b": "b2"},
                guarantee="lf",
            )

        def attach():
            op = holder["op"]
            assert op._current is not None, "no hop move in flight"
            holder["hop"] = op._current
            op._current.done.add_callback(
                lambda _evt: op.abort("raced hop completion")
            )

        kick_at = replayer.duration_ms / 2.0
        dep.sim.schedule(kick_at, kickoff)
        dep.sim.schedule(kick_at + 1.0, attach)
        dep.sim.run()

        op = holder["op"]
        report = op.done.value
        assert report.aborted == "aborted: raced hop completion"
        # The racing hop (the tail, hop "b") completed cleanly — its own
        # report carries no abort — and was rolled back exactly once.
        assert holder["hop"].report.aborted is None
        assert [r.src for r in op.hop_reports] == ["b1"]
        assert report.notes == ["rolled back hop 'b'"]
        # The head hop never launched; every active is back at the
        # original instance and the admission table drained.
        assert [hop.active for hop in chain.hops] == ["a1", "b1"]
        assert dep.controller.replicas[0]._admission == {}


class TestShareSetupFailureReleases:
    """A share whose set-up hits a dead instance used to die inside its
    process: ``started``/``done`` never fired, its admission reservation
    was held forever, and a later overlapping move stayed deferred."""

    @pytest.mark.parametrize("faults", [None, "seed=1"],
                             ids=["classic", "reliable"])
    def test_failed_setup_fires_done_and_unblocks_queued_move(self, faults):
        dep, (a, b, c) = build_multi_instance_deployment(
            3, nf_factory=DummyNF, faults=faults,
        )
        feed(dep, a, count=4)
        b.fail("dead before the share")
        share = dep.controller.share(
            [a.name, b.name], Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        )
        move = dep.controller.move(
            a.name, c.name, Filter({"nw_src": "10.0.1.0/24"}, symmetric=True)
        )
        assert not move.done.triggered  # deferred behind the share
        dep.sim.run()

        assert share.started.triggered and not share.started.ok
        assert share.done.triggered
        assert b.name in share.report.aborted
        assert move.done.triggered and move.done.value.aborted is None
        assert len(c.flows) == 4
        assert all(not shard._admission for shard in dep.controller.replicas)
